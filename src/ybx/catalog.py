"""Parameterized library of classified rank-2 solutions and desk-scale
classification counters.

The ten 4x4 families are transcribed in the row-fastest Kronecker convention
with revlex pair basis (11, 21, 12, 22); each carries its non-vanishing
constraints and the expected Jordan template, and where the template holds
only off a subvariety, the expression that must not vanish.  One
transcription correction is applied to the a-glue family: the printed middle
pair is transposed so the matrix actually satisfies the equation at generic
parameters (verified against the Jordan form, the glue taxonomy, and the
k = 0 degeneration).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .core import YBObject, make_ybo
from .errors import (
    ConstraintViolated,
    DivisionByZero,
    SizeCeiling,
    UnknownId,
    UnsupportedRank,
    YbxError,
)
from .expressions import ParamBinding, eval_expr, sample_binding
from .scalars import Backend
from .spectral import jordan_structure, rational_sqrt
from .tensor import Matrix


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    family: str
    N: int
    params: tuple
    entries: tuple          # rows of expression strings
    constraints: tuple      # expressions that must evaluate nonzero
    jordan_template: tuple  # ({"value": expr} | {"sqrt": expr, "sign": +-1}, blocks)
    tableau: str | None = None
    notes: str = ""
    unitary_scale: str | None = None  # divide by this (complex) factor to unitarise
    jordan_generic: str | None = None  # the template holds where this is nonzero


def _entry(id, family, N, params, entries, constraints, jordan, tableau=None,
           notes="", unitary_scale=None, jordan_generic=None):
    return CatalogEntry(
        id=id, family=family, N=N, params=tuple(params),
        entries=tuple(tuple(row) for row in entries),
        constraints=tuple(constraints),
        jordan_template=tuple((dict(spec), tuple(blocks)) for spec, blocks in jordan),
        tableau=tableau, notes=notes, unitary_scale=unitary_scale,
        jordan_generic=jordan_generic,
    )


_CATALOG = [
    _entry(
        "hietarinta:slash", "HietarintaSlash", 2, ["k", "q", "p", "s"],
        [["k", "0", "0", "0"],
         ["0", "0", "p", "0"],
         ["0", "q", "0", "0"],
         ["0", "0", "0", "s"]],
        ["k", "p", "q", "s"],
        [({"value": "k"}, [1]), ({"sqrt": "p*q", "sign": 1}, [1]),
         ({"sqrt": "p*q", "sign": -1}, [1]), ({"value": "s"}, [1])],
        notes="slash-type; charge conserving",
    ),
    _entry(
        "hietarinta:slash-ds", "HietarintaSlashDS", 2, ["k", "p", "q"],
        [["0", "0", "0", "p"],
         ["0", "k", "0", "0"],
         ["0", "0", "k", "0"],
         ["q", "0", "0", "0"]],
        ["k", "p", "q"],
        [({"sqrt": "p*q", "sign": 1}, [1]), ({"value": "k"}, [1, 1]),
         ({"sqrt": "p*q", "sign": -1}, [1])],
        notes="one-sided conjugate of the k = s slash point by an antidiagonal",
    ),
    _entry(
        "hietarinta:slash-glue-1", "SlashGlue1", 2, [],
        [["1", "0", "0", "1"],
         ["0", "0", "-1", "0"],
         ["0", "-1", "0", "0"],
         ["0", "0", "0", "1"]],
        [],
        [({"value": "1"}, [2, 1]), ({"value": "-1"}, [1])],
        notes="non-diagonalisable slash variant with a single corner glue",
    ),
    _entry(
        "hietarinta:slash-glue-2", "SlashGlue2", 2, ["k", "q", "p", "s"],
        [["k", "q", "p", "s"],
         ["0", "0", "k", "q"],
         ["0", "k", "0", "p"],
         ["0", "0", "0", "k"]],
        ["k"],
        [({"value": "k"}, [3]), ({"value": "-k"}, [1])],
        notes="non-diagonalisable; a full upper border of glue",
        jordan_generic="k*(p+q)^2",
    ),
    _entry(
        "hietarinta:slash-glue-3", "SlashGlue3", 2, ["k", "p", "q"],
        [["k^2", "-k*p", "k*p", "p*q"],
         ["0", "0", "k^2", "k*q"],
         ["0", "k^2", "0", "-k*q"],
         ["0", "0", "0", "k^2"]],
        ["k"],
        [({"value": "k^2"}, [1, 1, 1]), ({"value": "-k^2"}, [1])],
    ),
    _entry(
        "hietarinta:a", "AType", 2, ["k", "p", "q"],
        [["k^2", "0", "0", "0"],
         ["0", "0", "k*q", "0"],
         ["0", "k*p", "k^2-p*q", "0"],
         ["0", "0", "0", "-p*q"]],
        ["k", "p", "q", "k^2+p*q"],
        [({"value": "k^2"}, [1, 1]), ({"value": "-p*q"}, [1, 1])],
        notes="a-type; charge conserving",
    ),
    _entry(
        "hietarinta:a-glue", "AGlue", 2, ["p", "q", "k"],
        [["p", "0", "0", "k"],
         ["0", "0", "q", "0"],
         ["0", "p", "p-q", "0"],
         ["0", "0", "0", "-q"]],
        ["p", "q", "p+q"],
        [({"value": "p"}, [1, 1]), ({"value": "-q"}, [1, 1])],
        notes="a-type with corner glue; middle pair transposed from the printed"
              " form, which fails the equation as printed",
    ),
    _entry(
        "hietarinta:f", "FType", 2, ["k", "p", "q"],
        [["k^2", "0", "0", "0"],
         ["0", "0", "k*q", "0"],
         ["0", "k*p", "k^2-p*q", "0"],
         ["0", "0", "0", "k^2"]],
        ["k", "p", "q", "k^2+p*q"],
        [({"value": "k^2"}, [1, 1, 1]), ({"value": "-p*q"}, [1])],
        notes="f-type; charge conserving",
    ),
    _entry(
        "hietarinta:ising", "Ising", 2, [],
        [["1", "0", "0", "1"],
         ["0", "1", "1", "0"],
         ["0", "-1", "1", "0"],
         ["-1", "0", "0", "1"]],
        [],
        [({"value": "1+i"}, [1, 1]), ({"value": "1-i"}, [1, 1])],
        notes="stored unnormalized; unitary after dividing by sqrt(2)",
        unitary_scale="sqrt2",
    ),
    _entry(
        "hietarinta:eight-vertex", "EightVertex", 2, ["p", "q"],
        [["p^2+2*p*q-q^2", "0", "0", "p^2-q^2"],
         ["0", "p^2-q^2", "p^2+q^2", "0"],
         ["0", "p^2+q^2", "p^2-q^2", "0"],
         ["p^2-q^2", "0", "0", "p^2-2*p*q-q^2"]],
        ["p", "q"],
        [({"value": "2*p^2"}, [1, 1]), ({"value": "-2*q^2"}, [1, 1])],
    ),
    _entry(
        "match2:F0", "Match2_F0", 2, ["alpha"],
        [["alpha", "0", "0", "0"],
         ["0", "alpha", "0", "0"],
         ["0", "0", "alpha", "0"],
         ["0", "0", "0", "alpha"]],
        ["alpha"],
        [({"value": "alpha"}, [1, 1, 1, 1])],
        tableau="[2]",
        notes="trivial representation up to scalar",
    ),
    _entry(
        "match2:F/", "Match2_FSlash", 2, ["alpha", "beta", "gamma", "chi"],
        [["alpha", "0", "0", "0"],
         ["0", "0", "gamma*chi", "0"],
         ["0", "gamma/chi", "0", "0"],
         ["0", "0", "0", "beta"]],
        ["alpha", "beta", "gamma", "chi"],
        [({"value": "alpha"}, [1]), ({"value": "beta"}, [1]),
         ({"value": "gamma"}, [1]), ({"value": "-gamma"}, [1])],
        tableau="[1][1]",
        notes="generalised flip",
    ),
    _entry(
        "grouptype:single-g", "GroupTypeSingleG", 2, ["a", "b", "d"],
        [["a", "0", "b", "0"],
         ["0", "0", "d", "0"],
         ["0", "a", "0", "b"],
         ["0", "0", "0", "d"]],
        ["a", "d", "a-d"],
        [({"value": "a"}, [1]), ({"value": "d"}, [1]),
         ({"sqrt": "a*d", "sign": 1}, [1]), ({"sqrt": "a*d", "sign": -1}, [1])],
        notes="R|ij> = g|j> (x) |i> with upper-triangular g = [[a, b], [0, d]]",
    ),
    _entry(
        "perm:flip", "PermFlip", 2, [],
        [["1", "0", "0", "0"],
         ["0", "0", "1", "0"],
         ["0", "1", "0", "0"],
         ["0", "0", "0", "1"]],
        [],
        [({"value": "1"}, [1, 1, 1]), ({"value": "-1"}, [1])],
        notes="the standard flip",
    ),
]

_ALIASES = {
    "match2:Ff": "hietarinta:f",
    "match2:Fa": "hietarinta:a",
}

_BY_ID = {e.id: e for e in _CATALOG}


def catalog_ids() -> list:
    return [e.id for e in _CATALOG]


def catalog_entry(entry_id: str) -> CatalogEntry:
    entry_id = _ALIASES.get(entry_id, entry_id)
    if entry_id not in _BY_ID:
        raise UnknownId(f"no catalog entry {entry_id!r}")
    return _BY_ID[entry_id]


def catalog_get(entry_id: str, binding: ParamBinding | None = None,
                unitary: bool = False) -> YBObject:
    """Instantiate a catalog family at a binding; the result is YBE-verified."""
    entry = catalog_entry(entry_id)
    binding = binding or ParamBinding({})
    for name in entry.params:
        if name not in binding:
            raise ConstraintViolated(f"parameter {name!r} is unbound")
    for cons in entry.constraints:
        try:
            value = eval_expr(cons, binding)
        except DivisionByZero as exc:
            raise ConstraintViolated(str(exc)) from exc
        if not value:
            raise ConstraintViolated(f"constraint {cons!r} vanishes at the binding")
    try:
        rows = [[eval_expr(e, binding) for e in row] for row in entry.entries]
    except DivisionByZero as exc:
        raise ConstraintViolated(str(exc)) from exc
    R = Matrix.from_rows(rows)
    obj = make_ybo(entry.N, R, verify=True)
    if unitary:
        if entry.unitary_scale != "sqrt2":
            raise ConstraintViolated(f"{entry_id} has no unitary normalization")
        R_c = obj.R.promote_to(Backend.COMPLEX_F).scale(complex(2 ** -0.5))
        obj = make_ybo(entry.N, R_c, verify=True)
    return obj


def sample_entry_binding(entry_id: str, seed: int) -> ParamBinding:
    entry = catalog_entry(entry_id)
    return sample_binding(entry.params, entry.constraints, seed)


def jordan_template_eval(entry_id: str, binding: ParamBinding) -> list:
    """Expected (eigenvalue, blocks) at a binding, merging colliding values.

    Raises ConstraintViolated where the entry's genericity expression
    vanishes, since the template does not hold there.
    """
    entry = catalog_entry(entry_id)
    if entry.jordan_generic and not eval_expr(entry.jordan_generic, binding):
        raise ConstraintViolated(f"the Jordan template of {entry.id} holds only where "
                                 f"{entry.jordan_generic} is nonzero")
    merged: list = []
    for spec, blocks in entry.jordan_template:
        if "sqrt" in spec:
            val = rational_sqrt(Fraction(eval_expr(spec["sqrt"], binding)))
            if spec.get("sign", 1) < 0:
                val = -val
        else:
            val = eval_expr(spec["value"], binding)
        for item in merged:
            if item[0] == val:
                item[1].extend(blocks)
                break
        else:
            merged.append([val, list(blocks)])
    return [(v, sorted(b, reverse=True)) for v, b in merged]


def jordan_template_matches(entry_id: str, binding: ParamBinding) -> bool:
    """Computed Jordan structure equals the template at the binding."""
    obj = catalog_get(entry_id, binding)
    computed = jordan_structure(obj.R)
    expected = jordan_template_eval(entry_id, binding)
    if len(computed) != len(expected):
        return False
    used = [False] * len(expected)
    for val, blocks in computed:
        for i, (ev, eb) in enumerate(expected):
            if not used[i] and list(blocks) == list(eb) and val == ev:
                used[i] = True
                break
        else:
            return False
    return True


def glue_positions(entry_id: str, binding: ParamBinding) -> list:
    """Nonzero entries whose transpose-position entry is zero."""
    obj = catalog_get(entry_id, binding)
    R = obj.R
    out = []
    for r in range(R.rows):
        for c in range(R.cols):
            if R.data[r][c] and not R.data[c][r]:
                out.append((r, c))
    return out


def catalog_checksums() -> dict:
    """SHA-256 of each entry's canonical serialization (a transcription lock)."""
    out = {}
    for e in _CATALOG:
        canon = json.dumps(
            {"id": e.id, "N": e.N, "params": list(e.params),
             "entries": [list(r) for r in e.entries],
             "constraints": list(e.constraints)},
            sort_keys=True)
        out[e.id] = hashlib.sha256(canon.encode()).hexdigest()
    return out


def match2_family_list() -> list:
    """The four charge-conserving rank-2 varieties with tableau labels.

    F_f and F_a are the eighth and sixth 4x4 families; they are exposed under
    both names.
    """
    return [
        ("F0", "[2]", catalog_entry("match2:F0")),
        ("Ff", "[1,1]", catalog_entry("match2:Ff")),
        ("Fa", "[1,1]*", catalog_entry("match2:Fa")),
        ("F/", "[1][1]", catalog_entry("match2:F/")),
    ]


# -- involutive counting ------------------------------------------------------


# Largest N of the partition table p(0..N), built by about N^2 / 2 big-int
# additions before anything is checked: N = 5000 took 1.1 s on a 2-vCPU host.
_MAX_PARTITION_N = 5000


def _partition_counts(n: int) -> list:
    """The numbers p(0), ..., p(n) of integer partitions."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts


def partition_count(n: int) -> int:
    """Number of integer partitions of n."""
    return _partition_counts(n)[n]


def involutive_class_count(N: int) -> int:
    """Pairs of Young diagrams with N boxes in total: sum p(k) p(N-k), from one
    table of p(0..N)."""
    if N < 0:
        raise YbxError(f"N must be non-negative, got {N}")
    if N > _MAX_PARTITION_N:
        raise SizeCeiling(f"N = {N} exceeds the ceiling {_MAX_PARTITION_N} of the partition table")
    p = _partition_counts(N)
    return sum(p[k] * p[N - k] for k in range(N + 1))


# -- permutation-solution enumeration -----------------------------------------


@dataclass
class PermEnumeration:
    N: int
    solutions: list          # permutation tuples on N^2 points
    classes: list            # canonical orbit representatives under relabeling
    flags: dict              # perm -> {"nondegenerate": bool, "involutive": bool}

    @property
    def counts(self) -> dict:
        return {
            "solutions": len(self.solutions),
            "classes": len(self.classes),
            "nondegenerate": sum(1 for p in self.solutions if self.flags[p]["nondegenerate"]),
            "involutive": sum(1 for p in self.solutions if self.flags[p]["involutive"]),
            "nondegenerate_involutive": sum(
                1 for p in self.solutions
                if self.flags[p]["nondegenerate"] and self.flags[p]["involutive"]),
            "nondegenerate_involutive_classes": sum(
                1 for p in self.classes
                if self.flags[p]["nondegenerate"] and self.flags[p]["involutive"]),
        }


def _braid_solutions(N: int) -> list:
    """The lexicographically least member of each relabeling orbit of the permutations p of
    the N^2 points with (p x 1)(1 x p)(p x 1) = (1 x p)(p x 1)(1 x p), in lexicographic order:
    backtracking on a partial p (-1 = unassigned) that takes the values the triples force at
    each node, branching on its lowest unassigned index in ascending order.  A node is dropped
    when a relabeling sigma puts sigma.p below p on every completion: at the first position
    where p and sigma.p are both known and differ, sigma.p is smaller, and every earlier
    position is known in both and equal."""
    n2 = N * N
    moves = _relabelings(N)[1:]

    def dominated(p: list) -> bool:
        for sig, inv in moves:
            for j in range(n2):
                a, q = p[j], p[inv[j]]
                if a < 0 or q < 0 or sig[q] > a:
                    break
                if sig[q] < a:
                    return True
        return False

    def settle(p: list) -> bool:
        changed = True
        while changed:
            changed = False
            for k in range(n2 * N):
                ends = []  # per side: factors applied (3 = defined), point reached, next is p x 1
                for low in (True, False):
                    m = k
                    for step in (0, 1, 2):
                        i = m % n2 if low else m // N
                        if p[i] < 0:
                            break
                        m += p[i] - i if low else N * (p[i] - i)
                        low = not low
                    else:
                        step = 3
                    ends.append((step, m, low))
                (s, v, _), (t, m, low) = ends if ends[0][0] == 3 else ends[::-1]
                if s < 3 or t < 2 or (t == 3 and v == m):
                    continue
                # both sides defined and unequal, or the other side's last factor keeps one base-N
                # digit, which must agree, and the other two name p[i], which must be unused
                fixed, i, value = ((v // n2 == m // n2, m % n2, v % n2) if low
                                   else (v % N == m % N, m // N, v // N))
                if t == 3 or not fixed or value in p:
                    return False
                p[i] = value
                changed = True
        return True

    def extend(p: list):
        if dominated(p) or not settle(p) or dominated(p):
            return
        if -1 not in p:
            yield tuple(p)
            return
        i = p.index(-1)
        for v in range(n2):
            if v not in p:
                yield from extend(p[:i] + [v] + p[i + 1:])

    return list(extend([-1] * n2))


def _relabelings(N: int) -> list:
    """Each relabeling pi of the N symbols, the identity first, as (sigma, sigma^-1):
    sigma sends the point x + N y to pi[x] + N pi[y]."""
    out = []
    for pi in permutations(range(N)):
        sig = [pi[i % N] + N * pi[i // N] for i in range(N * N)]
        out.append((sig, sorted(range(N * N), key=sig.__getitem__)))
    return out


def _nondegenerate(p, N: int) -> bool:
    for x in range(N):
        if len({p[x + N * y] % N for y in range(N)}) != N:
            return False
    for y in range(N):
        if len({p[x + N * y] // N for x in range(N)}) != N:
            return False
    return True


def enumerate_permutation_solutions(N: int) -> PermEnumeration:
    """All permutation solutions on N^2 points, N = 2 or 3, in lexicographic order.

    Solutions are grouped under simultaneous relabeling (conjugation by
    P_pi (x) P_pi): the backtracking search lists only each orbit's least
    member (the classes), and the solutions are the union of their orbits.
    Flags mark non-degenerate and involutive solutions.
    """
    if N not in (2, 3):
        raise UnsupportedRank("permutation enumeration supports N = 2 and 3")
    n2 = N * N
    classes = _braid_solutions(N)
    solutions = sorted({tuple(sig[p[inv[i]]] for i in range(n2))
                        for p in classes for sig, inv in _relabelings(N)})
    flags = {p: {"nondegenerate": _nondegenerate(p, N),
                 "involutive": all(p[p[i]] == i for i in range(n2))}
             for p in solutions}
    return PermEnumeration(N=N, solutions=solutions, classes=classes, flags=flags)


def permutation_to_ybo(p, N: int) -> YBObject:
    return make_ybo(N, Matrix.permutation(list(p)), verify=True)
