"""Equivalence procedures: local invariants, p-equivalence certificates,
local witness search, the exact stabilizers of the charge-conserving targets
(the paper's inner equivalence), and the X-symmetry intertwiner checks.

Negative verdicts are only ever produced from dimension-zero intertwiner
spaces or exact invariant mismatches; failed random invertibility sampling
yields an inconclusive verdict, never a refutation.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import permutations, product
from math import prod

from .config import DEFAULT_TOL
from .core import (
    YBObject,
    _charge,
    _product_trace,
    _table,
    _times,
    _unit_rows,
    check_dim,
    is_additive_cc,
    is_charge_conserving,
    is_monomial,
    make_ybo,
    strip_to_permutation,
)
from .errors import (
    DimensionMismatch,
    NotChargeConserving,
    NotDiagonal,
    SizeCeiling,
    UnfactoredSpectrum,
    UnsupportedRank,
    YbxError,
)
from .scalars import Backend, format_scalar, one, to_complex, zero
from .spectral import _jordan_blocks, complexf_spectrum, eig_to_complex, spectrum
from .structure import (
    Rank1Result,
    _diagonal_rows,
    _satisfied,
    hom_verify,
    intertwiner_space,
    intertwiner_space_numeric,
    realign,
    _gauss_newton_starts,
    _morphism_candidates,
    _rank1_numeric,
)
from .tensor import Matrix, _decoded, _integral, kernel, swap_matrix

# -- local invariants ---------------------------------------------------------

# Most words flip_word_traces compares: there are 2^(L+1) - 2 of length <= L,
# so L <= 13; the words and their memoised prefix rows grow like 2^L
_FLIP_WORDS = 2 ** 14


def flip_word_traces(obj: YBObject, L: int = 4) -> dict:
    """Traces of all words of length <= L in the alphabet {R, P}, P the slot swap, in
    length order, from sparse rows on two slots: one per cyclic class (``_word_traces``)."""
    if L < 1:
        raise YbxError(f"L must be at least 1, got {L}: no word would be compared")
    if 2 ** min(L + 1, 64) - 2 > _FLIP_WORDS:
        raise SizeCeiling(f"2^{L + 1} - 2 words of length <= {L} exceed the ceiling {_FLIP_WORDS}")
    w = obj.slot_dim
    swap = YBObject(obj.N, obj.level, swap_matrix(w, w, obj.backend))
    letters = {1: obj._letters[1], 2: swap._letters[1]}
    plan = [(word, _cyclic_key(word), None, None)
            for length in range(1, L + 1) for word in product((1, 2), repeat=length)]
    return {"".join("RP"[e - 1] for e in word): t
            for word, t in _word_traces(letters, plan, obj.backend, w * w, {})}


def _word_traces(letters: dict, plan, backend: Backend, size: int, traces: dict,
                 below: tuple = (1, {})):
    """Yield (word, trace) for each word of a plan (``_trace_plan``) in turn,
    on a space of dimension size, the letters as ``core._Letters`` gives them
    (letter e -> (letter, d)), each key's trace kept in traces: read from its
    source (k, key'), w times below's (k = 1, below = (w, the traces on one
    strand fewer)) or traces' own (k = 0), else multiplied out from memoised
    prefix rows, each over its own denominator, times the last letter's
    diagonal (``core._product_trace``)."""
    prefixes = {(): (_unit_rows(size, backend), 1)}
    w, lower = below
    for word, key, _, source in plan:
        if key not in traces and source:
            k, other = source
            traces[key] = w * lower[other] if k else traces[other]
        elif key not in traces:
            for i in range(1, len(word)):
                if word[:i] not in prefixes:
                    rows, D = prefixes[word[:i - 1]]
                    step, d = letters[word[i - 1]]
                    prefixes[word[:i]] = (_times(rows, step), D * d)
            traces[key] = _product_trace(*prefixes[word[:-1]], letters[word[-1]], backend)
        yield word, traces[key]


def _cyclic_key(word) -> tuple:
    """The least rotation of the cyclically reduced word, -e the inverse of e:
    tr(uv) = tr(vu) and tr(g w g^-1) = tr(w), so one key means one trace."""
    while len(word) > 1 and word[0] == -word[-1]:
        word = word[1:-1]
    return min(word[i:] + word[:i] for i in range(len(word)))


@dataclass
class InvariantReport:
    size: int
    spectrum: list
    traces: dict
    jordan: list | None
    charge_conserving: bool   # this flag and the next describe R, not its class
    additive_cc: bool
    backend: Backend


def local_invariants(obj: YBObject, L: int = 4) -> InvariantReport:
    """Quantities invariant under R -> (Q (x) Q) R (Q (x) Q)^-1.

    The spectrum is computed once and the Jordan data from it.  An exact
    spectrum that does not factor gives the clustered complex spectrum and
    ``jordan=None``; a rank step that fails, on complex-f alone, gives ``jordan=None``."""
    try:
        spec = spectrum(obj.R)
    except UnfactoredSpectrum:
        # numeric fallback with clustering, so multiplicities stay comparable
        spec, jordan = complexf_spectrum(obj.R.promote_to(Backend.COMPLEX_F)), None
    else:
        try:
            jordan = _jordan_blocks(obj.R, spec)
        except UnfactoredSpectrum:
            jordan = None
    return InvariantReport(
        size=obj.R.rows,
        spectrum=spec,
        traces=flip_word_traces(obj, L),
        jordan=jordan,
        charge_conserving=is_charge_conserving(obj.R, obj.N),
        additive_cc=is_additive_cc(obj.R, obj.N),
        backend=obj.R.backend,
    )


def _spectra_match(a: list, b: list, tol: float) -> bool:
    if len(a) != len(b):
        return False
    used = [False] * len(b)
    for val, mult in a:
        z = eig_to_complex(val)
        for i, (w, m2) in enumerate(b):
            if not used[i] and m2 == mult and abs(z - eig_to_complex(w)) <= tol * max(1.0, abs(z)):
                used[i] = True
                break
        else:
            return False
    return True


def local_distinguish(A: YBObject, B: YBObject, L: int = 4,
                      tol: float | None = None):
    """Compare invariant reports; returns ("same", None) or ("distinguished", witness).

    "same" is inconclusive; "distinguished" certifies local inequivalence, so the
    charge-conservation flags, which a non-monomial Q can change, are not compared."""
    tol = DEFAULT_TOL if tol is None else tol
    ra, rb = local_invariants(A, L), local_invariants(B, L)
    if ra.size != rb.size:
        return ("distinguished", f"sizes {ra.size} vs {rb.size}")
    if not _spectra_match(ra.spectrum, rb.spectrum, tol):
        return ("distinguished", "spectrum multisets differ")
    if ra.jordan is not None and rb.jordan is not None:
        ja, jb = ([(v, tuple(blocks)) for v, blocks in r.jordan] for r in (ra, rb))
        if not _spectra_match(ja, jb, tol):
            return ("distinguished", "jordan block structures differ")
    scale = max(1.0, A.R.inf_norm(), B.R.inf_norm()) ** L
    exact = ra.backend.is_exact and rb.backend.is_exact
    for word, ta in ra.traces.items():
        tb = rb.traces[word]
        if (ta != tb) if exact else abs(to_complex(ta) - to_complex(tb)) > tol * scale:
            return ("distinguished", f"trace of flip word {word} differs")
    return ("same", None)


# -- local witness search -------------------------------------------------------

_WITNESS_STARTS = 128


def local_witness_search(A: YBObject, B: YBObject, strategy: str = "full",
                         seed: int = 0, tol: float | None = None):
    """Search for invertible Q with (Q (x) Q) R_A = R_B (Q (x) Q).

    Strategies: "diagonal", "monomial" (exact backends), "full" (the
    realignment route: Q (x) Q lies in the pencil {X : X R_A = R_B X}, and
    realigned it is vec(Q) vec(Q)^T).  On exact backends each strategy
    tries the candidates that ``end_search`` reads too
    (``structure._morphism_candidates``); on the complex backend "full" solves
    W^H vec(v v^T) = 0, det(vec^-1 v) = 1 by Gauss-Newton over the N^2
    entries of v, W spanning the complement of the realigned pencil, from
    128 seeded starts in lockstep blocks of 1, 1, 2, 4, ... (a stacked QR, or
    at N = 2 an SVD, per step) up to the block of the first verified Q.  A
    start runs at most 50 steps and leaves early once it converges or stalls
    at a stationary point that is not a zero (``structure._gauss_newton``).
    N^2 above the numeric ceiling raises ``SizeCeiling``.  Any returned Q is
    invertible and verified at `tol`; None means not found.
    """
    N = A.slot_dim
    if B.slot_dim != N:
        return None

    def _ok(Q: Matrix) -> bool:
        return Q.is_invertible() and hom_verify(Q, A, B, tol)

    if A.backend.is_exact and B.backend.is_exact:
        for candidates, _ in _morphism_candidates(A, B, strategy, seed):
            for Q in candidates:
                if _ok(Q):
                    return Q
        return None
    if strategy in ("diagonal", "monomial"):
        raise DimensionMismatch("diagonal/monomial witness search needs exact backends")
    if strategy != "full":
        raise ValueError(f"unknown strategy {strategy!r}")
    pencil = _realigned_pencil_numeric(A, B)
    if not pencil:
        return None
    for v, *_, converged in _gauss_newton_starts(pencil, seed, _WITNESS_STARTS, det_chart=True):
        Q = Matrix.from_numpy(v.reshape(N, N, order="F"))
        if converged and _ok(Q):
            return Q
    return None


def _realigned_pencil_numeric(A: YBObject, B: YBObject) -> list:
    """{X : X R_A = R_B X} on the complex backend, each X realigned.  Refused
    past the numeric ceiling on N^2, before any array is built: the search's
    Jacobians grow like N^4 and the det chart's cofactor terms like N! N."""
    if A.slot_dim ** 2 > _NUMERIC_CEILING:
        raise SizeCeiling(f"slot dimension {A.slot_dim ** 2} exceeds the solver ceiling at n=2")
    return [realign(X, A.slot_dim) for X in intertwiner_space_numeric(B, A)]


def _witness_rank1(A: YBObject, B: YBObject, seed: int) -> Rank1Result:
    """What the numeric "full" search sees, with every start run: the
    converged rays (det vec^-1 v = 1), how many of the 128 starts converged
    and how many stalled, and the smallest residual."""
    pencil = _realigned_pencil_numeric(A, B)
    if not pencil:
        return Rank1Result([], False)
    return _rank1_numeric(pencil, seed, _WITNESS_STARTS, det_chart=True)


# -- p-equivalence ----------------------------------------------------------------

_EXACT_CEILING = 32     # largest slot_dim ** n solved exactly
_NUMERIC_CEILING = 32   # largest slot_dim ** n solved on the complex backend
_TRACE_WORD_LEN = 3     # longest word whose traces p_equivalent compares


@dataclass
class PEquivCertificate:
    p: int
    verdict: str                      # "equivalent" | "not_equivalent" | "inconclusive_singular"
    failed_n: int | None = None
    witness: str | None = None
    dims: dict = field(default_factory=dict)
    bases: dict = field(default_factory=dict)         # n -> intertwiner-space basis
    intertwiners: dict = field(default_factory=dict)  # n -> exact invertible sample
    traces: dict = field(default_factory=dict)        # n -> [words compared, cyclic classes met]


@lru_cache(maxsize=4)   # n = 2..5: the ceilings at slot dimension 2 or more
def _trace_plan(n: int) -> tuple:
    """The freely reduced words of length 1..3 that p_equivalent compares on
    n strands, -e inverting e, each as (word, its ``_cyclic_key``, the count
    of keys so far, the key's source or None).  rho_n(u) = rho_(n-1)(u) (x) 1
    for u in B_(n-1) and its shift is 1 (x) rho_(n-1)(u), so a key without
    sigma_(n-1), or without sigma_1 shifted down, is w times one on n - 1
    strands, (1, key'); the half twist conjugates sigma_i to sigma_(n-i), so
    the image key' of an earlier key has its trace, (0, key').  Only the
    first key of each half-twist orbit that holds both sigma_1 and
    sigma_(n-1) is multiplied out (``_word_traces``)."""
    letters = [e for i in range(1, n) for e in (i, -i)]
    plan, met = [], set()
    for word in (word for length in range(1, _TRACE_WORD_LEN + 1)
                 for word in product(letters, repeat=length)
                 if all(a != -b for a, b in zip(word, word[1:]))):
        key, source = _cyclic_key(word), None
        if key not in met:
            image = _cyclic_key(tuple(-n - e if e < 0 else n - e for e in key))
            if max(map(abs, key)) < n - 1:
                source = (1, key)
            elif min(map(abs, key)) > 1:
                source = (1, tuple(e - 1 if e > 0 else e + 1 for e in key))
            elif image in met:
                source = (0, image)
        met.add(key)
        plan.append((word, key, len(met), source))
    return tuple(plan)


def p_equivalent(A: YBObject, B: YBObject, p: int, seed: int = 0,
                 tol: float | None = None) -> PEquivCertificate:
    """Decide simultaneous similarity of the braid representations up to n = p.

    For each n <= p: compare the traces of short words (an exact invariant, by
    ``_word_traces``), then solve the intertwiner space and sample five random
    combinations for invertibility (``_invertible_sample``).  All-singular
    sampling yields "inconclusive_singular".  The spaces are solved as the
    commutant tower: the basis at n - 1 is carried to n, where only
    sigma_(n-1)'s equations are solved on it (``intertwiner_space``).
    """
    if p < 2:
        raise YbxError(f"p must be at least 2, got {p}: n = 2 is the first braid group compared")
    tol = DEFAULT_TOL if tol is None else tol
    cert = PEquivCertificate(p=p, verdict="equivalent")
    if A.slot_dim != B.slot_dim:
        return PEquivCertificate(p=p, verdict="not_equivalent", failed_n=1,
                                 witness=f"slot dimensions {A.slot_dim} vs {B.slot_dim}")
    exact = A.R.backend.is_exact and B.R.backend.is_exact
    rng = random.Random(seed)
    scale = max(1.0, A.R.inf_norm(), B.R.inf_norm()) ** _TRACE_WORD_LEN
    traces = ({}, {})
    for n in range(2, p + 1):
        size = A.slot_dim ** n
        if size > (_EXACT_CEILING if exact else _NUMERIC_CEILING):
            raise SizeCeiling(f"slot dimension {size} exceeds the solver ceiling at n={n}")
        plan, below, traces = _trace_plan(n), traces, ({}, {})
        streams = [_word_traces(obj._letters, plan, obj.backend, size, mine, (A.slot_dim, lower))
                   for obj, mine, lower in zip((A, B), traces, below)]
        for count, ((_, _, classes, _), (word, ta), (_, tb)) in enumerate(zip(plan, *streams), 1):
            cert.traces[n] = [count, classes]
            if (ta != tb) if exact else abs(to_complex(ta) - to_complex(tb)) > tol * scale:
                return replace(cert, verdict="not_equivalent", failed_n=n,
                               witness=f"trace of word {list(word)} differs "
                                       f"({format_scalar(ta)} vs {format_scalar(tb)})")
        below = cert.bases.get(n - 1)
        basis = (intertwiner_space(A, B, n, below) if exact
                 else intertwiner_space_numeric(A, B, n, tol, below))
        cert.dims[n] = len(basis)
        cert.bases[n] = basis
        if not basis:
            return replace(cert, verdict="not_equivalent", failed_n=n,
                           witness="intertwiner space is zero")
        found = _invertible_sample(basis, rng, 100 * size)
        if found is None:
            return replace(cert, verdict="inconclusive_singular", failed_n=n,
                           witness="no invertible intertwiner found by sampling")
        cert.intertwiners[n] = found
    return cert


def _invertible_sample(basis: list, rng: random.Random, bound: int):
    """The first of five random combinations of the basis, with integer
    coefficients in [-bound, bound], that is invertible, or None.

    det T is a polynomial of degree m = T.rows in the coefficients, so when
    some combination is invertible a draw is singular with probability at
    most m / (2 bound + 1) (Schwartz-Zippel).  Each draw is one pass over the
    basis elements' nonzero entries, on exact backends on integer rows over
    one denominator D (``tensor._integral``), decoded over D (``tensor._decoded``).
    """
    first, backend = basis[0], basis[0].backend
    cols, z = first.cols, zero(backend)
    cells = [{r * cols + c: v for r, row in enumerate(M.data) for c, v in enumerate(row) if v}
             for M in basis]
    gauss = backend is Backend.EXACT_QI
    if backend.is_exact:
        cells, D = _integral(cells, gauss)
    for _ in range(5):
        acc = {}
        for nonzeros in cells:
            coeff = rng.randint(-bound, bound)
            if coeff:
                for k, v in nonzeros.items():
                    acc[k] = acc.get(k, 0) + coeff * v
        if backend.is_exact:
            (acc,) = _decoded([acc], D, gauss)
        data = [[z] * cols for _ in range(first.rows)]
        for k, v in acc.items():
            data[k // cols][k % cols] = v
        T = Matrix(first.rows, cols, backend, data)
        if T.is_invertible():
            return T
    return None


# -- the restricted targets' stabilizers --------------------------------------------


def _pair_action(N: int) -> dict:
    """D_X = X (x) 1 + 1 (x) X in ``kron``'s order: {(row, col): {a + N b: X[a][b]'s coeff}}."""
    D = defaultdict(Counter)
    for a, b, j in product(range(N), repeat=3):
        D[a + N * j, b + N * j][a + N * b] += 1
        D[j + N * a, j + N * b][a + N * b] += 1
    return D


def target_stabilizer(N: int, additive: bool = False) -> tuple:
    """The stabilizer G of the span V of the charge-conserving matrices on two
    slots (additive with `additive`) under conjugation by Q (x) Q, as (an exact
    basis of Lie(G), N x N; the sorted permutations pi, tuples of images, whose
    P_pi (x) P_pi keeps V's charge pattern).

    Lie(G) = {X : [D_X, E] in V for each unit E spanning V} (``_pair_action``),
    that is D_X in V: [D_X, E_rc] holds D_X's column r and row c, r and c of
    one charge.  Checked to be the diagonal (else YbxError), it makes the
    diagonal torus T the identity component of G, which G normalizes: G lies
    in N(T) = T x| S_N, the monomial matrices (Borel, Linear Algebraic Groups,
    IV.13).  As (D (x) D) E_rc (D (x) D)^-1 = (d_r / d_c) E_rc, T lies in G and
    G = T x| {those P_pi}.  N > 6 is refused (UnsupportedRank) before N! tries."""
    if N > 6:
        raise UnsupportedRank(f"target_stabilizer tries N! permutations; N = {N} exceeds 6")
    n2 = N * N
    charge = [_charge(k, N, 2, additive) for k in range(n2)]
    rows = [form for (s, t), form in _pair_action(N).items() if charge[s] != charge[t]]
    lie = kernel(rows, n2, Backend.EXACT_Q)
    if lie != [[int(k == a * (N + 1)) for k in range(n2)] for a in range(N)]:
        raise YbxError(f"Lie algebra of the rank-{N} target's stabilizer is not the diagonal")
    cells = [(r, c) for r, c in product(range(n2), repeat=2) if charge[r] == charge[c]]
    perms = [p for p in permutations(range(N))
             if all(charge[p[r % N] + N * p[r // N]] == charge[p[c % N] + N * p[c // N]]
                    for r, c in cells)]
    return [Matrix(N, N, Backend.EXACT_Q, [v[a::N] for a in range(N)]) for v in lie], perms


def match_stabilizer_check(Q: Matrix, additive: bool = False) -> bool:
    """Whether Q lies in the stabilizer of the (additive) Match target: Q is
    monomial and its permutation is one of ``target_stabilizer``'s."""
    if not is_monomial(Q):
        return False
    image = tuple(row.index(one(Q.backend)) for row in strip_to_permutation(Q)[1].data)
    return image in target_stabilizer(Q.rows, additive)[1]


def weighted_flip(N: int, diagonal_weights, off_weight=None,
                  backend: Backend = Backend.EXACT_Q) -> Matrix:
    """Generalised flip S|ij> = c_ij |ji>; always a Yang-Baxter solution."""
    off = one(backend) if off_weight is None else off_weight
    out = Matrix.zeros(N * N, N * N, backend)
    for i, j in product(range(N), repeat=2):
        out.data[j + N * i][i + N * j] = diagonal_weights[i] if i == j else off
    return out


# -- X-symmetry -----------------------------------------------------------------


@dataclass
class XSymmetryReport:
    ok: bool
    per_n: dict
    method: str
    certificates: dict


def x_symmetry_check(obj: YBObject, X: Matrix, n_max: int,
                     tol: float | None = None) -> XSymmetryReport:
    """Verify that conjugation by a diagonal X on a cc solution lifts to all
    braid representations via diagonal intertwiners A_n, for n <= n_max.

    With x(a, b) X's entry at the pair |ab> (index a + N b), A_n = diag(d_w)
    over the words w on n strands, d_w the product of x(w_p, w_q) / x(w_q, w_p)
    over the positions p < q with w_p < w_q.  A charge-conserving R links a
    word only to itself and to that word with one adjacent pair ab swapped,
    and S = X R X^-1 scales that entry by x(a, b) / x(b, a), the very factor
    by which the swap changes d: so A_n rho_R = rho_S A_n, at every rank N
    and on every backend.  d is 1 on the least word of each charge sector.
    Every A_n is checked against the diagonal intertwining rows
    (``structure._diagonal_rows``) on S's backend, R promoted to it.
    """
    if n_max < 2:
        raise YbxError(f"n_max must be at least 2, got {n_max}: n = 2 is the first braid group")
    N = obj.N
    if obj.level != 1:
        raise DimensionMismatch("X-symmetry check is defined at level 1")
    if not is_charge_conserving(obj.R, N):
        raise NotChargeConserving("R must be charge conserving")
    n2 = N * N
    if X.rows != n2 or X.cols != n2:
        raise DimensionMismatch("X must act on one pair of slots")
    for r in range(n2):
        for c in range(n2):
            if r != c and X.data[r][c]:
                raise NotDiagonal("X must be diagonal")
        if not X.data[r][r]:
            raise NotDiagonal("X must be invertible")
    check_dim(N, n_max, f"X-symmetry on {n_max} strands")
    S_mat = X.mul(obj.R).mul(X.inverse())
    if not is_charge_conserving(S_mat, N):
        raise NotChargeConserving("X R X^-1 lost charge conservation")
    S = make_ybo(N, S_mat, verify=True, tol=tol)

    backend = S.backend
    x = [row[k] for k, row in enumerate(X.promote_to(backend).data)]
    ratio = [[x[a + N * b] / x[b + N * a] for b in range(N)] for a in range(N)]
    tables = _table(S.R), _table(obj.R.promote_to(backend))
    words, diag = [(c,) for c in range(N)], [one(backend)] * N
    per_n, certs = {}, {}
    for n in range(2, n_max + 1):
        diag = [prod((ratio[a][c] for a in word if a < c), start=v)
                for c in range(N) for v, word in zip(diag, words)]
        words = [word + (c,) for c in range(N) for word in words]
        per_n[n] = _satisfied(_diagonal_rows(*tables, N, n), diag, backend.is_exact, tol)
        certs[n] = diag
    return XSymmetryReport(ok=all(per_n.values()), per_n=per_n, method="closed-form",
                           certificates=certs)
