"""decide: exact decision procedures.

The same tensor layer as `represent`, but reached through elimination
(nullspaces of pencils and intertwiner systems) rather than multiplication,
so a change that helps one use and hurts the other shows.  Inputs, all from
the seed: six rank-2 catalog families at small rational bindings; for each,
the pair (A, (Q (x) Q) A (Q (x) Q)^-1) with rational Q; pairs of families
whose spectra differ; diagonal and permutation-times-diagonal Q for the exact
witness search; and a diagonal X for the X-symmetry check.  Seeded values
are fixed magnitudes in a seeded order with seeded signs, so that the cost
of exact arithmetic varies little from seed to seed.
"""

from __future__ import annotations

import cmath
import random
from fractions import Fraction as F

import numpy as np

import oracle
from harness import Op, signed_arrangement
from oracle import expect

MAGNITUDES = (F(2), F(3), F(1, 2), F(3, 2), F(2, 3))
Q_MAGNITUDES = (F(1), F(2), F(1, 2), F(3))

# Jordan templates, transcribed from the classification the catalog follows:
# (eigenvalue, block sizes) at a binding.
TEMPLATES = {
    "hietarinta:a": lambda v: [(v["k"] ** 2, [1, 1]), (-v["p"] * v["q"], [1, 1])],
    "hietarinta:f": lambda v: [(v["k"] ** 2, [1, 1, 1]), (-v["p"] * v["q"], [1])],
    "hietarinta:slash": lambda v: [(v["k"], [1]), (v["s"], [1]),
                                   (cmath.sqrt(v["p"] * v["q"]), [1]),
                                   (-cmath.sqrt(v["p"] * v["q"]), [1])],
    "hietarinta:slash-glue-2": lambda v: [(v["k"], [3]), (-v["k"], [1])],
    "hietarinta:slash-glue-3": lambda v: [(v["k"] ** 2, [1, 1, 1]), (-v["k"] ** 2, [1])],
    "hietarinta:eight-vertex": lambda v: [(2 * v["p"] ** 2, [1, 1]), (-2 * v["q"] ** 2, [1, 1])],
}

# Where a template holds only off a subvariety the catalog does not exclude:
# slash-glue-2 has one 3-block for k only when k (p + q)^2 != 0.
GENERIC = {"hietarinta:slash-glue-2": lambda v: v["p"] + v["q"] != 0}

PARAMS = {
    "hietarinta:a": "kpq", "hietarinta:f": "kpq", "hietarinta:slash": "kqps",
    "hietarinta:slash-glue-2": "kqps", "hietarinta:slash-glue-3": "kpq",
    "hietarinta:eight-vertex": "pq",
}

# The commutant strategy is timed on every family but the eight-vertex one,
# whose commutant search cost varies threefold with the binding.
COMMUTANT_FAMILIES = ("hietarinta:a", "hietarinta:f", "hietarinta:slash",
                      "hietarinta:slash-glue-2", "hietarinta:slash-glue-3")
DISTINCT_PAIRS = (("hietarinta:a", "hietarinta:f"), ("hietarinta:slash", "hietarinta:eight-vertex"),
                  ("hietarinta:slash-glue-2", "hietarinta:slash-glue-3"),
                  ("hietarinta:f", "hietarinta:slash"))
WITNESS_FAMILIES = ("hietarinta:a", "hietarinta:slash")
P_MAX = 3           # the exact solver's ceiling for rank 2
X_SYMMETRY_N = 5


def _distinct(values) -> bool:
    zs = [complex(v) for v in values]
    return all(abs(a - b) > 1e-9 for i, a in enumerate(zs) for b in zs[i + 1:])


def _draw_family(ybx, rng, fid):
    """A binding where the template holds and its eigenvalues are pairwise
    distinct (so that blocks do not merge), and the instantiated object."""
    while True:
        values = signed_arrangement(rng, PARAMS[fid], MAGNITUDES)
        if not _distinct(v for v, _ in TEMPLATES[fid](values)) or \
                not GENERIC.get(fid, lambda v: True)(values):
            continue
        try:
            return values, ybx.catalog_get(fid, ybx.ParamBinding(values))
        except ybx.YbxError:      # a constraint vanished: draw again
            continue


def _draw_invertible(rng):
    while True:
        v = signed_arrangement(rng, "abcd", Q_MAGNITUDES)
        Q = [[v["a"], v["b"]], [v["c"], v["d"]]]
        if oracle.rank(Q) == 2:
            return Q


def _twin(ybx, obj, Q):
    R = oracle.conjugate_by_square(Q, obj.R.data)
    return ybx.make_ybo(obj.N, ybx.Matrix.from_rows(R))


def _spectrum_np(obj):
    return np.sort_complex(np.linalg.eigvals(oracle.to_numpy(obj.R)))


def setup(ybx, seed: int) -> dict:
    rng = random.Random(seed)
    z = F(0)
    fams = {fid: _draw_family(ybx, rng, fid) for fid in TEMPLATES}
    equivalent = [(fid, A, _twin(ybx, A, _draw_invertible(rng)))
                  for fid, (_, A) in fams.items()]
    distinct = []
    for fa, fb in DISTINCT_PAIRS:
        A, B = fams[fa][1], fams[fb][1]
        while np.allclose(_spectrum_np(A), _spectrum_np(B), atol=1e-9):
            B = _draw_family(ybx, rng, fb)[1]
        distinct.append((f"{fa}~{fb}", A, B))
    witness = []
    for fid in WITNESS_FAMILIES:
        A = fams[fid][1]
        d = signed_arrangement(rng, "abcd", Q_MAGNITUDES[1:] + (F(3, 2),))
        D = [[d["a"], z], [z, d["b"]]]
        swap_d = [[z, d["c"]], [d["d"], z]]
        witness.append((fid, "diagonal", A, _twin(ybx, A, D)))
        witness.append((fid, "monomial", A, _twin(ybx, A, swap_d)))
    while True:
        values = signed_arrangement(rng, ("alpha", "beta", "gamma", "chi"), MAGNITUDES)
        try:
            fslash = ybx.catalog_get("match2:F/", ybx.ParamBinding(values))
            break
        except ybx.YbxError:
            continue
    X = list(signed_arrangement(rng, "abcd", MAGNITUDES).values())
    return {"families": fams, "equivalent": equivalent, "distinct": distinct,
            "witness": witness, "x_symmetry": (fslash, X, ybx.Matrix.diagonal(X))}


# -- checkers ---------------------------------------------------------------------


def check_intertwiners(A, B, cert, p=P_MAX):
    """Each T in the certificate is exactly invertible and T B_i = A_i T."""
    expect(cert.verdict == "equivalent", f"verdict {cert.verdict}, want equivalent")
    expect(sorted(cert.intertwiners) == list(range(2, p + 1)), "missing intertwiners")
    for n, T in cert.intertwiners.items():
        T = T.data
        expect(oracle.rank(T) == len(T), f"intertwiner at n={n} is singular")
        for i in range(1, n):
            gA = oracle.generator(A.R.data, A.slot_dim, n, i)
            gB = oracle.generator(B.R.data, B.slot_dim, n, i)
            expect(oracle.matmul(T, gB) == oracle.matmul(gA, T),
                   f"intertwiner at n={n} fails T B_{i} = A_{i} T")


def check_not_equivalent(cert):
    expect(cert.verdict == "not_equivalent" and cert.failed_n is not None,
           f"verdict {cert.verdict}, want not_equivalent")


def check_endomorphisms(obj, result):
    R = obj.R.data
    expect(len(result.elements) >= 2, "identity and zero missing")
    for e in result.elements:
        AA = oracle.kron(e.A.data, e.A.data)
        expect(oracle.matmul(AA, R) == oracle.matmul(R, AA),
               "returned endomorphism fails (A (x) A) R = R (A (x) A)")
        expect(e.rank == oracle.rank(e.A.data), "reported rank is wrong")


def check_jordan(expected, computed):
    used = [False] * len(computed)
    expect(len(computed) == len(expected), "wrong number of eigenvalues")
    for value, blocks in expected:
        z = complex(value)
        for i, (got, got_blocks) in enumerate(computed):
            if not used[i] and list(got_blocks) == blocks and \
                    abs(oracle.as_complex(got) - z) <= 1e-9 * max(1.0, abs(z)):
                used[i] = True
                break
        else:
            raise oracle.WrongOutput(f"no computed Jordan data for {z} with blocks {blocks}")


def check_spectrum(expected, computed):
    check_jordan([(v, [sum(b)]) for v, b in expected], [(v, [m]) for v, m in computed])


def check_witness(A, B, Q):
    expect(Q is not None, "no witness returned for a conjugate pair")
    Q = Q.data
    expect(oracle.rank(Q) == len(Q), "witness is singular")
    QQ = oracle.kron(Q, Q)
    expect(oracle.matmul(QQ, A.R.data) == oracle.matmul(B.R.data, QQ),
           "witness fails (Q (x) Q) R_A = R_B (Q (x) Q)")


def check_x_symmetry(obj, X, n_max, report):
    expect(report.ok and sorted(report.per_n) == list(range(2, n_max + 1)),
           "X-symmetry check did not pass for every n")
    Xm = [[X[r] if r == c else F(0) for c in range(4)] for r in range(4)]
    S = oracle.matmul(oracle.matmul(Xm, obj.R.data), oracle.invert(Xm))
    for n, diag in report.certificates.items():
        for i in range(1, n):
            gR = oracle.generator(obj.R.data, 2, n, i)
            gS = oracle.generator(S, 2, n, i)
            for r, row in enumerate(gR):
                for c, v in enumerate(row):
                    expect(diag[r] * v == gS[r][c] * diag[c],
                           f"diagonal intertwiner fails at n={n}, generator {i}")


def _same_cert(a, b):
    return (a.verdict, a.failed_n, a.dims) == (b.verdict, b.failed_n, b.dims) and \
        all(a.intertwiners[n].data == b.intertwiners[n].data for n in a.intertwiners)


def ops(ybx, inputs: dict) -> list:
    out = []
    for fid, A, B in inputs["equivalent"]:
        out.append(Op(f"p_equivalent/{fid}~twin",
                      lambda A=A, B=B: ybx.p_equivalent(A, B, P_MAX),
                      lambda c, A=A, B=B: check_intertwiners(A, B, c), _same_cert))
    for name, A, B in inputs["distinct"]:
        out.append(Op(f"p_equivalent/{name}", lambda A=A, B=B: ybx.p_equivalent(A, B, P_MAX),
                      check_not_equivalent, _same_cert))
    for fid, (values, obj) in inputs["families"].items():
        expected = TEMPLATES[fid](values)
        out.append(Op(f"spectrum/{fid}", lambda obj=obj: ybx.spectrum(obj.R),
                      lambda s, e=expected: check_spectrum(e, s)))
        out.append(Op(f"jordan_structure/{fid}", lambda obj=obj: ybx.jordan_structure(obj.R),
                      lambda j, e=expected: check_jordan(e, j)))
        for strategy in ("diagonal", "monomial", "commutant"):
            if strategy == "commutant" and fid not in COMMUTANT_FAMILIES:
                continue
            out.append(Op(f"end_search/{strategy}/{fid}",
                          lambda obj=obj, s=strategy: ybx.end_search(obj, s),
                          lambda r, obj=obj: check_endomorphisms(obj, r)))
    for fid, strategy, A, B in inputs["witness"]:
        out.append(Op(f"local_witness_search/{strategy}/{fid}",
                      lambda A=A, B=B, s=strategy: ybx.local_witness_search(A, B, strategy=s),
                      lambda Q, A=A, B=B: check_witness(A, B, Q)))
    fslash, X, Xm = inputs["x_symmetry"]
    out.append(Op("x_symmetry_check/match2:F/",
                  lambda: ybx.x_symmetry_check(fslash, Xm, X_SYMMETRY_N),
                  lambda r: check_x_symmetry(fslash, X, X_SYMMETRY_N, r)))
    return out
