"""search: numeric search on the complex-f backend.

numpy SVD loops and Python overhead in ybx.structure do the work here; the
exact kernels are idle.  Inputs: seven seeded twinned pairs
(A, (Q (x) Q) A (Q (x) Q)^-1) with A the group-type family at a seeded
binding and Q a seeded complex matrix (positive controls: a witness is due,
and the pair is 3-equivalent); the fixed 9x9 unitary pair built from a
primitive 12th root of unity, for which the search returns None, with its
numeric invariants and Jordan data (checked against
data/gaussian-pair-invariants.json) and its 2-equivalence; and the unitary
Ising solution against the case-a solution at the eighth root of unity and
against itself.  One fixed twinned pair of the a-glue family, on which the
search misses the witness today, is counted as a failed operation.

The searches on the seeded pairs take 2-3x longer on some seeds than on
others.  The fifteen numeric p_equivalent calls at p = 3 (each twinned pair
both ways, and the Ising solution against itself; 14-20 ms each, at a cost
that does not depend on the values) have nine shorter calls below them and
ten searches above, so the median call of a pass is one of them.  A pass
takes about as long as a 20 s run, so most runs time each call once, and
the median is then taken over many like calls.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np

import oracle
from harness import Op, OperationFailed
from oracle import expect

TOL = 1e-9
ARCHIVE = Path(__file__).resolve().parent.parent / "data" / "gaussian-pair-invariants.json"
# The group-type family is the one whose twinned pairs the search solved on
# every seed tried (880 pairs) in a steady time (0.3-0.9 s); the f-type,
# a-glue and eight-vertex families miss a witness on some seeds (see
# CHANGES.md), and the slash families' search time varies sixfold.
TWIN_FAMILIES = (("grouptype:single-g", "abd"),) * 7
VALUES = (F(2), F(3), F(-2), F(1, 2), F(-3, 2), F(2, 3), F(3, 4), F(5, 4))
SEARCH_SEED = 5
# A fixed twinned pair (not drawn from --seed) on which the search misses the
# witness that exists by construction: it returns None after about 12 s.
# Counted as a failed operation on every run until the search is fixed.
MISSED_FAMILY = ("hietarinta:a-glue", "pqk")
MISSED_SEED = 0


def gaussian_pair():
    """The 9x9 unitary pair built from a primitive 12th root of unity."""
    a = complex((3 ** 0.5) / 2, 0.5)
    x = -(1 + a * a) / 3
    y = x + 1
    z = -(x + y)
    R = [[x, 0, 0, 0, y, 0, 0, 0, y],
         [0, x, 0, 0, 0, x, z, 0, 0],
         [0, 0, x, z, 0, 0, 0, x, 0],
         [0, 0, x, x, 0, 0, 0, z, 0],
         [y, 0, 0, 0, x, 0, 0, 0, y],
         [0, z, 0, 0, 0, x, x, 0, 0],
         [0, x, 0, 0, 0, z, x, 0, 0],
         [0, 0, z, x, 0, 0, 0, x, 0],
         [y, 0, 0, 0, y, 0, 0, 0, x]]
    S = [[x, 0, 0, y, 0, 0, y, 0, 0],
         [0, x, 0, 0, x, 0, 0, z, 0],
         [0, 0, x, 0, 0, z, 0, 0, x],
         [y, 0, 0, x, 0, 0, y, 0, 0],
         [0, z, 0, 0, x, 0, 0, x, 0],
         [0, 0, x, 0, 0, x, 0, 0, z],
         [y, 0, 0, y, 0, 0, x, 0, 0],
         [0, x, 0, 0, z, 0, 0, x, 0],
         [0, 0, z, 0, 0, x, 0, 0, x]]
    return np.array(R, dtype=complex), np.array(S, dtype=complex)


def ising_unitary():
    return np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1, 1, 0], [-1, 0, 0, 1]],
                    dtype=complex) * 2 ** -0.5


def case_a(alpha, beta):
    return np.array([[alpha, 0, 0, 0], [0, alpha + beta, -beta, 0],
                     [0, alpha, 0, 0], [0, 0, 0, beta]], dtype=complex)


def _complex_obj(ybx, N, R):
    return ybx.make_ybo(N, ybx.Matrix.from_numpy(R), tol=TOL)


def _twinned_pair(ybx, rng, fid, params):
    """(A, (Q (x) Q) A (Q (x) Q)^-1) for the family at a binding drawn from
    VALUES and a complex Gaussian Q with condition number below 10."""
    while True:
        try:
            obj = ybx.catalog_get(fid, ybx.ParamBinding(
                {name: rng.choice(VALUES) for name in params}))
            break
        except ybx.YbxError:      # a constraint vanished: draw again
            continue
    RA = oracle.to_numpy(obj.R)
    while True:
        Q = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
                      for _ in range(2)])
        if np.linalg.cond(Q) < 10:
            break
    QQ = oracle.ab_kron(Q, Q)
    RB = QQ @ RA @ np.linalg.inv(QQ)
    return _complex_obj(ybx, 2, RA), _complex_obj(ybx, 2, RB)


def setup(ybx, seed: int) -> dict:
    rng = random.Random(seed)
    twins = [(f"{fid}#{i}", *_twinned_pair(ybx, rng, fid, params))
             for i, (fid, params) in enumerate(TWIN_FAMILIES)]
    R, S = gaussian_pair()
    zeta8 = complex(2 ** -0.5, 2 ** -0.5)
    return {
        "twins": twins,
        "missed": _twinned_pair(ybx, random.Random(MISSED_SEED), *MISSED_FAMILY),
        "gaussian": (_complex_obj(ybx, 3, R), _complex_obj(ybx, 3, S)),
        "ising": _complex_obj(ybx, 2, ising_unitary()),
        "case_a": _complex_obj(ybx, 2, case_a(zeta8, 1 / zeta8)),
        "word": ybx.BraidWord.of(3, [1, -2]),
        "archived": json.loads(ARCHIVE.read_text()),
    }


def check_witness(A, B, Q):
    expect(Q is not None, "no witness returned for a twinned pair")
    q = oracle.to_numpy(Q)
    s = np.linalg.svd(q, compute_uv=False)
    expect(s[-1] > 1e-9 * s[0], "witness is singular")
    RA, RB = oracle.to_numpy(A.R), oracle.to_numpy(B.R)
    QQ = oracle.ab_kron(q, q)
    scale = max(1.0, float(np.max(np.abs(QQ @ RA))), float(np.max(np.abs(RB @ QQ))))
    expect(oracle.np_intertwining_residual(q, RA, RB) <= TOL * scale,
           "witness fails (Q (x) Q) R_A = R_B (Q (x) Q)")


def check_missed_witness(A, B):
    def check(Q):
        if Q is None:
            raise OperationFailed("no witness returned for a twinned pair, "
                                  "where one exists by construction")
        check_witness(A, B, Q)
    return check


def check_trace(obj, word, want):
    def check(M):
        ref = oracle.np_rho(oracle.to_numpy(obj.R), 2, 3, word.letters)
        expect(oracle.np_close(oracle.to_numpy(M), ref), "rho differs from the numpy product")
        expect(abs(np.trace(ref) - want) < TOL and abs(oracle.as_complex(M.trace()) - want) < TOL,
               f"trace of rho(s1 s2^-1) is not {want}")
    return check


def _match(computed, archived, tol=1e-6):
    """Computed (value, data) pairs against archived [re, im, data] rows."""
    expect(len(computed) == len(archived), "wrong number of eigenvalues")
    rows = list(archived)
    for value, data in computed:
        z = oracle.as_complex(value)
        for row in rows:
            if abs(z - complex(row[0], row[1])) < tol and row[2] == data:
                rows.remove(row)
                break
        else:
            raise oracle.WrongOutput(f"eigenvalue {z} with {data} is not in the archive")


def check_invariants(archived):
    def check(rep):
        expect(rep.size == archived["size"], "size differs from the archive")
        _match(rep.spectrum, archived["spectrum"])
        _match([(v, list(b)) for v, b in rep.jordan], archived["jordan"])
        expect((rep.charge_conserving, rep.additive_cc) ==
               (archived["charge_conserving"], archived["additive_cc"]),
               "charge-conservation flags differ from the archive")
        for word, (re, im) in archived["traces"].items():
            expect(abs(oracle.as_complex(rep.traces[word]) - complex(re, im)) < 1e-6,
                   f"trace of flip word {word} differs from the archive")
    return check


def check_equivalent(A, B, p):
    """Equivalent up to p, each intertwiner invertible with T B_i = A_i T
    for the numpy generator images."""
    def check(cert):
        expect(cert.verdict == "equivalent" and sorted(cert.intertwiners) == list(range(2, p + 1)),
               f"verdict {cert.verdict}, want equivalent")
        RA, RB = oracle.to_numpy(A.R), oracle.to_numpy(B.R)
        for n, T in cert.intertwiners.items():
            T = oracle.to_numpy(T)
            s = np.linalg.svd(T, compute_uv=False)
            expect(s[-1] > 1e-9 * s[0], f"intertwiner at n={n} is singular")
            for i in range(1, n):
                gA = oracle.np_generator(RA, A.slot_dim, n, i)
                gB = oracle.np_generator(RB, B.slot_dim, n, i)
                scale = max(1.0, float(np.max(np.abs(T @ gB))))
                expect(float(np.max(np.abs(T @ gB - gA @ T))) <= 1e-6 * scale,
                       f"intertwiner at n={n} fails T B_{i} = A_{i} T")
    return check


def check_not_equivalent_at_3(cert):
    expect(cert.verdict == "not_equivalent" and cert.failed_n == 3,
           f"verdict {cert.verdict} at n={cert.failed_n}, want not_equivalent at n=3")


def ops(ybx, inputs: dict) -> list:
    out = []
    for fid, A, B in inputs["twins"]:
        out.append(Op(f"local_witness_search/full/{fid}~twin",
                      lambda A=A, B=B: ybx.local_witness_search(A, B, strategy="full",
                                                                seed=SEARCH_SEED),
                      lambda Q, A=A, B=B: check_witness(A, B, Q)))
        for pair, X, Y in (("twin", A, B), ("twin-reversed", B, A)):
            out.append(Op(f"p_equivalent/{fid}~{pair}",
                          lambda X=X, Y=Y: ybx.p_equivalent(X, Y, 3),
                          check_equivalent(X, Y, 3)))
    A, B = inputs["missed"]
    out.append(Op("local_witness_search/full/hietarinta:a-glue~twin(fixed)",
                  lambda: ybx.local_witness_search(A, B, strategy="full", seed=SEARCH_SEED),
                  check_missed_witness(A, B)))
    R, S = inputs["gaussian"]

    def check_none(Q):
        expect(Q is None, "a witness was returned for the 9x9 pair")

    out.append(Op("local_witness_search/full/gaussian-pair",
                  lambda: ybx.local_witness_search(R, S, strategy="full", seed=SEARCH_SEED),
                  check_none))
    archived = inputs["archived"]
    for name, obj in (("R", R), ("S", S)):
        a = archived[name]
        out.append(Op(f"local_invariants/gaussian-{name}",
                      lambda obj=obj: ybx.local_invariants(obj, 4), check_invariants(a)))
        out.append(Op(f"jordan_structure/gaussian-{name}",
                      lambda obj=obj: ybx.jordan_structure(obj.R),
                      lambda j, a=a: _match([(v, list(b)) for v, b in j], a["jordan"])))

    def check_same(result):
        expect(result == ("same", None), f"local_distinguish gave {result}, want same")

    out.append(Op("local_distinguish/gaussian-pair",
                  lambda: ybx.local_distinguish(R, S, 4), check_same))
    out.append(Op("p_equivalent/gaussian-pair/p=2", lambda: ybx.p_equivalent(R, S, 2),
                  check_equivalent(R, S, 2)))
    ising, fa, word = inputs["ising"], inputs["case_a"], inputs["word"]
    out.append(Op("rho/ising", lambda: ybx.rho(ising, word), check_trace(ising, word, 4)))
    out.append(Op("rho/case-a", lambda: ybx.rho(fa, word), check_trace(fa, word, 6)))
    out.append(Op("p_equivalent/ising~case-a", lambda: ybx.p_equivalent(ising, fa, 3),
                  check_not_equivalent_at_3))
    # Positive controls on the Ising solution against itself.
    out.append(Op("p_equivalent/ising~ising", lambda: ybx.p_equivalent(ising, ising, 3),
                  check_equivalent(ising, ising, 3)))
    out.append(Op("local_witness_search/full/ising~ising",
                  lambda: ybx.local_witness_search(ising, ising, strategy="full",
                                                   seed=SEARCH_SEED),
                  lambda Q: check_witness(ising, ising, Q)))
    return out
