"""Frozen behaviour of the morphism searches and of p-equivalence.

The inputs are the 14 exact rank-2 catalog entries at the bindings
``sample_entry_binding(e, 100)`` and ``(e, 101)``.  The SHA-256 digests pin,
byte for byte, what the implementation returned when they were taken:

* ``end_search`` with every strategy: elements in order, ranks, ``complete``;
* ``local_witness_search`` (diagonal, monomial, full) against a diagonal and
  an anti-diagonal twin (Q (x) Q) R (Q (x) Q)^-1 of each object;
* ``p_equivalent(p=3)`` against both twins and between catalog neighbours at
  the same seed: verdict, ``failed_n``, witness string and dimensions.

The sampled intertwiners are not pinned; each is checked to be invertible
and to intertwine the dense generator images exactly.

A fourth digest pins ``x_symmetry_check`` reports (ok, per_n, method,
certificates) for weighted flips at N = 3, seeds 0-5, n_max = 5, whose
diagonal intertwiners come from the closed form and equal, byte for byte, the
exact kernel's scaled to 1 on each sector's least word; each certificate is
also checked against dense generator images.

A fifth pins the exact bases of ``intertwiner_space`` at n = 2, 3 and 4,
the commutant tower above n = 2, from each seed-100 object to itself and
to a twin by a Gaussian Q: entries and scale, over Q and over Q(i).
"""

import hashlib
import random
from fractions import Fraction

from conftest import sampled_catalog_object
from ybx.catalog import catalog_ids
from ybx.constructions import phi_q
from ybx.core import generator_image, make_ybo
from ybx.equivalence import local_witness_search, p_equivalent, weighted_flip, x_symmetry_check
from ybx.scalars import GaussianRational
from ybx.structure import end_search, hom_verify, intertwiner_space
from ybx.tensor import Matrix

SEEDS = (100, 101)
DIAGONAL_Q = ((2, 0), (0, -3))
ANTI_DIAGONAL_Q = ((0, 3), (2, 0))

END_SEARCH_SHA256 = "66494124c1bedd121ee8dd6385b95e9ea395fd87e4f5e36dac93e119b0797b3a"
WITNESS_SHA256 = "e6a51d73afde4e14d0e3c6e1ba9e0181d6034b65be8c8fb3af449522b0a1fc3b"
P_EQUIVALENT_SHA256 = "282f207d2b1e53f4d462d2b5898211e17c27489d3d522f2854eb7aa8c57da0a5"
X_SYMMETRY_SHA256 = "6cf94980c15ab062a22fc0933084b185479030cc405e3e93917c003f971a260c"
INTERTWINER_SHA256 = "4afab0fbc03a0af7bcd6fc7f1124d7c7fed6471db41c3f79c14034cb04d001c0"


def _digest(record) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()


def _cells(M):
    return None if M is None else [[str(x) for x in row] for row in M.data]


def _objects():
    return [(f"{entry_id}@{seed}", sampled_catalog_object(entry_id, seed))
            for seed in SEEDS for entry_id in catalog_ids()]


def _twins(obj):
    return [(label, phi_q(obj, Matrix.from_rows(Q)))
            for label, Q in (("diagonal", DIAGONAL_Q), ("anti-diagonal", ANTI_DIAGONAL_Q))]


def test_end_search_frozen():
    record = []
    for name, obj in _objects():
        for strategy in ("diagonal", "monomial", "commutant"):
            result = end_search(obj, strategy)
            record.append((name, strategy, result.complete,
                           [(_cells(e.A), e.rank) for e in result.elements]))
    assert _digest(record) == END_SEARCH_SHA256


def test_local_witness_search_frozen():
    record = []
    for name, obj in _objects():
        for label, twin in _twins(obj):
            for strategy in ("diagonal", "monomial", "full"):
                Q = local_witness_search(obj, twin, strategy=strategy)
                assert Q is None or (Q.is_invertible() and hom_verify(Q, obj, twin))
                record.append((name, label, strategy, _cells(Q)))
    assert _digest(record) == WITNESS_SHA256


def _check_intertwiners(A, B, cert):
    for n, T in cert.intertwiners.items():
        assert T.is_invertible()
        for i in range(1, n):
            assert T.mul(generator_image(B, n, i)).eq(generator_image(A, n, i).mul(T))


def test_p_equivalent_frozen():
    objects = _objects()
    pairs = [(f"{name}~{label}", obj, twin)
             for name, obj in objects for label, twin in _twins(obj)]
    per_seed = len(objects) // len(SEEDS)
    pairs += [(f"{a[0]}~{b[0]}", a[1], b[1])
              for k in range(0, len(objects), per_seed)
              for a, b in zip(objects[k:k + per_seed], objects[k + 1:k + per_seed])]
    record = []
    for name, A, B in pairs:
        cert = p_equivalent(A, B, 3)
        _check_intertwiners(A, B, cert)
        record.append((name, cert.verdict, cert.failed_n, cert.witness, cert.dims))
    assert _digest(record) == P_EQUIVALENT_SHA256


def test_x_symmetry_frozen():
    record = []
    for seed in range(6):
        rng = random.Random(seed)
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
        obj = make_ybo(3, weighted_flip(3, weights))
        X = Matrix.diagonal([Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(9)])
        report = x_symmetry_check(obj, X, 5)
        S = make_ybo(3, X.mul(obj.R).mul(X.inverse()))
        for n, d in report.certificates.items():
            D = Matrix.diagonal(d)
            for i in range(1, n):
                assert D.mul(generator_image(obj, n, i)).eq(generator_image(S, n, i).mul(D))
        record.append((report.ok, report.per_n, report.method, report.certificates))
    assert _digest(record) == X_SYMMETRY_SHA256


def test_intertwiner_bases_frozen():
    Q = Matrix.from_rows([[GaussianRational(1, 2), Fraction(1, 3)],
                          [0, GaussianRational(Fraction(2, 5), -1)]])
    record = []
    for name, obj in _objects()[:len(catalog_ids())]:
        for label, B in (("self", obj), ("gaussian", phi_q(obj, Q))):
            below = None
            for n in (2, 3, 4):
                below = intertwiner_space(obj, B, n, below)
                record.append((name, label, n, [_cells(T) for T in below]))
    assert _digest(record) == INTERTWINER_SHA256
