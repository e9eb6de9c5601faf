"""The linear systems of ybx.structure against independent constructions.

``intertwiner_space`` is compared with sympy's nullspace over Q(i) of the
stacked dense system I (x) B_i^T - A_i (x) I (T flattened row by row), built
from ``generator_image``, and at n = 4 its dimension with the nullity of the
same system built from sympy's own Kronecker products; the complex array that ``intertwiner_space_numeric``
fills from the same rows is compared entry for entry with that system built
by ``np.kron``.  The pair-space (and the diagonal rows on three strands),
symmetrization and span-membership helpers are compared with sympy on random
sparse rational input.  The one row checker rejects a perturbed DS
certificate.  The one exact kernel under them refuses the complex backend.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import QQ, QQ_I, eye
from sympy import Matrix as SMatrix
from sympy.matrices.expressions.kronecker import kronecker_product
from sympy.polys.matrices import DomainMatrix

from conftest import integer_path_objects, ising_unitary, sampled_catalog_object
from ybx.catalog import catalog_get, catalog_ids
from ybx.constructions import ds_intertwiner, ds_transform, phi_q
from ybx.core import YBObject, _table, generator_image, make_ybo
from ybx.equivalence import local_witness_search
from ybx.errors import BackendMismatch, DimensionMismatch
from ybx.scalars import Backend, GaussianRational
from ybx.expressions import ParamBinding
from ybx.structure import (
    _diagonal_rows,
    _intertwiner_rows,
    _pair_space_basis,
    _satisfied,
    _symmetrize_basis,
    _vvT_in_span,
    end_search,
    intertwiner_space,
    intertwiner_space_numeric,
)
from ybx.tensor import Matrix, kernel

# two entries in three are zero
entry = st.sampled_from([Fraction(0)] * 12
                        + [Fraction(x) for x in ("1", "-1", "2", "-3", "1/2", "-5/4")])


def square(n):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


def qq_i(x):
    """An exact scalar as an element of sympy's Q(i)."""
    re, im = (x.re, x.im) if isinstance(x, GaussianRational) else (x, 0)
    return QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))


def domain(rows):
    """sympy's exact matrix over Q(i) with the given rows of Q(i) elements."""
    return DomainMatrix(rows, (len(rows), len(rows[0])), QQ_I)


def flat(M):
    return [qq_i(x) for row in M.data for x in row]


def rank(vectors):
    return domain(vectors).rank() if vectors else 0


def same_span(got, expected):
    return len(got) == len(expected) == rank(got) == rank(got + expected)


# -- the kernel refuses complex-f -----------------------------------------------


def test_exact_kernel_refuses_complex_backend():
    obj = make_ybo(2, ising_unitary(), tol=1e-9)
    with pytest.raises(BackendMismatch, match="exact backend"):
        kernel([{0: complex(1)}], 2, Backend.COMPLEX_F)
    with pytest.raises(BackendMismatch, match="exact backend"):
        intertwiner_space(obj, obj)
    for strategy in ("diagonal", "monomial", "commutant"):
        with pytest.raises(BackendMismatch, match="exact backend"):
            end_search(obj, strategy)
    for strategy in ("diagonal", "monomial"):
        with pytest.raises(DimensionMismatch):
            local_witness_search(obj, obj, strategy=strategy)


# -- intertwiner spaces ----------------------------------------------------------


def _promoted(obj):
    return make_ybo(obj.N, obj.R.promote_to(Backend.EXACT_QI))


def _pairs():
    """Exact-q pairs, their exact-qi promotions, and twins under Gaussian Q."""
    a = sampled_catalog_object("hietarinta:a", 100)
    ising = sampled_catalog_object("hietarinta:ising", 100)
    glue = sampled_catalog_object("hietarinta:slash-glue-1", 100)
    eight = sampled_catalog_object("hietarinta:eight-vertex", 101)
    eight_twin = phi_q(eight, Matrix.from_rows([[1, 2], [3, 4]]))
    gaussian_Q = Matrix.from_rows([[1, GaussianRational(0, 1)], [2, GaussianRational(1, 1)]])
    return [(a, a), (a, ising), (glue, glue), (eight, eight_twin),
            (a, phi_q(a, Matrix.from_rows([[0, 3], [2, 0]]))),
            (_promoted(a), _promoted(ising)), (_promoted(eight), _promoted(eight_twin)),
            (a, phi_q(a, gaussian_Q)), (phi_q(_promoted(eight), gaussian_Q), _promoted(eight))]


def _kron(a, b):
    return [[x * y if x and y else QQ_I.zero for x in arow for y in brow]
            for arow in a for brow in b]


def _eye(m):
    return [[QQ_I.one if r == c else QQ_I.zero for c in range(m)] for r in range(m)]


@pytest.mark.parametrize("n", [2, 3])
def test_intertwiner_space_matches_sympy(n):
    dims = []
    for A, B in _pairs():
        system = []
        for i in range(1, n):
            a, b = ([[qq_i(x) for x in row] for row in generator_image(X, n, i).data]
                    for X in (A, B))
            b_t = [list(col) for col in zip(*b)]
            system += [[x - y for x, y in zip(r1, r2)]
                       for r1, r2 in zip(_kron(_eye(len(a)), b_t), _kron(a, _eye(len(b))))]
        basis = intertwiner_space(A, B, n)
        assert same_span([flat(T) for T in basis], domain(system).nullspace().to_list())
        for T in basis:
            for i in range(1, n):
                assert T.mul(generator_image(B, n, i)).eq(generator_image(A, n, i).mul(T))
        dims.append(len(basis))
    assert 0 in dims and len(set(dims)) > 2


def _kron_image(obj, n, i):
    """sigma_i on n strands as I (x) R (x) I by sympy's Kronecker product, whose
    first factor varies slowest, so the factors come in reverse order."""
    R = SMatrix([[QQ_I.to_sympy(qq_i(x)) for x in row] for row in obj.R.data])
    return kronecker_product(eye(obj.slot_dim ** (n - i - 1)), R, eye(obj.slot_dim ** (i - 1)))


def test_intertwiner_dimensions_at_four_strands_match_kronecker_reference():
    a, glue = (sampled_catalog_object(e, 100) for e in ("hietarinta:a", "hietarinta:slash-glue-1"))
    ising = sampled_catalog_object("hietarinta:ising", 100)
    eight = sampled_catalog_object("hietarinta:eight-vertex", 101)
    eight_twin = phi_q(eight, Matrix.from_rows([[1, 2], [3, 4]]))
    dims = []
    for A, B in [(a, a), (a, ising), (glue, glue), (_promoted(eight), _promoted(eight_twin))]:
        mA, mB = A.slot_dim ** 4, B.slot_dim ** 4
        system = SMatrix.vstack(*(kronecker_product(eye(mA), _kron_image(B, 4, i).T)
                                  - kronecker_product(_kron_image(A, 4, i), eye(mB))
                                  for i in range(1, 4)))
        expected = mA * mB - DomainMatrix.from_Matrix(system).convert_to(QQ_I).rank()
        dims.append(len(intertwiner_space(A, B, 4)))
        assert dims[-1] == expected
    assert dims == [16, 0, 10, 16]


@pytest.mark.parametrize("label,obj", integer_path_objects()[3:],
                         ids=[label for label, _ in integer_path_objects()[3:]])
def test_rows_at_slot_widths_3_and_4_match_generator_images(label, obj):
    # the equations of T rho(sigma_i) = rho(sigma_i) T and of a diagonal T, entry
    # by entry from the generator images, which match Kronecker products
    n, m = 3, obj.slot_dim ** 3
    images = [generator_image(obj, n, i).data for i in range(1, n)]
    want, want_diagonal = [], []
    for g in images:
        for r in range(m):
            for c in range(m):
                eq = {}
                for k in range(m):
                    for unknown, x in ((r * m + k, g[k][c]), (k * m + c, -g[r][k])):
                        if x:
                            eq[unknown] = eq.get(unknown, 0) + x
                want.append({u: x for u, x in eq.items() if x})
                if g[r][c] and c != r:     # d_r g[r][c] - g[r][c] d_c
                    want_diagonal.append({r: g[r][c], c: -g[r][c]})
    assert _intertwiner_rows(obj, obj, n) == want
    assert _diagonal_rows(_table(obj.R), _table(obj.R), obj.slot_dim, n) == want_diagonal


def _complex_pairs():
    """Each catalog entry promoted to complex-f with a complex twin, both orders,
    and with itself (where equations cancel to empty rows)."""
    Q = Matrix.from_rows([[complex(1, 2), complex(0.5, 0)], [complex(-1, 0), complex(3, -1)]])
    out = []
    for entry_id in catalog_ids():
        obj = sampled_catalog_object(entry_id, 100)
        obj = YBObject(obj.N, obj.level, obj.R.promote_to(Backend.COMPLEX_F))
        twin = phi_q(obj, Q)
        out += [(obj, twin), (twin, obj), (obj, obj)]
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_numeric_system_matches_kron_construction(n):
    for A, B in _complex_pairs():
        mA, mB = A.slot_dim ** n, B.slot_dim ** n
        blocks = []
        for i in range(1, n):
            a, b = generator_image(A, n, i).to_numpy(), generator_image(B, n, i).to_numpy()
            blocks.append(np.kron(np.eye(mA), b.T) - np.kron(a, np.eye(mB)))
        reference = np.vstack(blocks)
        rows = _intertwiner_rows(A, B, n)
        system = np.zeros((len(rows), mA * mB), dtype=complex)
        for k, row in enumerate(rows):
            system[k, list(row)] = list(row.values())
        assert np.array_equal(system, reference)
        # so the one SVD sees the reference system: its basis is the reference's
        _, s, vh = np.linalg.svd(reference)
        null = vh[int(np.sum(s > 1e3 * 1e-9 * max(1.0, float(s[0])))):].conj()
        basis = intertwiner_space_numeric(A, B, n)
        assert [T.to_numpy().tolist() for T in basis] == [v.reshape(mA, mB).tolist() for v in null]


def test_satisfied_rejects_a_perturbed_ds_certificate():
    k, c, p, q = Fraction(3), Fraction(4), Fraction(5), Fraction(2)
    slash = catalog_get("hietarinta:slash", ParamBinding.of(k=k, p=c, q=c, s=k))
    Q = Matrix.from_rows([[0, p], [q, 0]])
    S = ds_transform(slash, Q)
    n = 3
    rows = _intertwiner_rows(S, slash, n)
    x = [v for row in ds_intertwiner(Q, n).data for v in row]
    assert _satisfied(rows, x, True)
    # the rows are linear: changing entry j is rejected unless the unit matrix
    # at j intertwines by itself, as 4 of the 64 do here
    zeros = [Fraction(0)] * len(x)
    kept = [j for j in range(len(x)) if _satisfied(rows, zeros[:j] + [1] + zeros[j + 1:], True)]
    assert len(kept) == 4
    for j in range(len(x)):
        assert _satisfied(rows, x[:j] + [x[j] + 1] + x[j + 1:], True) == (j in kept)
    # on complex-f within the tolerance, and not beyond it
    z = [complex(v) for v in x]
    crows = [{col: complex(v) for col, v in row.items()} for row in rows]
    assert _satisfied(crows, z, False)
    j = next(j for j, v in enumerate(z) if v)
    assert _satisfied(crows, z[:j] + [z[j] * (1 + 1e-12)] + z[j + 1:], False)
    assert not _satisfied(crows, z[:j] + [z[j] * (1 + 1e-6)] + z[j + 1:], False)


# -- the helpers of the rank-one search --------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_pair_space_basis_matches_sympy(data):
    N = data.draw(st.integers(1, 3))
    R = data.draw(square(N * N))
    R_t = R if data.draw(st.booleans()) else data.draw(square(N * N))
    system = []
    for u in range(N * N):
        for v in range(N * N):
            row = [Fraction(0)] * (N * N)
            row[u] += R[u][v]
            row[v] -= R_t[u][v]
            system.append([qq_i(x) for x in row])
    got = [[qq_i(P.data[a][b]) for b in range(N) for a in range(N)]
           for P in _pair_space_basis(Matrix.from_rows(R), Matrix.from_rows(R_t), N)]
    assert same_span(got, domain(system).nullspace().to_list())
    if N > 2:
        return
    # the same rows on three strands: d_r R_i[r][c] = R~_i[r][c] d_c for i = 1, 2
    objs = [YBObject(N, 1, Matrix.from_rows(M)) for M in (R, R_t)]
    system = []
    for i in (1, 2):
        b, a = (generator_image(obj, 3, i).data for obj in objs)
        for r in range(N ** 3):
            for c in range(N ** 3):
                row = [Fraction(0)] * N ** 3
                row[r] += b[r][c]
                row[c] -= a[r][c]
                system.append([qq_i(x) for x in row])
    rows = _diagonal_rows(_table(objs[1].R), _table(objs[0].R), N, 3)
    got = [[qq_i(x) for x in vec] for vec in kernel(rows, N ** 3, Backend.EXACT_Q)]
    assert same_span(got, domain(system).nullspace().to_list())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_symmetrize_basis_matches_sympy(data):
    n = data.draw(st.integers(1, 3))
    basis = [Matrix.from_rows(M) for M in data.draw(st.lists(square(n), min_size=1, max_size=5))]
    symmetric = data.draw(st.booleans())
    if symmetric:
        basis = [M.add(M.transpose()) for M in basis]
    assume(rank([flat(M) for M in basis]) == len(basis))
    antisymmetric = rank([flat(M.sub(M.transpose())) for M in basis])
    got = _symmetrize_basis(basis)
    if symmetric:   # returned as it is
        assert [M.data for M in got] == [M.data for M in basis]
    assert len(got) == len(basis) - antisymmetric == rank([flat(M) for M in got])
    for M in got:
        assert M.eq(M.transpose())
        assert rank([flat(B) for B in basis] + [flat(M)]) == len(basis)


def test_vvT_in_a_dependent_spanning_set():
    basis = [Matrix.from_rows(M) for M in ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, 0], [0, 1]])]
    assert _vvT_in_span(Matrix.column([1, 0]), basis)
    assert not _vvT_in_span(Matrix.column([1, 1]), basis)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_vvT_in_span_matches_sympy(data):
    n = data.draw(st.integers(1, 3))
    v = Matrix.column(data.draw(st.lists(entry, min_size=n, max_size=n)))
    vvT = v.mul(v.transpose())
    basis = [Matrix.from_rows(M) for M in data.draw(st.lists(square(n), min_size=1, max_size=4))]
    if data.draw(st.booleans()):   # put v v^T in the span
        basis.append(vvT.sub(basis[0]))
    if data.draw(st.booleans()):   # make the spanning set dependent
        basis.append(basis[-1].add(basis[0]))
    flats = [flat(M) for M in basis]
    assert _vvT_in_span(v, basis) == (rank(flats + [flat(vvT)]) == rank(flats))
