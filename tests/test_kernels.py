"""The sparse exact kernels against independent references.

The elimination kernel (behind rref, det, solve_right and nullspace) is
compared with sympy on random sparse rational and Gaussian-rational
matrices, on rows that mix the two, and on one tall sparse system whose
pivots sit far down and whose clearing fills the other rows.  The braid word
product behind rho, is_ybe and braid_relations_check is compared with a
dense product of Kronecker generator images built here.
"""

import random
from fractions import Fraction

import pytest
import sympy
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    dense_report,
    dense_word,
    fa_matrix,
    ising_unitary,
    random_invertible,
    sampled_catalog_object,
    zeta8,
)
from ybx.braid import BraidWord
from ybx.core import YBObject, braid_relations_check, is_ybe, make_ybo, rho
from ybx.errors import SingularMatrix
from ybx.scalars import Backend, GaussianRational
from ybx.tensor import Matrix, _decoded, _integral, _times_i, kernel, reduced_rows

# about two entries in three are zero
entry = st.tuples(st.integers(0, 2),
                  st.fractions(min_value=-9, max_value=9, max_denominator=6)).map(
    lambda t: t[1] if t[0] == 0 else Fraction(0))


@st.composite
def sparse_matrices(draw, square=False):
    rows = draw(st.integers(1, 7))
    cols = rows if square else draw(st.integers(1, 7))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


def to_sympy(data):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in data])


def from_sympy(M):
    return [[Fraction(int(v.p), int(v.q)) for v in M.row(r)] for r in range(M.rows)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sparse_matrices())
def test_rref_matches_sympy(data):
    expected, expected_pivots = to_sympy(data).rref()
    M, pivots = Matrix.from_rows(data).rref()
    assert tuple(pivots) == expected_pivots
    assert M.data == from_sympy(expected)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sparse_matrices(square=True))
@example([[Fraction(0), Fraction(2)], [Fraction(3), Fraction(0)]])
@example([[Fraction(0), Fraction(0), Fraction(1)], [Fraction(0), Fraction(5), Fraction(0)],
          [Fraction(7), Fraction(0), Fraction(0)]])
@example([[Fraction(0), Fraction(1), Fraction(0)], [Fraction(0), Fraction(0), Fraction(2)],
          [Fraction(3), Fraction(0), Fraction(0)]])
def test_det_matches_sympy(data):
    expected = to_sympy(data).det()
    assert Matrix.from_rows(data).det() == Fraction(int(expected.p), int(expected.q))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sparse_matrices(), st.data())
def test_solve_right_matches_sympy(data, draw):
    A = Matrix.from_rows(data)
    k = draw.draw(st.integers(1, 2))
    if draw.draw(st.booleans()):
        rhs = [[draw.draw(entry) for _ in range(k)] for _ in range(A.rows)]
    else:   # a consistent right-hand side
        X0 = Matrix.from_rows([[draw.draw(entry) for _ in range(k)] for _ in range(A.cols)])
        rhs = A.mul(X0).data
    try:
        solution, params = to_sympy(data).gauss_jordan_solve(to_sympy(rhs))
    except ValueError:      # sympy: the system is inconsistent
        with pytest.raises(SingularMatrix, match="inconsistent"):
            A.solve_right(Matrix.from_rows(rhs))
        return
    if params.rows:
        with pytest.raises(SingularMatrix, match="underdetermined"):
            A.solve_right(Matrix.from_rows(rhs))
        return
    assert A.solve_right(Matrix.from_rows(rhs)).data == from_sympy(solution)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(sparse_matrices())
def test_nullspace_matches_sympy(data):
    got = [[v.data[r][0] for r in range(v.rows)] for v in Matrix.from_rows(data).nullspace()]
    expected = [from_sympy(v.T)[0] for v in to_sympy(data).nullspace()]
    assert got == expected


# -- exact-qi against sympy's Q(i) --------------------------------------------------

gaussian_entry = st.tuples(st.integers(0, 2),
                           st.fractions(min_value=-4, max_value=4, max_denominator=3),
                           st.fractions(min_value=-4, max_value=4, max_denominator=3)).map(
    lambda t: GaussianRational(t[1], t[2]) if t[0] == 0 else GaussianRational(0))


@st.composite
def gaussian_matrices(draw, square=False):
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    return [[draw(gaussian_entry) for _ in range(cols)] for _ in range(rows)]


def to_qq_i(data):
    return DomainMatrix([[QQ_I(QQ(v.re.numerator, v.re.denominator),
                               QQ(v.im.numerator, v.im.denominator)) for v in row]
                         for row in data], (len(data), len(data[0])), QQ_I)


def from_qq_i(x):
    return GaussianRational(Fraction(int(x.x.numerator), int(x.x.denominator)),
                            Fraction(int(x.y.numerator), int(x.y.denominator)))


def sympy_rref(data):
    """(rows of the reduced row echelon form over Q(i), pivot tuple)."""
    R, pivots = to_qq_i(data).rref()
    return [[from_qq_i(x) for x in row] for row in R.to_list()], pivots


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(gaussian_matrices())
def test_rref_matches_sympy_over_gaussian_rationals(data):
    expected, expected_pivots = sympy_rref(data)
    M, pivots = Matrix.from_rows(data).rref()
    assert tuple(pivots) == expected_pivots
    assert M.data == expected


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(gaussian_matrices())
def test_nullspace_matches_sympy_over_gaussian_rationals(data):
    """Each basis vector is 1 at its free column and minus sympy's reduced
    rows there at the pivots; their number is sympy's nullity."""
    R, pivots = sympy_rref(data)
    cols = len(data[0])
    expected = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [GaussianRational(0)] * cols
        vec[f] = GaussianRational(1)
        for row, pc in zip(R, pivots):
            vec[pc] = -row[f]
        expected.append(vec)
    got = [[v.data[r][0] for r in range(v.rows)] for v in Matrix.from_rows(data).nullspace()]
    assert got == expected
    assert len(got) == cols - to_qq_i(data).rank()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(gaussian_matrices(), st.data())
def test_solve_right_matches_sympy_over_gaussian_rationals(data, draw):
    A = Matrix.from_rows(data)
    k = draw.draw(st.integers(1, 2))
    if draw.draw(st.booleans()):
        rhs = [[draw.draw(gaussian_entry) for _ in range(k)] for _ in range(A.rows)]
    else:   # a consistent right-hand side
        X0 = Matrix.from_rows([[draw.draw(gaussian_entry) for _ in range(k)]
                               for _ in range(A.cols)])
        rhs = A.mul(X0).data
    R, pivots = sympy_rref([list(a) + list(b) for a, b in zip(data, rhs)])
    if pivots and pivots[-1] >= A.cols:
        with pytest.raises(SingularMatrix, match="inconsistent"):
            A.solve_right(Matrix.from_rows(rhs))
    elif len(pivots) < A.cols:
        with pytest.raises(SingularMatrix, match="underdetermined"):
            A.solve_right(Matrix.from_rows(rhs))
    else:
        assert A.solve_right(Matrix.from_rows(rhs)).data == [row[A.cols:] for row in R[:A.cols]]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(gaussian_matrices(square=True))
@example([[GaussianRational(0), GaussianRational(1, 1)],
          [GaussianRational(0, 2), GaussianRational(0)]])
def test_det_matches_sympy_over_gaussian_rationals(data):
    assert Matrix.from_rows(data).det() == from_qq_i(to_qq_i(data).det())


# -- the integer layout of exact values (tensor._integral) ---------------------------

mixed_entry = st.one_of(entry, gaussian_entry)


@st.composite
def sparse_exact_rows(draw, values):
    """Sparse rows {col: value} of up to 5 rows and 5 columns."""
    cols = draw(st.integers(1, 5))
    rows = [[draw(values) for _ in range(cols)] for _ in range(draw(st.integers(1, 5)))]
    return [{c: v for c, v in enumerate(row) if v} for row in rows], cols


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([entry, gaussian_entry, mixed_entry]).flatmap(sparse_exact_rows))
def test_integral_layout_round_trips(drawn):
    rows, _ = drawn
    gauss = any(isinstance(v, GaussianRational) for row in rows for v in row.values())
    ints, D = _integral(rows, gauss)
    assert all(type(v) is int and v for row in ints for v in row.values())
    decoded = _decoded(ints, D, gauss)
    assert decoded == rows
    assert all(isinstance(v, GaussianRational if gauss else Fraction)
               for row in decoded for v in row.values())
    if gauss:   # the 2 x 2 rule: i times a row, and twice its negation
        for row, got in zip(rows, _decoded(list(map(_times_i, ints)), D, True)):
            assert got == {c: GaussianRational(0, 1) * v for c, v in row.items()}
        assert [_times_i(_times_i(row)) for row in ints] == [
            {c: -v for c, v in row.items()} for row in ints]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sparse_exact_rows(mixed_entry))
@example(([{0: Fraction(1), 1: GaussianRational(0, 1)},
           {0: GaussianRational(0, 1), 1: Fraction(-1)}], 2))
def test_kernel_and_reduced_rows_on_mixed_rows_match_sympy(drawn):
    """Rows mixing Fraction and GaussianRational, as the rational zero solver
    passes them, eliminated over Q(i) once any value is Gaussian."""
    rows, cols = drawn
    if not any(isinstance(v, GaussianRational) for row in rows for v in row.values()):
        rows.append({0: GaussianRational(0, 1)})
    dense = [[GaussianRational(0) + row.get(c, 0) for c in range(cols)] for row in rows]
    R, pivots = sympy_rref(dense)
    reduced, got_pivots = reduced_rows([dict(row) for row in rows], cols)
    assert tuple(got_pivots) == pivots
    assert reduced == [{c: v for c, v in enumerate(row) if v} for row in R[:len(pivots)]]
    expected = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [GaussianRational(0)] * cols
        vec[f] = GaussianRational(1)
        for row, pc in zip(R, pivots):
            vec[pc] = -row[f]
        expected.append(vec)
    assert kernel([dict(row) for row in rows], cols, Backend.EXACT_QI) == expected


def test_tall_sparse_system_with_fill_in_and_row_swaps():
    """A 36 x 18 system of rank 15: a rank-9 product of sparse factors below 6
    rows with no entry in the first 6 columns.  The first pivots sit far
    down and clearing them fills the other rows, so the column index follows
    row swaps, fill-in and cancellation; the kernel has dimension 3."""
    rng = random.Random(11)

    def sparse(rows, cols, density):
        return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density
                 else Fraction(0) for _ in range(cols)] for _ in range(rows)]

    B, C = sparse(30, 9, 0.3), sparse(9, 18, 0.3)
    for c in range(9):
        C[c][c + 1] = Fraction(c + 2)       # rank 9
    product = [[sum((b * c for b, c in zip(row, col)), Fraction(0)) for col in zip(*C)]
               for row in B]
    data = [[Fraction(0)] * 6 + [Fraction(rng.randint(1, 5)) for _ in range(12)]
            for _ in range(6)] + product
    expected, expected_pivots = to_sympy(data).rref()
    M, pivots = Matrix.from_rows(data).rref()
    assert tuple(pivots) == expected_pivots and len(pivots) == 15 and pivots[0] < 6
    assert M.data == from_sympy(expected)
    got = [[v.data[r][0] for r in range(v.rows)] for v in Matrix.from_rows(data).nullspace()]
    assert got == [from_sympy(v.T)[0] for v in to_sympy(data).nullspace()] and len(got) == 3
    square = [row[:14] for row in data[:14]]
    det = to_sympy(square).det()
    assert det and Matrix.from_rows(square).det() == Fraction(int(det.p), int(det.q))


def test_solve_right_raises_on_inconsistent_and_underdetermined():
    A = Matrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrix, match="inconsistent"):
        A.solve_right(Matrix.column([1, 3]))
    with pytest.raises(SingularMatrix, match="underdetermined"):
        A.solve_right(Matrix.column([1, 2]))
    tall = Matrix.from_rows([[1, 0], [0, 1], [1, 1]])
    with pytest.raises(SingularMatrix, match="inconsistent"):
        tall.solve_right(Matrix.column([1, 2, 4]))
    assert tall.solve_right(Matrix.column([1, 2, 3])).data == [[1], [2]]


# -- the braid word product against dense Kronecker products ----------------------


def backends():
    """An exact-q, an exact-qi and two complex-f Yang-Baxter objects."""
    return [
        ("exact-q", sampled_catalog_object("hietarinta:a", 3)),
        ("exact-qi", make_ybo(2, Matrix.from_rows([      # a weighted flip, as match2:F/
            [Fraction(2), 0, 0, 0],
            [0, 0, GaussianRational(1, 2), 0],
            [0, GaussianRational(3, -1), 0, 0],
            [0, 0, 0, Fraction(-3, 2)]]))),
        ("complex-f", make_ybo(2, fa_matrix(zeta8(), 1 / zeta8()), tol=1e-9)),
        ("complex-f", make_ybo(2, ising_unitary(), tol=1e-9)),
    ]


@pytest.mark.parametrize("label,obj", backends())
def test_rho_matches_dense_kronecker_product(label, obj):
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        gens = [g for i in range(1, n) for g in (i, -i)]
        for _ in range(4):
            letters = [rng.choice(gens) for _ in range(rng.randint(1, 6))]
            got = rho(obj, BraidWord.of(n, letters))
            want = dense_word(obj, n, letters)
            if obj.R.backend.is_exact:
                assert got.data == want.data, (label, n, letters)
            else:
                assert got.max_abs_diff(want) <= 1e-9, (label, n, letters)


def test_is_ybe_and_braid_relations_match_dense():
    rng = random.Random(11)
    objects = [obj for _, obj in backends()]
    # invertible matrices that fail the equation, exact and complex; the
    # perturbed identity has two entries of the largest residual in one row
    for _ in range(3):
        objects.append(YBObject(2, 1, random_invertible(rng, 4)))
    perturbed = Matrix.identity(4)
    perturbed.data[0][1] = perturbed.data[0][2] = Fraction(1)
    objects.append(YBObject(2, 1, perturbed))
    complex_R = Matrix.from_numpy(
        [[complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)])
    objects.append(YBObject(2, 1, complex_R))
    fails = 0
    for obj in objects:
        report = is_ybe(obj)
        residual, witness = dense_report(obj, (1, 2, 1), (2, 1, 2))
        if obj.R.backend.is_exact:
            assert (report.residual, report.witness) == (residual, witness)
            assert report.holds == (witness is None)
        else:
            assert abs(report.residual - residual) <= 1e-9 * max(1.0, residual)
            if not report.holds:
                assert report.witness[0] == witness[0]
        fails += not report.holds
        for n in (3, 4, 5):
            dense_holds = all(
                dense_word(obj, n, (i, i + 1, i)).eq(dense_word(obj, n, (i + 1, i, i + 1)))
                for i in range(1, n - 1))
            assert braid_relations_check(obj, n) == dense_holds == report.holds
    assert fails == 5
