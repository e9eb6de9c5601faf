"""The sparse exact kernels against independent references.

The elimination kernel (behind rref, det, solve_right and nullspace) is
compared with sympy on random sparse rational matrices.  The braid word
product behind rho, is_ybe and braid_relations_check is compared with a
dense product of Kronecker generator images built here.
"""

import random
from fractions import Fraction

import pytest
import sympy
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
from ybx.scalars import GaussianRational
from ybx.tensor import Matrix

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
