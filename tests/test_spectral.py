import random
from fractions import Fraction

import pytest
import sympy

from ybx.errors import UnfactoredSpectrum
from ybx.scalars import Backend, GaussianRational
from ybx.spectral import (
    QuadSurd,
    char_poly,
    eig_to_complex,
    jordan_structure,
    rational_sqrt,
    spectrum,
)
from ybx.tensor import Matrix


def random_matrix(rng, n):
    return Matrix.from_rows(
        [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)])


def test_quad_surd_arithmetic():
    r = QuadSurd(0, 1, 2)  # sqrt(2)
    assert r * r == Fraction(2)
    assert (r + 1) * (r - 1) == Fraction(1)
    assert (1 / r) * r == Fraction(1)
    im = QuadSurd(0, 1, -3)  # i sqrt(3)
    assert im * im == Fraction(-3)
    assert eig_to_complex(im) == pytest.approx(complex(0, 3 ** 0.5))


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(-4)) == GaussianRational(0, 2)
    s = rational_sqrt(Fraction(2))
    assert isinstance(s, QuadSurd) and s * s == Fraction(2)
    t = rational_sqrt(Fraction(-2))
    assert isinstance(t, QuadSurd) and t * t == Fraction(-2)
    u = rational_sqrt(Fraction(8))
    assert u * u == Fraction(8)


def test_rational_sqrt_of_squares_past_the_trial_bound():
    prime = 10 ** 9 + 7
    for value, root in ((Fraction(4, prime ** 2), Fraction(2, prime)),
                        (Fraction(prime ** 2), Fraction(prime)),
                        (Fraction(-9, prime ** 2), GaussianRational(0, Fraction(3, prime)))):
        s = rational_sqrt(value)
        assert type(s) is type(root) and s == root


def test_rational_sqrt_of_a_large_square_beside_a_small_prime():
    prime = 10 ** 9 + 7
    for small, s, d in ((2, 1, 2), (12, 2, 3)):
        root = rational_sqrt(Fraction(small * prime ** 2))
        assert isinstance(root, QuadSurd) and (root.a, root.b, root.d) == (0, s * prime, d)
        assert root == prime * rational_sqrt(Fraction(small))


def test_char_poly_against_sympy():
    rng = random.Random(0)
    for _ in range(20):
        M = random_matrix(rng, 4)
        coeffs = char_poly(M)
        sm = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                           for row in M.data])
        lam = sympy.symbols("lam")
        expected = sympy.Poly(sm.charpoly(lam), lam).all_coeffs()
        got = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
        assert got == expected


def test_spectrum_identity():
    spec = spectrum(Matrix.identity(4))
    assert spec == [(Fraction(1), 4)]


def test_jordan_slash_glue_1():
    # the glue variant with +-1 entries: blocks {1: [2, 1], -1: [1]}
    M = Matrix.from_rows([
        [1, 0, 0, 1],
        [0, 0, -1, 0],
        [0, -1, 0, 0],
        [0, 0, 0, 1]])
    jordan = dict(jordan_structure(M))
    assert jordan[Fraction(1)] == [2, 1]
    assert jordan[Fraction(-1)] == [1]


def test_jordan_ising_gaussian_eigenvalues():
    M = Matrix.from_rows([
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, -1, 1, 0],
        [-1, 0, 0, 1]])
    jordan = jordan_structure(M)
    assert len(jordan) == 2
    values = {str(v) for v, _ in jordan}
    assert values == {"1+i", "1-i"}
    assert all(blocks == [1, 1] for _, blocks in jordan)


def test_spectrum_with_surds():
    # slash family at k=2, p=3, q=5, s=7: eigenvalues k, +-sqrt(15), s
    M = Matrix.from_rows([
        [2, 0, 0, 0],
        [0, 0, 3, 0],
        [0, 5, 0, 0],
        [0, 0, 0, 7]])
    spec = spectrum(M)
    vals = {str(v) for v, m in spec}
    assert vals == {"2", "7", "sqrt(15)", "-1*sqrt(15)"} or vals == {
        "2", "7", "sqrt(15)", "-sqrt(15)"}
    assert all(m == 1 for _, m in spec)


def test_jordan_against_sympy_random():
    rng = random.Random(1)
    checked = 0
    for _ in range(40):
        # build matrices with controlled spectra: conjugated Jordan seeds
        n = 4
        blocks = []
        remaining = n
        while remaining:
            size = rng.randint(1, min(2, remaining))
            lam = Fraction(rng.randint(-3, 3))
            blocks.append((lam, size))
            remaining -= size
        data = [[Fraction(0)] * n for _ in range(n)]
        pos = 0
        for lam, size in blocks:
            for k in range(size):
                data[pos + k][pos + k] = lam
                if k + 1 < size:
                    data[pos + k][pos + k + 1] = Fraction(1)
            pos += size
        J = Matrix.from_rows(data)
        while True:
            P = random_matrix(rng, n)
            if P.det():
                break
        M = P.mul(J).mul(P.inverse())
        ours = sorted(((str(v), tuple(b)) for v, b in jordan_structure(M)))
        expected = {}
        for lam, size in blocks:
            expected.setdefault(str(lam), []).append(size)
        theirs = sorted((v, tuple(sorted(b, reverse=True))) for v, b in expected.items())
        assert ours == theirs
        checked += 1
    assert checked == 40


def test_complexf_jordan_path():
    M = Matrix.from_rows([
        [1, 0, 0, 1],
        [0, 0, -1, 0],
        [0, -1, 0, 0],
        [0, 0, 0, 1]]).promote_to(Backend.COMPLEX_F)
    jordan = jordan_structure(M)
    by_value = {round(eig_to_complex(v).real): blocks for v, blocks in jordan}
    assert by_value[1] == [2, 1]
    assert by_value[-1] == [1]


def test_unfactored_spectrum_raises():
    # companion matrix of x^3 - 2: irrational cubic, no rational factor
    M = Matrix.from_rows([
        [0, 0, 2],
        [1, 0, 0],
        [0, 1, 0]])
    with pytest.raises(UnfactoredSpectrum):
        spectrum(M)
    spec = spectrum(M.promote_to(Backend.COMPLEX_F))
    assert sum(m for _, m in spec) == 3


def test_jordan_with_repeated_surd_eigenvalues():
    # two copies of [[0, 2], [1, 0]]: eigenvalues +-sqrt(2), each twice,
    # diagonalizable; exercises rank computations over Q(sqrt(2))
    M = Matrix.from_rows([
        [0, 2, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 2],
        [0, 0, 1, 0]])
    jordan = jordan_structure(M)
    assert len(jordan) == 2
    for value, blocks in jordan:
        assert isinstance(value, QuadSurd) and value * value == Fraction(2)
        assert blocks == [1, 1]
    # a genuine surd Jordan block: identity coupling forces maximal blocks
    N = Matrix.from_rows([
        [0, 2, 1, 0],
        [1, 0, 0, 1],
        [0, 0, 0, 2],
        [0, 0, 1, 0]])
    jordan2 = jordan_structure(N)
    for value, blocks in jordan2:
        assert blocks == [2]
