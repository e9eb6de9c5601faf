import random
from fractions import Fraction

import pytest
import sympy

from ybx.errors import UnfactoredSpectrum
from ybx.scalars import Backend, GaussianRational
from ybx.spectral import (
    QuadSurd,
    _jordan_blocks,
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


def _to_sympy(value):
    if isinstance(value, QuadSurd):
        return sympy.Rational(str(value.a)) + sympy.Rational(str(value.b)) * sympy.sqrt(value.d)
    if isinstance(value, GaussianRational):
        return sympy.Rational(str(value.re)) + sympy.Rational(str(value.im)) * sympy.I
    return sympy.Rational(str(value))


def sympy_jordan(M):
    """{eigenvalue: block sizes, descending} from sympy's jordan_form, keyed by the
    eigenvalue's complex value rounded to 9 places."""
    _, J = sympy.Matrix([[_to_sympy(v) for v in row] for row in M.data]).jordan_form()
    out, k = {}, 0
    while k < J.rows:
        size = 1
        while k + size < J.rows and J[k + size - 1, k + size] == 1:
            size += 1
        z = complex(sympy.N(J[k, k], 30))
        out.setdefault((round(z.real, 9), round(z.imag, 9)), []).append(size)
        k += size
    return {key: sorted(b, reverse=True) for key, b in out.items()}


def keyed_jordan(jordan):
    """Jordan data as ybx gives it, keyed as ``sympy_jordan`` keys it."""
    return {(round(eig_to_complex(v).real, 9), round(eig_to_complex(v).imag, 9)): blocks
            for v, blocks in jordan}


def _block_matrix(blocks):
    """Block-diagonal matrix of one block per (kind, args, size): ("root", r, k) a
    Jordan block of size k at r; ("quad", (s, p), k) the companion of t^2 - s t + p
    k times on the diagonal, chained by identities, so each root has one block of size k."""
    n = sum(k * (1 if kind == "root" else 2) for kind, _, k in blocks)
    data = [[0] * n for _ in range(n)]
    pos = 0
    for kind, arg, k in blocks:
        d = 1 if kind == "root" else 2
        for j in range(k):
            at = pos + d * j
            if kind == "root":
                data[at][at] = arg
            else:
                s, p = arg
                data[at][at + 1], data[at + 1][at], data[at + 1][at + 1] = -p, 1, s
            if j + 1 < k:
                for m in range(d):
                    data[at + m][at + d + m] = 1
        pos += d * k
    return data


@pytest.mark.parametrize("gaussian, blocks", [
    # Gaussian eigenvalues 1 +- i of rational matrices: a 2-block, then two 1-blocks
    (False, [("quad", (2, 2), 2), ("root", 3, 1)]),
    (False, [("quad", (2, 2), 1), ("quad", (2, 2), 1), ("root", -1, 1)]),
    # repeated surds on rational matrices: +-sqrt(2) with blocks [2, 1]; 1 +- sqrt(2) twice
    (False, [("quad", (0, -2), 2), ("quad", (0, -2), 1)]),
    (False, [("quad", (2, -1), 1), ("quad", (2, -1), 1), ("root", 1, 2)]),
    # repeated surds on Gaussian matrices: +-sqrt(2) as a 2-block; +-sqrt(-3) twice
    (True, [("quad", (0, -2), 2)]),
    (True, [("quad", (0, 3), 1), ("quad", (0, 3), 1), ("root", 1, 1)]),
    # Gaussian and rational eigenvalues of Gaussian matrices, 1 + i without 1 - i
    (True, [("root", GaussianRational(1, 1), 2), ("root", GaussianRational(1, 1), 1),
            ("root", 2, 2)]),
])
def test_jordan_over_the_matrix_field_matches_sympy(gaussian, blocks):
    rng = random.Random(len(blocks) + 7 * gaussian)
    J = Matrix.from_rows(_block_matrix(blocks))
    n = J.rows
    while True:
        P = Matrix.from_rows([[rng.randint(-2, 2) + (GaussianRational(0, rng.randint(-1, 1))
                                                     if gaussian else 0)
                               for _ in range(n)] for _ in range(n)])
        if P.det():
            break
    M = P.mul(J).mul(P.inverse())
    assert M.backend is (Backend.EXACT_QI if gaussian else Backend.EXACT_Q)
    spec = spectrum(M)
    jordan = jordan_structure(M)
    assert keyed_jordan(jordan) == sympy_jordan(M)
    assert any(mult > 1 and not isinstance(v, Fraction) for v, mult in spec)
    # a rational eigenvalue typed as a GaussianRational with im 0 ranks as the rational one
    retyped = [(GaussianRational(v) if isinstance(v, Fraction) else v, m) for v, m in spec]
    assert [b for _, b in _jordan_blocks(M, retyped)] == [b for _, b in jordan]
