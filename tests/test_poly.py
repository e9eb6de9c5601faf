"""The polynomial helpers of ``ybx.poly`` against sympy, and the rational
zeros of small systems built on them."""

import random
from fractions import Fraction

import sympy
from sympy import I, QQ, QQ_I

from ybx.poly import _resultant, poly_divmod, poly_eval, poly_gcd, rational_factors
from ybx.scalars import Backend, GaussianRational
from ybx.spectral import spectrum
from ybx.structure import _SAMPLES, _rational_zeros
from ybx.tensor import Matrix

x, s, t = sympy.symbols("x s t")
BIG = 10 ** 9 + 7  # a denominator above the ladder's tightest bound


def to_sympy(c):
    if isinstance(c, GaussianRational):
        return sympy.Rational(c.re.numerator, c.re.denominator) + I * sympy.Rational(
            c.im.numerator, c.im.denominator)
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def dense(coeffs, domain):
    return sympy.Poly([to_sympy(c) for c in reversed(coeffs)], x, domain=domain)


def product(factors):
    out = [Fraction(1)]
    for f in factors:
        out = [sum((out[i] * f[k - i] for i in range(len(out)) if 0 <= k - i < len(f)),
                   out[0] * 0) for k in range(len(out) + len(f) - 1)]
    return out


def random_poly(rng, degree, gaussian):
    def coeff():
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return GaussianRational(re, rng.randint(-2, 2)) if gaussian else re
    return [coeff() for _ in range(degree)] + [Fraction(rng.randint(1, 3))]


def test_divmod_gcd_and_eval_against_sympy():
    rng = random.Random(3)
    for gaussian, domain in ((False, QQ), (True, QQ_I)):
        for _ in range(25):
            common = random_poly(rng, rng.randint(0, 2), gaussian)
            a = product([common, random_poly(rng, rng.randint(0, 3), gaussian)])
            b = product([common, random_poly(rng, rng.randint(1, 3), gaussian)])
            A, B = dense(a, domain), dense(b, domain)
            quot, rem = poly_divmod(a, b)
            Q, R = A.div(B)
            assert (dense(quot or [0], domain), dense(rem, domain)) == (Q, R)
            g = poly_gcd(a, b)
            assert dense(g, domain).monic() == A.gcd(B) and (len(g) == 1 or g[-1] == 1)
            value = Fraction(rng.randint(-5, 5), 3)
            assert to_sympy(poly_eval(a, value)) == A.eval(to_sympy(value))


def random_bipoly(rng, gaussian):
    out = {}
    for _ in range(4):
        c = Fraction(rng.randint(-4, 4))
        if gaussian:
            c = GaussianRational(c, rng.randint(-2, 2))
        if c:
            out[(rng.randint(0, 2), rng.randint(0, 2))] = c
    out[(0, rng.randint(1, 2))] = Fraction(rng.randint(1, 3))  # a unknown t
    return out


def test_resultant_against_sympy():
    rng = random.Random(5)
    for gaussian in (False, True) * 15:
        a, b = random_bipoly(rng, gaussian), random_bipoly(rng, gaussian)
        A, B = (sum(to_sympy(c) * s ** i * t ** j for (i, j), c in p.items()) for p in (a, b))
        ours = sum((to_sympy(c) * s ** i for (i,), c in _resultant(a, b).items()), sympy.S(0))
        assert sympy.expand(ours - sympy.resultant(A, B, t)) == 0


def factors_of(coeffs, domain):
    """sympy's irreducible factors over the domain, with multiplicity."""
    _, pairs = sympy.factor_list(dense(coeffs, domain).as_expr(), x,
                                 **({"gaussian": True} if domain == QQ_I else {}))
    return sorted((sympy.Poly(f, x, domain=domain).monic() for f, m in pairs for _ in range(m)),
                  key=str)


def check_factors(known, domain):
    """rational_factors at degree 1, then 2, splits what sympy finds, except
    the linear factor with the large denominator, which stays in the rest."""
    coeffs = product(known)
    expected = factors_of(coeffs, domain)
    linear, rest = rational_factors(coeffs, 1)
    quadratic, rest = rational_factors(rest, 2)
    found = sorted((dense(f, domain) for f in linear + quadratic), key=str)
    kept = [p for p in expected if p.degree() == 1 and sympy.denom(p.nth(0)) >= BIG]
    assert found == sorted((p for p in expected if p not in kept), key=str)
    assert dense(rest, domain) == sympy.prod(kept, start=sympy.Poly(1, x, domain=domain))
    assert kept and all(len(f) == 2 for f in linear) and all(len(f) == 3 for f in quadratic)
    return linear, quadratic


def test_rational_factors_over_q():
    F = Fraction
    known = [[F(-1, 2), 1], [F(3), 1], [F(3), 1], [F(-2), 0, 1], [F(1), 1, 1],
             [F(-1, BIG), 1], [F(2, 3), F(-5, 7), 1]]
    linear, quadratic = check_factors(known, QQ)
    assert len(linear) == 3 and len(quadratic) == 3


def test_rational_factors_over_gaussian_rationals():
    G = GaussianRational
    known = [[-G(1, 2), G(1)], [G(0, Fraction(1, 2)), G(1)], [G(-3), G(1)],
             [G(Fraction(-1, BIG)), G(1)], [G(-2), G(0), G(1)], [G(1), G(0), G(1)]]
    linear, quadratic = check_factors(known, QQ_I)
    roots = {-f[0] for f in linear}
    assert roots == {G(1, 2), G(0, Fraction(-1, 2)), G(3), G(0, 1), G(0, -1)}
    assert len(quadratic) == 1  # x^2 - 2 is irreducible over Q(i)


def test_last_quadratic_is_solved_whatever_its_denominators():
    # x^2 - (a + b) x + a b with a, b beyond the ladder, and x - 2: the
    # quadratic left at the end is solved by radicals, not given up
    a, b = Fraction(1, 3 ** 17), Fraction(2, 3 ** 17)
    coeffs = product([[a * b, -(a + b), 1], [Fraction(-2), 1]])
    companion = [[Fraction(int(r == c + 1)) for c in range(3)] for r in range(3)]
    for r in range(3):
        companion[r][2] = -coeffs[r]
    for backend in (Backend.EXACT_Q, Backend.EXACT_QI):
        M = Matrix.from_rows(companion).promote_to(backend)
        assert sorted(spectrum(M)) == sorted([(a, 1), (b, 1), (2, 1)])


def test_rational_zeros_isolated():
    # u^2 - 3u + 2 = 0 and v = 2u - 1: the points (1, 1) and (2, 3)
    polys = [{(2, 0): 1, (1, 0): -3, (0, 0): 2}, {(0, 1): 1, (1, 0): -2, (0, 0): 1}]
    points, complete = _rational_zeros([{e: Fraction(c) for e, c in p.items()} for p in polys], 2)
    assert sorted(points) == [(1, 1), (2, 3)] and complete


def test_rational_zeros_irrational_zero_is_incomplete():
    # (u^2 - 2)(u - 1) = 0 and v = u: only (1, 1) is rational
    polys = [{(3, 0): 1, (2, 0): -1, (1, 0): -2, (0, 0): 2}, {(0, 1): 1, (1, 0): -1}]
    points, complete = _rational_zeros([{e: Fraction(c) for e, c in p.items()} for p in polys], 2)
    assert points == [(1, 1)] and not complete


def test_rational_zeros_line_is_sampled():
    # v = u: a line of zeros, sampled at the first unknown's _SAMPLES
    points, complete = _rational_zeros([{(0, 1): Fraction(1), (1, 0): Fraction(-1)}], 2)
    assert points == [(u, u) for u in _SAMPLES[2]] and not complete
