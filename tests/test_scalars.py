import operator
import random
from fractions import Fraction

import pytest

from ybx.errors import BackendMismatch, DivisionByZero
from ybx.scalars import (
    Backend,
    GaussianRational,
    backend_of,
    format_scalar,
    join_backend,
    promote,
    scalar_eq,
    to_complex,
)


def random_rational(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def random_gaussian(rng):
    return GaussianRational(random_rational(rng), random_rational(rng))


def test_field_axioms_exact_q():
    rng = random.Random(1)
    for _ in range(50):
        a, b, c = (random_rational(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a != 0:
            assert a * (1 / a) == 1


def test_field_axioms_exact_qi():
    rng = random.Random(2)
    for _ in range(50):
        a, b, c = (random_gaussian(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a / a == GaussianRational(1)


def test_gaussian_basic():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    assert (GaussianRational(1, 1) * GaussianRational(1, -1)) == GaussianRational(2)
    assert GaussianRational(3, 4).conjugate() == GaussianRational(3, -4)
    with pytest.raises(DivisionByZero):
        GaussianRational(1) / GaussianRational(0)
    assert GaussianRational(2, 3) ** 0 == GaussianRational(1)
    x = GaussianRational(Fraction(1, 2), Fraction(-2, 3))
    assert x ** -2 == 1 / (x * x)


def test_promotion_ladder():
    assert backend_of(Fraction(1, 2)) is Backend.EXACT_Q
    assert backend_of(GaussianRational(1)) is Backend.EXACT_QI
    assert backend_of(1 + 2j) is Backend.COMPLEX_F
    assert join_backend(Backend.EXACT_Q, Backend.COMPLEX_F) is Backend.COMPLEX_F
    up = promote(Fraction(1, 2), Backend.EXACT_QI)
    assert isinstance(up, GaussianRational) and up.re == Fraction(1, 2)
    assert promote(GaussianRational(1, 1), Backend.COMPLEX_F) == 1 + 1j
    with pytest.raises(BackendMismatch):
        promote(1 + 0j, Backend.EXACT_Q)


def test_no_silent_mixing():
    with pytest.raises(TypeError):
        GaussianRational(1) + 0.5


def test_format_parses_back():
    from ybx.expressions import eval_expr

    rng = random.Random(3)
    for _ in range(50):
        v = random_rational(rng) if rng.random() < 0.5 else random_gaussian(rng)
        assert eval_expr(format_scalar(v)) == v


def test_scalar_eq_tolerance():
    assert scalar_eq(Fraction(1, 3), Fraction(1, 3))
    assert not scalar_eq(Fraction(1, 3), Fraction(1, 4))
    assert scalar_eq(1.0 + 0j, 1.0 + 5e-10j)
    assert not scalar_eq(1.0 + 0j, 1.0 + 1e-6j)
    assert to_complex(GaussianRational(1, -1)) == 1 - 1j


def test_gaussian_arithmetic_against_pairs_of_fractions():
    # real operands (im == 0, int or Fraction) take the short paths; every
    # result must equal the full formula and keep Fraction parts
    rng = random.Random(4)

    def parts(v):
        return (v.re, v.im) if isinstance(v, GaussianRational) else (Fraction(v), Fraction(0))

    def draw():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-5, 5)
        if kind == 1:
            return random_rational(rng)
        if kind == 2:
            return GaussianRational(random_rational(rng))
        return random_gaussian(rng)

    for _ in range(400):
        a, b = draw(), draw()
        if not isinstance(a, GaussianRational) and not isinstance(b, GaussianRational):
            continue
        (ar, ai), (br, bi) = parts(a), parts(b)
        n = br * br + bi * bi
        expected = {
            operator.add: (ar + br, ai + bi),
            operator.sub: (ar - br, ai - bi),
            operator.mul: (ar * br - ai * bi, ar * bi + ai * br),
            operator.truediv: ((ar * br + ai * bi) / n, (ai * br - ar * bi) / n) if n else None,
        }
        for op, want in expected.items():
            if want is None:
                with pytest.raises((DivisionByZero, ZeroDivisionError)):
                    op(a, b)
                continue
            got = op(a, b)
            assert isinstance(got, GaussianRational)
            assert (got.re, got.im) == want and type(got.re) is type(got.im) is Fraction
        assert parts(-a) == (-ar, -ai)
