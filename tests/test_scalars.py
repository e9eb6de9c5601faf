import functools
import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ybx.spectral import QuadSurd


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


# -- the one quadratic-field arithmetic: GaussianRational (d = -1) and QuadSurd ---------------

FIELD_CHECKS = settings(derandomize=True, database=None, max_examples=60, deadline=None)
RADICANDS = (-1, -3, 2, 5)          # -1: GaussianRational, the others QuadSurd
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def quadratic(d, a, b):
    return GaussianRational(a, b) if d == -1 else QuadSurd(a, b, d)


def field_values(d):
    return st.builds(lambda a, b: quadratic(d, a, b), rationals, rationals)


def operands(d):
    """A value of the field, or an int or Fraction operand."""
    return st.one_of(field_values(d), st.integers(-5, 5), rationals)


def parts(value, d):
    if isinstance(value, (int, Fraction)):
        return Fraction(value), Fraction(0)
    assert isinstance(value, GaussianRational if d == -1 else QuadSurd) and value.d == d
    return value.a, value.b


@functools.cache
def sympy_field(d):
    """sympy's Q(sqrt(d)), whose element [b, a] is b sqrt(d) + a."""
    K = sympy.QQ.algebraic_field(sympy.sqrt(d))
    assert K.to_sympy(K.new([1, 0])) == sympy.sqrt(d)
    return K


def in_sympy_field(value, d):
    return sympy_field(d).new([sympy.QQ(x.numerator, x.denominator) for x in parts(value, d)[::-1]])


def to_sympy(value, d):
    a, b = (sympy.Rational(x.numerator, x.denominator) for x in parts(value, d))
    return a + b * sympy.sqrt(d)


@pytest.mark.parametrize("d", RADICANDS)
@FIELD_CHECKS
@given(data=st.data())
def test_field_operations_match_sympy_in_both_orders(d, data):
    x, y = data.draw(field_values(d)), data.draw(operands(d))
    kx, ky = in_sympy_field(x, d), in_sympy_field(y, d)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for left, right, kl, kr in ((x, y, kx, ky), (y, x, ky, kx)):
            if op is operator.truediv and not right:
                continue
            got = op(left, right)
            assert type(got) is type(x) and type(got.a) is type(got.b) is Fraction
            assert in_sympy_field(got, d) == op(kl, kr), (op, left, right)
    assert in_sympy_field(-x, d) == -kx


@pytest.mark.parametrize("d", RADICANDS)
@FIELD_CHECKS
@given(data=st.data())
def test_powers_and_conjugates_match_sympy(d, data):
    x = data.draw(field_values(d))
    kx = in_sympy_field(x, d)
    for k in range(-3, 4):
        if k < 0 and not x:
            with pytest.raises(DivisionByZero):
                x ** k
            continue
        want = kx ** k if k >= 0 else sympy_field(d).one / kx ** -k
        assert in_sympy_field(x ** k, d) == want, k
    # complex conjugation when d < 0, sqrt(d) -> -sqrt(d) otherwise
    sx, root = to_sympy(x, d), sympy.sqrt(d)
    want = sympy.conjugate(sx) if d < 0 else sx.subs(root, -root)
    assert sympy.expand(to_sympy(x.conjugate(), d) - want) == 0


@pytest.mark.parametrize("d", RADICANDS)
@FIELD_CHECKS
@given(a=rationals, b=rationals)
def test_equality_and_hash_follow_the_rationals_when_b_is_0(d, a, b):
    rational = quadratic(d, a, 0)
    assert rational == a and hash(rational) == hash(a)
    if a.denominator == 1:
        assert rational == int(a) and hash(rational) == hash(int(a))
    x = quadratic(d, a, b)
    assert (x == a) is (b == 0)
    assert hash(x) == (hash(a) if b == 0 else hash((a, b) if d == -1 else (a, b, d)))


@FIELD_CHECKS
@given(a=rationals, b=rationals)
def test_gaussian_complex_is_the_pair_of_floats(a, b):
    g = GaussianRational(a, b)
    assert complex(g) == complex(float(g.re), float(g.im))
    assert to_complex(g) == complex(g)


def test_quadratic_forms_and_surd_floats():
    assert repr(GaussianRational(1, 2)) == "GaussianRational(Fraction(1, 1), Fraction(2, 1))"
    assert repr(QuadSurd(0, Fraction(1, 3), 3)) == "QuadSurd(0, 1/3, 3)"
    assert str(QuadSurd(0, -1, 2)) == "-1*sqrt(2)"
    assert complex(QuadSurd(1, 2, 5)) == pytest.approx(1 + 2 * 5 ** 0.5)
    assert complex(QuadSurd(1, 2, -3)) == pytest.approx(complex(1, 2 * 3 ** 0.5))


def test_quadratic_mixing_rules():
    g, s, t = GaussianRational(1, 2), QuadSurd(1, 2, 2), QuadSurd(3, 1, 3)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for left, right in ((g, s), (s, g)):         # a Gaussian and a surd never combine
        for op in ops:
            with pytest.raises(TypeError):
                op(left, right)
        assert left != right
    for op in ops:
        with pytest.raises(ValueError, match="mixed radicands"):
            op(s, t)
    for rational in (QuadSurd(5, 0, 7), QuadSurd(Fraction(1, 2), 0, -3)):
        for op in ops:                            # b = 0 combines with any d
            for got, want in ((op(s, rational), op(s, rational.a)),
                              (op(rational, s), op(rational.a, s))):
                assert got.d == 2 and got == want


def test_quadratic_division_by_zero_and_immutability():
    for x in (GaussianRational(1, 2), QuadSurd(1, 2, 2), QuadSurd(1, 2, -3)):
        zero = quadratic(x.d, 0, 0)
        for divisor in (0, Fraction(0), zero):
            with pytest.raises(DivisionByZero):
                x / divisor
        with pytest.raises(DivisionByZero):
            1 / zero
        for name in ("a", "b", "d", "re", "im", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)


def test_surds_have_no_gaussian_parts():
    # perfbench/oracle.py:as_complex reads any value with both re and im as a
    # Gaussian rational; a surd that had them would read sqrt(1/3) as i/3
    s = QuadSurd(0, Fraction(1, 3), 3)
    assert not hasattr(s, "re") and not hasattr(s, "im")
    assert (GaussianRational(1, 2).re, GaussianRational(1, 2).im) == (1, 2)
