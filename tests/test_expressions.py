import random
from fractions import Fraction

import pytest

from ybx.errors import (
    ConstraintViolated,
    DivisionByZero,
    ExhaustedRetries,
    ParseError,
    SizeCeiling,
    UnboundParam,
)
from ybx.expressions import (
    Mul,
    ParamBinding,
    eval_expr,
    parse_expr,
    sample_binding,
)
from ybx.scalars import GaussianRational


def test_eval_examples():
    assert eval_expr("p^2 - q^2", ParamBinding.of(p=2, q=1)) == 3
    # the y = x + 1 substitution used by the cabling worked example
    assert eval_expr("x+1", ParamBinding.of(x=2)) == 3
    assert eval_expr("(1+i)/2") == GaussianRational(Fraction(1, 2), Fraction(1, 2))


def test_grammar_details():
    assert eval_expr("3/2") == Fraction(3, 2)
    assert eval_expr(" 1 + 2 * 3 ") == 7
    assert eval_expr("-2^2") == -4  # unary minus applies to the powered atom
    assert eval_expr("(1+2)^2") == 9
    assert eval_expr("2^-1") == Fraction(1, 2)
    assert eval_expr("1/2/2") == Fraction(1, 4)
    assert eval_expr("a/b", ParamBinding.of(a=3, b=2)) == Fraction(3, 2)
    with pytest.raises(ParseError):
        parse_expr("1 +")
    with pytest.raises(ParseError):
        parse_expr("(1")
    with pytest.raises(ParseError):
        parse_expr("1 2")


def test_eval_errors():
    with pytest.raises(UnboundParam):
        eval_expr("x+1")
    with pytest.raises(DivisionByZero):
        eval_expr("1/x", ParamBinding.of(x=0))
    with pytest.raises(DivisionByZero):
        eval_expr("x^-1", ParamBinding.of(x=0))


def test_powers_are_bounded_by_their_result_size():
    # |exponent| times the bits of the base's largest numerator or denominator
    assert eval_expr("2^1000") == 2 ** 1000
    assert eval_expr("(2/3)^-1000") == Fraction(3, 2) ** 1000
    assert eval_expr("(1+i)^4") == -4
    assert eval_expr("x^4999", ParamBinding.of(x=-2)) == -(2 ** 4999)
    for text in ("3^100000", "2^100000000", "(1/3)^-100000", "(1+3*i)^100000", "2^5001"):
        with pytest.raises(SizeCeiling, match="ceiling"):
            eval_expr(text)


def test_every_exact_node_is_bounded_by_its_result_size():
    assert eval_expr("(2^4999)^2*2") == 2 ** 9999
    assert eval_expr("2^5000*2^4999/2^4999") == 2 ** 5000
    for text in ("(2^4999)^2*(2^4999)^2", "2^5000*2^5001", "2^9999+2^9999",
                 "(2^9999-1)/(2^9999+1)*3/2", "(2^9999+0*i)*2*i"):
        with pytest.raises(SizeCeiling, match="bits, more than the ceiling 10000"):
            eval_expr(text)


def test_complex_powers_that_overflow_raise_size_ceiling():
    assert eval_expr("x^3", ParamBinding({"x": 2 + 0j})) == 8
    for base, exponent in ((1.5 + 0j, 100000000), (0.5 + 0j, -100000000)):
        with pytest.raises(SizeCeiling, match="overflows a complex float"):
            eval_expr(f"x^{exponent}", ParamBinding({"x": base}))


def test_eval_is_multiplicative():
    rng = random.Random(5)
    e1 = parse_expr("x^2 - y + 1/2")
    e2 = parse_expr("(x + y)/3")
    for _ in range(50):
        binding = ParamBinding.of(
            x=Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            y=Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        assert eval_expr(Mul(e1, e2), binding) == eval_expr(e1, binding) * eval_expr(e2, binding)


def test_sample_binding():
    b1 = sample_binding(["k", "p", "q", "s"], ["k", "p*q"], seed=1)
    assert all(b1[name] != 0 for name in ["k", "p", "q"])
    b2 = sample_binding(["k", "p", "q", "s"], ["k", "p*q"], seed=1)
    assert b1.values == b2.values  # deterministic per seed
    b3 = sample_binding(["x"], ["x", "x+1"], seed=7)
    assert b3["x"] not in (0, -1)
    for name, value in b3.values.items():
        assert abs(value.numerator) <= 13 and value.denominator <= 13
    assert sample_binding([], [], seed=0).values == {}


def test_sample_binding_exhaustion():
    with pytest.raises(ExhaustedRetries):
        sample_binding(["x"], ["x-x"], seed=0)


def test_sample_binding_names_a_constraint_the_given_values_break():
    # no draw of q can help, so the constraint is named before any draw
    with pytest.raises(ConstraintViolated, match="'k'"):
        sample_binding(["q"], ["q", "k"], seed=0, given={"k": Fraction(0)})
    with pytest.raises(DivisionByZero):
        sample_binding(["q"], ["1/k"], seed=0, given={"k": Fraction(0)})
    assert sample_binding(["q"], ["q*k"], seed=0, given={"k": Fraction(2)})["q"] != 0


def test_sample_binding_keeps_a_given_value_of_a_sampled_name():
    assert sample_binding(["k"], ["k"], 0, {"k": Fraction(5)})["k"] == 5
    b = sample_binding(["k", "q"], ["k", "q"], 0, {"k": Fraction(5)})
    assert b["k"] == 5 and b["q"] != 0
    with pytest.raises(ConstraintViolated, match="'k'"):
        sample_binding(["k", "q"], ["k"], 0, {"k": Fraction(0)})


def test_params_collection():
    assert parse_expr("(a+b)*c^2 - i").params() == {"a", "b", "c"}
