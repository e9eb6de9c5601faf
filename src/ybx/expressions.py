"""Symbolic entry expressions and parameter bindings.

Grammar (whitespace insignificant, ``i`` reserved for the imaginary unit)::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-'? atom ('^' int)?
    atom     := rational | 'i' | ident | '(' expr ')'
    rational := int ('/' int)?

Expressions evaluate against a total binding of parameter names to scalars.
Evaluation is exact whenever every leaf is exact.  The parser refuses a tree
more than ``_MAX_DEPTH`` levels deep, or parentheses nested deeper than that:
evaluation and formatting recurse once per level, and the parser four times
per parenthesis, so both stay inside Python's recursion limit of 1000.
An exact power is refused before it is computed when its result could have
more than ``_MAX_BITS`` bits, and any other exact node once its result has.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConstraintViolated,
    DivisionByZero,
    ExhaustedRetries,
    ParseError,
    SizeCeiling,
    UnboundParam,
)
from .scalars import (
    I_QI,
    GaussianRational,
    backend_of,
    join_backend,
    promote,
)


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()

    def params(self) -> set[str]:
        out, stack = set(), [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Param):
                out.add(node.name)
            stack.extend(_children(node))
        return out

    def __str__(self) -> str:
        return format_expr(self)


@dataclass(frozen=True)
class RationalLit(Expr):
    value: Fraction


@dataclass(frozen=True)
class ImagUnit(Expr):
    pass


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class PowInt(Expr):
    base: Expr
    exponent: int


def _children(node: Expr) -> tuple:
    if isinstance(node, (Add, Sub, Mul, Div)):
        return node.left, node.right
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, PowInt):
        return (node.base,)
    return ()


def _height(node: Expr) -> int:
    """The number of levels of the tree under node, counted without recursion."""
    height, level = 0, [node]
    while level:
        height, level = height + 1, [c for n in level for c in _children(n)]
    return height


@dataclass(frozen=True)
class ParamBinding:
    """Map from parameter names to scalar values, tagged with the seed used."""

    values: dict
    seed: int = 0

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def __getitem__(self, name: str):
        return self.values[name]

    @staticmethod
    def of(**kwargs) -> "ParamBinding":
        vals = {k: Fraction(v) if isinstance(v, int) else v for k, v in kwargs.items()}
        return ParamBinding(vals)


def eval_expr(expr, binding: ParamBinding | None = None):
    """Evaluate ``expr`` (an Expr or source string) to a scalar."""
    if isinstance(expr, str):
        expr = parse_expr(expr)
    if binding is None:
        binding = ParamBinding({})
    return _eval(expr, binding)


def _eval(node: Expr, binding: ParamBinding):
    if isinstance(node, RationalLit):
        return node.value
    if isinstance(node, ImagUnit):
        return I_QI
    if isinstance(node, Param):
        if node.name not in binding:
            raise UnboundParam(f"unbound parameter {node.name!r}")
        return binding[node.name]
    if isinstance(node, Neg):
        return -_eval(node.operand, binding)
    if isinstance(node, PowInt):
        base = _eval(node.base, binding)
        if node.exponent < 0 and not base:
            raise DivisionByZero("zero raised to a negative power")
        if isinstance(base, (complex, float)):
            try:
                return complex(base) ** node.exponent
            except OverflowError:
                raise SizeCeiling(f"{format_expr(node)} overflows a complex float") from None
        bits = abs(node.exponent) * _bits(base)
        if bits > _MAX_BITS:
            raise SizeCeiling(f"{format_expr(node)} could have {bits} bits, "
                              f"more than the ceiling {_MAX_BITS}")
        if node.exponent < 0:
            inv = Fraction(1) / base if isinstance(base, Fraction) else 1 / base
            return inv ** (-node.exponent)
        return base ** node.exponent
    left = _eval(node.left, binding)
    right = _eval(node.right, binding)
    target = join_backend(backend_of(left), backend_of(right))
    left, right = promote(left, target), promote(right, target)
    if isinstance(node, Div) and not right:
        raise DivisionByZero(f"division by zero in {format_expr(node)}")
    out = _BINARY[type(node)](left, right)
    bits = _bits(out) if target.is_exact else 0
    if bits > _MAX_BITS:
        raise SizeCeiling(f"{format_expr(node)} has {bits} bits, "
                          f"more than the ceiling {_MAX_BITS}")
    return out


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _bits(value) -> int:
    """Bits of an exact value's largest numerator or denominator."""
    parts = (value.re, value.im) if isinstance(value, GaussianRational) else (value,)
    return max(v.bit_length() for x in parts for v in (x.numerator, x.denominator))


# -- parser -----------------------------------------------------------------

_MAX_DEPTH = 200

# Bits of an exact value's largest numerator or denominator, for the result of
# every + - * / node and, bounded by |exponent| times its base's, before each
# power: below the 14,284 bits (4300 digits) Python converts to text by
# default, so a bound value can still be printed
_MAX_BITS = 10_000



class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0      # parentheses open at pos

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def peek_raw(self) -> str:
        """Next character without skipping whitespace (token interiors)."""
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        got = self.take()
        if got != ch:
            raise ParseError(f"expected {ch!r} at position {self.pos} of {self.text!r}")


def parse_expr(text: str) -> Expr:
    toks = _Tokens(text)
    node = _parse_sum(toks)
    if toks.peek():
        raise ParseError(f"trailing input at position {toks.pos} of {text!r}")
    if len(text) > _MAX_DEPTH and _height(node) > _MAX_DEPTH:     # a node per character at most
        raise ParseError(f"expression deeper than {_MAX_DEPTH} levels "
                         f"(a chain of n terms is n deep)")
    return node


def _parse_sum(toks: _Tokens) -> Expr:
    node = _parse_term(toks)
    while toks.peek() and toks.peek() in "+-":
        op = toks.take()
        rhs = _parse_term(toks)
        node = Add(node, rhs) if op == "+" else Sub(node, rhs)
    return node


def _parse_term(toks: _Tokens) -> Expr:
    node = _parse_factor(toks)
    while toks.peek() and toks.peek() in "*/":
        op = toks.take()
        rhs = _parse_factor(toks)
        node = Mul(node, rhs) if op == "*" else Div(node, rhs)
    return node


def _parse_factor(toks: _Tokens) -> Expr:
    negate = False
    if toks.peek() == "-":
        toks.take()
        negate = True
    node = _parse_atom(toks)
    if toks.peek() == "^":
        toks.take()
        node = PowInt(node, _parse_int(toks))
    if negate:
        node = Neg(node)
    return node


def _parse_int(toks: _Tokens) -> int:
    sign = 1
    if toks.peek() == "-":
        toks.take()
        sign = -1
    digits = ""
    if toks.peek().isdigit():
        digits += toks.take()
        while toks.peek_raw().isdigit():
            digits += toks.take()
    if not digits:
        raise ParseError(f"expected integer at position {toks.pos} of {toks.text!r}")
    return sign * int(digits)


def _parse_atom(toks: _Tokens) -> Expr:
    ch = toks.peek()
    if ch == "(":
        toks.take()
        toks.depth += 1
        if toks.depth > _MAX_DEPTH:
            raise ParseError(f"parentheses nested deeper than {_MAX_DEPTH} levels "
                             f"at position {toks.pos}")
        node = _parse_sum(toks)
        toks.expect(")")
        toks.depth -= 1
        return node
    if ch.isdigit():
        num = _parse_int(toks)
        if toks.peek() == "/":
            save = toks.pos
            toks.take()
            if toks.peek().isdigit():
                den = _parse_int(toks)
                if den == 0:
                    raise ParseError("zero denominator in rational literal")
                return RationalLit(Fraction(num, den))
            toks.pos = save  # the '/' belongs to the enclosing term
        return RationalLit(Fraction(num))
    if ch.isalpha() or ch == "_":
        name = toks.take()
        while toks.peek_raw().isalnum() or toks.peek_raw() == "_":
            name += toks.take()
        if name == "i":
            return ImagUnit()
        return Param(name)
    raise ParseError(f"unexpected character {ch!r} at position {toks.pos}")


def format_expr(node: Expr) -> str:
    if isinstance(node, RationalLit):
        return str(node.value)
    if isinstance(node, ImagUnit):
        return "i"
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Neg):
        return f"-({format_expr(node.operand)})"
    if isinstance(node, PowInt):
        return f"({format_expr(node.base)})^{node.exponent}"
    ops = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
    op = ops[type(node)]
    return f"({format_expr(node.left)}{op}{format_expr(node.right)})"


# -- randomized sampling ----------------------------------------------------

_SAMPLE_BOUND = 13
_MAX_ATTEMPTS = 1000


def sample_binding(params, constraints, seed: int, given: dict | None = None) -> ParamBinding:
    """Random small-rational binding with every constraint evaluating nonzero.

    Numerators and denominators are bounded by `_SAMPLE_BOUND`; the result is
    deterministic per seed.  Values in `given` are kept as they are, and the
    constraints are evaluated over them and the sampled values together.
    Raises :class:`ConstraintViolated` before any draw when a constraint that
    depends on the given values alone vanishes there, and
    :class:`ExhaustedRetries` after 1000 attempts.
    """
    given = dict(given or {})
    params = [p for p in params if p not in given]
    parsed = [parse_expr(c) if isinstance(c, str) else c for c in constraints]
    fixed = ParamBinding(given)
    for cons, expr in zip(constraints, parsed):
        try:
            if not _eval(expr, fixed):
                raise ConstraintViolated(f"constraint {str(cons)!r} vanishes at the given values")
        except UnboundParam:
            continue  # depends on a sampled parameter
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        values = dict(given)
        for name in params:
            num = rng.randint(-_SAMPLE_BOUND, _SAMPLE_BOUND)
            den = rng.randint(1, _SAMPLE_BOUND)
            values[name] = Fraction(num, den)
        binding = ParamBinding(values, seed)
        try:
            if all(_eval(c, binding) for c in parsed):
                return binding
        except DivisionByZero:
            continue
    raise ExhaustedRetries(f"no binding found for constraints after {_MAX_ATTEMPTS} tries")
