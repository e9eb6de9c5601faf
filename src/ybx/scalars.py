"""Scalar values in the three arithmetic backends.

Values are plain Python objects:

* ``exact-q``   -- :class:`fractions.Fraction`, always in lowest terms with a
  positive denominator (the Fraction class guarantees this),
* ``exact-qi``  -- :class:`GaussianRational`, a pair of Fractions ``re + im*i``:
  the case d = -1 of the one quadratic-field class ``_Quadratic``, whose
  arithmetic of a + b*sqrt(d) ``spectral.QuadSurd`` shares,
* ``complex-f`` -- built-in :class:`complex`; ``to_complex`` is ``complex``.

Backends never mix silently.  ``join_backend`` computes the least common
backend of two values and ``promote`` converts a value upward along
exact-q -> exact-qi -> complex-f.  Downward conversion is not provided.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .errors import BackendMismatch, DivisionByZero


class Backend(Enum):
    EXACT_Q = "exact-q"
    EXACT_QI = "exact-qi"
    COMPLEX_F = "complex-f"

    @property
    def is_exact(self) -> bool:
        return self is not Backend.COMPLEX_F


_ORDER = {Backend.EXACT_Q: 0, Backend.EXACT_QI: 1, Backend.COMPLEX_F: 2}
_new, _set = object.__new__, object.__setattr__


def _times_d(d: int, x: Fraction) -> Fraction:
    """d x, by a negation at d = -1."""
    return -x if d == -1 else d * x


class _Quadratic:
    """Immutable exact a + b*sqrt(d), a and b rational, d a non-square integer:
    Q(sqrt(d)) by one rule for every d (Cohen, GTM 138, section 5.1).  d is the
    class's for :class:`GaussianRational` (-1) and each value's for
    ``spectral.QuadSurd``.  Values combine when of one class and with one d, or
    when either has b = 0; else a TypeError, or for surds a ValueError."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        _set(self, "a", Fraction(a))
        _set(self, "b", Fraction(b))

    @classmethod
    def _of(cls, a: Fraction, b: Fraction, d: int = -1):
        """The value a + b*sqrt(d) from two Fractions, taken as they are; d is
        left out where the class fixes it."""
        value = _new(cls)
        _set(value, "a", a)
        _set(value, "b", b)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _parts(self, other):
        """(a, b, d) of an operand, b None when 0 and d the result's, or None if it
        does not combine with self.  Each result part below has a part of self, a
        Fraction, in it, so it is a Fraction and needs no re-wrapping."""
        if type(other) is type(self):
            d = self.d
            if other.d != d:
                if other.b and self.b:
                    raise ValueError("mixed radicands")
                if not self.b:
                    d = other.d
            return other.a, other.b or None, d
        if isinstance(other, (int, Fraction)):
            return other, None, self.d
        return None

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        return self._of(self.a + a, self.b if b is None else self.b + b, d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        return self._of(self.a - a, self.b if b is None else self.b - b, d)

    def __rsub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        return self._of(a - self.a, -self.b if b is None else b - self.b, d)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        if b is None:
            return self._of(self.a * a, self.b * a, d)
        if not self.b:
            return self._of(self.a * a, self.a * b, d)
        return self._of(self.a * a + _times_d(d, self.b * b), self.a * b + self.b * a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        if b is None:
            if not a:
                raise DivisionByZero("division by zero")
            return self._of(self.a / a, self.b / a, d)
        n = a * a - _times_d(d, b * b)
        return self._of((self.a * a - _times_d(d, self.b * b)) / n, (self.b * a - self.a * b) / n, d)

    def __rtruediv__(self, other):
        o = self._parts(other)
        return NotImplemented if o is None else self._of(Fraction(o[0]), Fraction(0), o[2]) / self

    def __neg__(self):
        return self._of(-self.a, -self.b, self.d)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return 1 / self ** (-exponent)
        result, base = self._of(Fraction(1), Fraction(0), self.d), self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conjugate(self):
        """a - b*sqrt(d), the other root of the value's minimal polynomial:
        the complex conjugate when d < 0."""
        return self._of(self.a, -self.b, self.d)

    def __eq__(self, other):
        if type(other) is type(self):
            return self.a == other.a and self.b == other.b and (not self.b or self.d == other.d)
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self):
        # a rational value hashes as its Fraction, and a Gaussian on (a, b) alone
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b) if self.d == -1 else (self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a or self.b)

    def __complex__(self):
        b = float(self.b) * abs(self.d) ** 0.5             # float(b) itself at d = -1
        return complex(float(self.a), b) if self.d < 0 else complex(float(self.a) + b)


class GaussianRational(_Quadratic):
    """Exact Gaussian rational re + im*i with rational re, im: the case d = -1
    of :class:`_Quadratic`, re and im naming its parts a and b."""

    __slots__ = ()
    d = -1
    re, im = _Quadratic.a, _Quadratic.b                  # the same slots, read as fast

    def __init__(self, re=0, im=0):
        super().__init__(re, im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


_gr = GaussianRational._of
I_QI = GaussianRational(0, 1)


def backend_of(value) -> Backend:
    if isinstance(value, (Fraction, int)):
        return Backend.EXACT_Q
    if isinstance(value, GaussianRational):
        return Backend.EXACT_QI
    if isinstance(value, (complex, float)):
        return Backend.COMPLEX_F
    raise BackendMismatch(f"not a scalar: {value!r}")


def join_backend(a: Backend, b: Backend) -> Backend:
    return a if _ORDER[a] >= _ORDER[b] else b


def promote(value, backend: Backend):
    """Convert ``value`` upward to ``backend``; downward conversion raises."""
    have = backend_of(value)
    if _ORDER[have] > _ORDER[backend]:
        raise BackendMismatch(f"cannot demote {have.value} to {backend.value}")
    if backend is Backend.EXACT_Q:
        return Fraction(value) if isinstance(value, int) else value
    if backend is Backend.EXACT_QI:
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)
    return to_complex(value)


to_complex = complex                                   # a GaussianRational by its __complex__


def conjugate_scalar(value):
    if isinstance(value, (Fraction, int)):
        return value
    return value.conjugate()


def scalar_abs(value) -> float:
    return abs(to_complex(value))


def zero(backend: Backend):
    if backend is Backend.EXACT_Q:
        return Fraction(0)
    if backend is Backend.EXACT_QI:
        return GaussianRational(0)
    return complex(0)


def one(backend: Backend):
    if backend is Backend.EXACT_Q:
        return Fraction(1)
    if backend is Backend.EXACT_QI:
        return GaussianRational(1)
    return complex(1)


def scalar_eq(a, b, tol: float | None = None) -> bool:
    """Equality within one backend; complex-f compares with |a-b| <= tol."""
    ba, bb = backend_of(a), backend_of(b)
    target = join_backend(ba, bb)
    if target.is_exact:
        return promote(a, target) == promote(b, target)
    if tol is None:
        from .config import DEFAULT_TOL

        tol = DEFAULT_TOL
    return abs(to_complex(a) - to_complex(b)) <= tol


def format_scalar(value) -> str:
    """Render an exact scalar in the expression grammar; floats via repr."""
    if isinstance(value, int):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, GaussianRational):
        re, im = value.re, value.im
        if im == 0:
            return str(re)
        if im == 1:
            ipart = "i"
        elif im == -1:
            ipart = "-i"
        elif im < 0:
            ipart = f"-{-im}*i"
        else:
            ipart = f"{im}*i"
        if re == 0:
            return ipart
        sign = "" if ipart.startswith("-") else "+"
        return f"{re}{sign}{ipart}"
    c = to_complex(value)
    return repr(c)
