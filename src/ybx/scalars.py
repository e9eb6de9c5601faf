"""Scalar values in the three arithmetic backends.

Values are plain Python objects:

* ``exact-q``   -- :class:`fractions.Fraction`, always in lowest terms with a
  positive denominator (the Fraction class guarantees this),
* ``exact-qi``  -- :class:`GaussianRational`, a pair of Fractions ``re + im*i``,
* ``complex-f`` -- built-in :class:`complex`.

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


class GaussianRational:
    """Exact Gaussian rational a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @classmethod
    def _of(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        """The value re + im*i from two Fractions, taken as they are."""
        value = object.__new__(cls)
        object.__setattr__(value, "re", re)
        object.__setattr__(value, "im", im)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _parts(other):
        """(re, im) of an operand with im None when it is 0, or None if the
        operand is not an exact scalar.  Every result below combines a part
        of self, a Fraction, so it is a Fraction and needs no re-wrapping."""
        if isinstance(other, GaussianRational):
            return other.re, other.im or None
        if isinstance(other, (int, Fraction)):
            return other, None
        return None

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        re, im = o
        return _gr(self.re + re, self.im if im is None else self.im + im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        re, im = o
        return _gr(self.re - re, self.im if im is None else self.im - im)

    def __rsub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        re, im = o
        return _gr(re - self.re, -self.im if im is None else im - self.im)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        re, im = o
        if im is None:
            return _gr(self.re * re, self.im * re)
        if not self.im:
            return _gr(self.re * re, self.re * im)
        return _gr(self.re * re - self.im * im, self.re * im + self.im * re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        re, im = o
        if im is None:
            if not re:
                raise DivisionByZero("division by zero Gaussian rational")
            return _gr(self.re / re, self.im / re)
        n = re * re + im * im
        return _gr((self.re * re + self.im * im) / n, (self.im * re - self.re * im) / n)

    def __rtruediv__(self, other):
        if self._parts(other) is None:
            return NotImplemented
        return GaussianRational(other) / self

    def __neg__(self):
        return _gr(-self.re, -self.im)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return GaussianRational(1) / self ** (-exponent)
        result = GaussianRational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return _gr(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

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


def to_complex(value) -> complex:
    if isinstance(value, GaussianRational):
        return complex(float(value.re), float(value.im))
    return complex(value)


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
