"""Spectra and Jordan structure.

Exact path: the characteristic polynomial is computed by Faddeev-LeVerrier
over the matrix's exact field.  Its linear factors over Q (or Q(i)), then its
quadratic factors over Q, are split off by ``poly.rational_factors``, which
reads numeric roots as rationals and keeps what divides exactly; a quadratic
left at the end is a factor too.  Quadratics are solved by radicals, giving
quadratic surds ``a + b*sqrt(d)``.  A polynomial that resists this is
reported as :class:`UnfactoredSpectrum` so the caller may retry on the
complex backend.

Complex path: numpy eigenvalues clustered at the global tolerance, with block
sizes read from numeric ranks of powers of (A - lambda I).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionMismatch, UnfactoredSpectrum
from .poly import rational_factors
from .scalars import Backend, GaussianRational, one, to_complex, zero
from .tensor import Matrix, kron

# -- quadratic surds ----------------------------------------------------------


def _square_part(n: int) -> tuple[int, int]:
    """n = s^2 * d with d free of square factors up to the trial bound."""
    s, d = 1, n
    f = 2
    while f * f <= min(d, 10 ** 6):
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    return s, d


class QuadSurd:
    """Exact value a + b*sqrt(d) with rational a, b and non-square integer d."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d

    def _coerce(self, other):
        if isinstance(other, QuadSurd):
            if other.d != self.d and other.b != 0 and self.b != 0:
                raise ValueError("mixed radicands")
            d = self.d if self.b != 0 else other.d
            return QuadSurd(other.a, other.b, d)
        if isinstance(other, (int, Fraction)):
            return QuadSurd(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadSurd(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadSurd(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadSurd(o.a - self.a, o.b - self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadSurd(
            self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.a * o.a - o.b * o.b * self.d
        if n == 0:
            raise ZeroDivisionError("division by zero surd")
        return self * QuadSurd(o.a / n, -o.b / n, self.d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return QuadSurd(-self.a, -self.b, self.d)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, QuadSurd):
            return self.a == other.a and self.b == other.b and (
                self.b == 0 or self.d == other.d
            )
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def to_complex(self) -> complex:
        root = complex(0.0, abs(self.d) ** 0.5) if self.d < 0 else complex(self.d ** 0.5)
        return complex(float(self.a)) + float(self.b) * root

    def __repr__(self):
        return f"QuadSurd({self.a}, {self.b}, {self.d})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        core = f"sqrt({self.d})" if self.b == 1 else f"{self.b}*sqrt({self.d})"
        return core if self.a == 0 else f"{self.a}+{core}"


def eig_to_complex(value) -> complex:
    if isinstance(value, QuadSurd):
        return value.to_complex()
    return to_complex(value)


def rational_sqrt(value: Fraction):
    """Exact square root of a rational as Fraction, GaussianRational or QuadSurd."""
    if value == 0:
        return Fraction(0)
    num, den = value.numerator, value.denominator
    m = abs(num) * den
    s, d = _square_part(m)
    if num < 0:
        if d == 1:
            return GaussianRational(0, Fraction(s, den))
        return QuadSurd(0, Fraction(s, den), -d)
    if d == 1:
        return Fraction(s, den)
    return QuadSurd(0, Fraction(s, den), d)


# -- characteristic polynomial ------------------------------------------------


def char_poly(M: Matrix) -> list:
    """Monic characteristic polynomial, coefficients low degree first."""
    if not M.is_square():
        raise DimensionMismatch("char_poly of non-square matrix")
    M._require_exact("char_poly")
    n = M.rows
    o, z = one(M.backend), zero(M.backend)
    coeffs = [z] * (n + 1)
    coeffs[n] = o
    Mk = M
    ck = z
    for k in range(1, n + 1):
        if k > 1:
            shift = Matrix.identity(n, M.backend).scale(ck)
            Mk = M.mul(Mk.add(shift))
        ck = -Mk.trace() / k
        coeffs[n - k] = ck
    return coeffs


# -- exact spectrum -----------------------------------------------------------


def _solve_quadratic(c0, c1) -> list:
    """Exact roots of x^2 + c1 x + c0 with rational coefficients."""
    b, c = _as_fraction(c1), _as_fraction(c0)
    root = rational_sqrt(b * b - 4 * c)
    return [(-b + root) / 2, (-b - root) / 2]


def exact_spectrum(M: Matrix) -> list:
    """Multiset of eigenvalues as (value, algebraic multiplicity) pairs: the
    rational (or Gaussian-rational) roots of the characteristic polynomial,
    then the roots of its rational quadratic factors."""
    linear, rest = rational_factors(char_poly(M), 1)
    if len(rest) % 2 == 0:
        raise UnfactoredSpectrum(f"cannot factor residual of degree {len(rest) - 1}")
    quadratic, rest = rational_factors(rest, 2)
    if len(rest) == 3:  # a last quadratic is a factor, whatever its denominators
        quadratic, rest = quadratic + [rest], rest[2:]
    if len(rest) > 1:
        raise UnfactoredSpectrum("no rational quadratic factor found")
    roots = [-f[0] for f in linear] + [r for f in quadratic for r in _solve_quadratic(*f[:2])]
    return sorted(Counter(roots).items(), key=lambda kv: _eig_sort_key(kv[0]))


def _eig_sort_key(value):
    z = eig_to_complex(value)
    return (round(z.real, 9), round(z.imag, 9), str(value))


# -- complex spectrum ---------------------------------------------------------


def complexf_spectrum(M: Matrix, tol: float = DEFAULT_TOL) -> list:
    arr = M.to_numpy()
    eigs = np.linalg.eigvals(arr)
    scale = max(1.0, float(np.max(np.abs(eigs))) if len(eigs) else 1.0)
    clusters: list[list[complex]] = []
    for z in sorted(eigs, key=lambda w: (w.real, w.imag)):
        for cl in clusters:
            if abs(z - cl[0]) <= 1e3 * tol * scale:
                cl.append(z)
                break
        else:
            clusters.append([complex(z)])
    out = [(complex(np.mean(cl)), len(cl)) for cl in clusters]
    return sorted(out, key=lambda kv: _eig_sort_key(kv[0]))


def spectrum(M: Matrix, tol: float | None = None) -> list:
    """Eigenvalues with algebraic multiplicities; exact when the backend is."""
    if M.backend.is_exact:
        return exact_spectrum(M)
    return complexf_spectrum(M, DEFAULT_TOL if tol is None else tol)


# -- jordan structure ---------------------------------------------------------


def _lifted(M: Matrix, eigenvalue):
    """(M - eigenvalue I) over an exact field and the factor its ranks carry.

    For a surd eigenvalue a + b sqrt(d) the matrix is realified over Q, each
    x + y sqrt(d) acting as [[x, d y], [y, x]] on the pair (1, sqrt(d)), so
    products stay products and every rank is doubled."""
    n = M.rows
    if isinstance(eigenvalue, QuadSurd):
        a, b, d = eigenvalue.a, eigenvalue.b, eigenvalue.d
        real = Matrix.from_rows([[_as_fraction(v) for v in row] for row in M.data])
        surd = Matrix.from_rows([[a, b * d], [b, a]])
        return kron(Matrix.identity(2), real).sub(kron(surd, Matrix.identity(n))), 2
    if isinstance(eigenvalue, GaussianRational) or M.backend is Backend.EXACT_QI:
        rows = [[GaussianRational(v) if not isinstance(v, GaussianRational) else v
                 for v in row] for row in M.data]
    else:
        rows = [list(row) for row in M.data]
    for i in range(n):
        rows[i][i] = rows[i][i] - eigenvalue
    return Matrix(n, n, M.backend, rows), 1


def _as_fraction(v) -> Fraction:
    if isinstance(v, GaussianRational):
        if v.im != 0:
            raise UnfactoredSpectrum("surd eigenvalue with Gaussian matrix entries")
        return v.re
    return Fraction(v)


def jordan_structure(M: Matrix, tol: float | None = None) -> list:
    """Jordan data as (eigenvalue, sorted block sizes descending) pairs."""
    if not M.is_square():
        raise DimensionMismatch("jordan_structure of non-square matrix")
    n = M.rows
    if M.backend.is_exact:
        spec = exact_spectrum(M)
        out = []
        for lam, mult in spec:
            if mult == 1:
                out.append((lam, [1]))
                continue
            base, scale = _lifted(M, lam)
            ranks = [n]
            power = base
            while len(ranks) <= mult:
                ranks.append(power.rank() // scale)
                if ranks[-1] == ranks[-2]:
                    break
                power = power.mul(base)
            out.append((lam, _blocks_from_ranks(ranks, mult)))
        return out
    tol = DEFAULT_TOL if tol is None else tol
    arr = M.to_numpy()
    spec = complexf_spectrum(M, tol)
    scale = max(1.0, float(np.max(np.abs(arr))))
    out = []
    for lam, mult in spec:
        if mult == 1:
            out.append((lam, [1]))
            continue
        base = arr - lam * np.eye(n)
        ranks = [n]
        power = base.copy()
        while len(ranks) <= mult:
            sv = np.linalg.svd(power, compute_uv=False)
            cutoff = 1e3 * tol * max(scale, float(sv[0]) if len(sv) else 1.0)
            r = int(np.sum(sv > cutoff))
            ranks.append(r)
            if ranks[-1] == ranks[-2]:
                break
            power = power @ base
        out.append((lam, _blocks_from_ranks(ranks, mult)))
    return out


def _blocks_from_ranks(ranks: list, mult: int) -> list:
    # nu_k = r_{k-1} - r_k counts Jordan blocks of size >= k; once the rank
    # sequence stabilises all later nu vanish and sum(nu) = mult.
    nus = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    blocks = []
    for k in range(len(nus)):
        here = nus[k] - (nus[k + 1] if k + 1 < len(nus) else 0)
        blocks.extend([k + 1] * here)
    if sum(blocks) != mult:
        raise UnfactoredSpectrum("inconsistent rank sequence for Jordan blocks")
    return sorted(blocks, reverse=True)
