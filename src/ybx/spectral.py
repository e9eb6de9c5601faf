"""Spectra and Jordan structure.

Exact path: the characteristic polynomial is computed by Faddeev-LeVerrier
over the matrix's exact field.  Its linear factors over Q (or Q(i)), then its
quadratic factors over Q, are split off by ``poly.rational_factors``, which
reads numeric roots as rationals and keeps what divides exactly; a quadratic
left at the end is a factor too.  Quadratics are solved by radicals, giving
quadratic surds ``a + b*sqrt(d)`` in the arithmetic that Gaussian
rationals share (``scalars._Quadratic``).  A polynomial that resists this
is reported as :class:`UnfactoredSpectrum` so the caller may retry on the
complex backend.  Jordan blocks come from exact ranks over the same field.

Complex path: numpy eigenvalues clustered at the global tolerance, with block
sizes read from numeric ranks of powers of (A - lambda I).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import isqrt

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionMismatch, UnfactoredSpectrum
from .poly import rational_factors
from .scalars import Backend, GaussianRational, _Quadratic, one, to_complex, zero
from .tensor import Matrix

# -- quadratic surds ----------------------------------------------------------


def _square_part(n: int) -> tuple[int, int]:
    """n = s^2 * d, d free of square factors up to the trial bound and 1 if n is a square."""
    s, d, rest = 1, 1, n
    f = 2
    while f * f <= min(rest, 10 ** 6):
        e = 0
        while rest % f == 0:
            rest, e = rest // f, e + 1
        s, d = s * f ** (e // 2), d * f ** (e % 2)
        f += 1
    r = isqrt(rest)
    return (s * r, d) if r * r == rest else (s, d * rest)


class QuadSurd(_Quadratic):
    """Exact value a + b*sqrt(d) with rational a, b and non-square integer d,
    in the arithmetic of ``scalars._Quadratic``, with its own d per value.  It
    has no re or im: ``perfbench/oracle.py:as_complex`` reads any value that
    has both as a Gaussian rational."""

    __slots__ = ("d",)

    def __init__(self, a, b, d: int):
        super().__init__(a, b)
        object.__setattr__(self, "d", d)

    @classmethod
    def _of(cls, a: Fraction, b: Fraction, d: int) -> "QuadSurd":
        return cls(a, b, d)

    def __repr__(self):
        return f"QuadSurd({self.a}, {self.b}, {self.d})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        core = f"sqrt({self.d})" if self.b == 1 else f"{self.b}*sqrt({self.d})"
        return core if self.a == 0 else f"{self.a}+{core}"


eig_to_complex = to_complex


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


def _minimal(M: Matrix, eigenvalue) -> tuple:
    """(q(M), deg q) for the minimal polynomial q of eigenvalue over M's field K, Q or Q(i).

    q = t - eigenvalue for an eigenvalue in K.  Any other (a surd, or a Gaussian of a
    rational matrix) is a + b*sqrt(d), a and b rational and b != 0, and q = (t - a)^2 - d b^2.
    M is fixed by the automorphism of K(sqrt(d)) that swaps q's roots, so both have the same
    Jordan data, and ker q(M)^k is the direct sum of the kernels of (M - root)^k: the
    nullity of (M - eigenvalue)^k is that of q(M)^k over deg q, from one elimination over K."""
    a, y = eigenvalue, 0
    if isinstance(eigenvalue, QuadSurd) or (
            isinstance(eigenvalue, GaussianRational) and M.backend is Backend.EXACT_Q):
        a, y = eigenvalue.a, eigenvalue.b ** 2 * eigenvalue.d
    identity = Matrix.identity(M.rows, M.backend)
    shifted = M.sub(identity.scale(a))
    return (shifted.mul(shifted).sub(identity.scale(y)), 2) if y else (shifted, 1)


def _as_fraction(v) -> Fraction:
    if isinstance(v, GaussianRational):
        if v.im != 0:
            raise UnfactoredSpectrum("quadratic factor with non-rational coefficients")
        return v.re
    return Fraction(v)


def jordan_structure(M: Matrix, tol: float | None = None) -> list:
    """Jordan data as (eigenvalue, sorted block sizes descending) pairs."""
    if not M.is_square():
        raise DimensionMismatch("jordan_structure of non-square matrix")
    return _jordan_blocks(M, spectrum(M, tol), tol)


def _jordan_blocks(M: Matrix, spec: list, tol: float | None = None) -> list:
    """Block sizes for each (eigenvalue, multiplicity) of M's spectrum spec, from the
    ranks of the powers of M - eigenvalue I: exact ranks over M's field (``_minimal``)
    on an exact backend, SVD ranks with a cutoff scaled from tol otherwise."""
    n, exact = M.rows, M.backend.is_exact
    if not exact:
        tol = DEFAULT_TOL if tol is None else tol
        arr = M.to_numpy()
        scale = max(1.0, float(np.max(np.abs(arr))))
    out = []
    for lam, mult in spec:
        if mult == 1:
            out.append((lam, [1]))
            continue
        base, deg = _minimal(M, lam) if exact else (arr - lam * np.eye(n), 1)
        ranks, power = [n], base
        while len(ranks) <= mult:
            rank = power.rank() if exact else _svd_rank(power, scale, tol)
            ranks.append(n - (n - rank) // deg)
            if ranks[-1] == ranks[-2]:
                break
            power = power @ base
        out.append((lam, _blocks_from_ranks(ranks, mult)))
    return out


def _svd_rank(A, scale: float, tol: float) -> int:
    sv = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(sv > 1e3 * tol * max(scale, float(sv[0]) if len(sv) else 1.0)))


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
