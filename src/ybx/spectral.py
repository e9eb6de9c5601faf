"""Spectra and Jordan structure.

Exact path: the characteristic polynomial is computed by Faddeev-LeVerrier
over the matrix's exact field.  Roots are located numerically, reconstructed
as rationals (or Gaussian rationals), and verified exactly; whatever remains
is factored into quadratics solved by radicals, producing quadratic surds
``a + b*sqrt(d)``.  A polynomial that resists this is reported as
:class:`UnfactoredSpectrum` so the caller may retry on the complex backend.

Complex path: numpy eigenvalues clustered at the global tolerance, with block
sizes read from numeric ranks of powers of (A - lambda I).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionMismatch, UnfactoredSpectrum
from .scalars import Backend, GaussianRational, to_complex
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


# -- polynomials (dense, low degree first) -------------------------------------


def poly_eval(coeffs, x):
    acc = coeffs[-1] * 1
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def poly_divmod(num, den):
    num = list(num)
    dden = len(den) - 1
    if dden < 0 or not den[-1]:
        raise ZeroDivisionError
    quot = [num[0] * 0] * max(len(num) - dden, 0)
    for k in range(len(num) - 1, dden - 1, -1):
        factor = num[k] / den[-1]
        quot[k - dden] = factor
        if factor:
            for j in range(dden + 1):
                num[k - dden + j] = num[k - dden + j] - factor * den[j]
    while len(num) > 1 and not num[-1]:
        num.pop()
    return quot, num


def char_poly(M: Matrix) -> list:
    """Monic characteristic polynomial, coefficients low degree first."""
    if not M.is_square():
        raise DimensionMismatch("char_poly of non-square matrix")
    M._require_exact("char_poly")
    n = M.rows
    from .scalars import one, zero

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

_RECON_DEN = 10 ** 8


_RECON_LADDER = (_RECON_DEN, 10 ** 4, 100, 10, 1)


def _reconstruct_root(z: complex, backend: Backend):
    """Candidate exact roots near z, tightest reconstruction first.

    False candidates are harmless: every candidate is verified exactly."""
    out = []
    for den in _RECON_LADDER:
        re = Fraction(z.real).limit_denominator(den)
        if abs(z.imag) < 1e-3:
            out.append(re)
        if backend is Backend.EXACT_QI:
            im = Fraction(z.imag).limit_denominator(den)
            out.append(GaussianRational(re, im))
    seen = []
    for c in out:
        if c not in seen:
            seen.append(c)
    return seen


def _extract_verified_roots(coeffs, backend: Backend):
    """Peel off rational / Gaussian-rational roots, numerically guided."""
    found = {}
    while len(coeffs) > 1:
        arr = [eig_to_complex(c) for c in coeffs]
        roots = np.roots(list(reversed(arr)))
        progressed = False
        for z in roots:
            for cand in _reconstruct_root(complex(z), backend):
                if backend is Backend.EXACT_QI and isinstance(cand, Fraction):
                    cand_val = GaussianRational(cand)
                else:
                    cand_val = cand
                if poly_eval(coeffs, cand_val):
                    continue
                coeffs = poly_divmod(coeffs, [-cand_val, 1])[0]
                found[cand] = found.get(cand, 0) + 1
                progressed = True
                break
            if progressed:
                break
        if not progressed:
            break
    return found, coeffs


def _solve_quadratic(coeffs):
    """Exact roots of a degree-2 polynomial with rational coefficients."""
    c0, c1, c2 = coeffs
    if isinstance(c0, GaussianRational) or isinstance(c1, GaussianRational) or isinstance(c2, GaussianRational):
        for c in (c0, c1, c2):
            if isinstance(c, GaussianRational) and c.im != 0:
                raise UnfactoredSpectrum("quadratic with non-real Gaussian coefficients")
        c0 = c0.re if isinstance(c0, GaussianRational) else Fraction(c0)
        c1 = c1.re if isinstance(c1, GaussianRational) else Fraction(c1)
        c2 = c2.re if isinstance(c2, GaussianRational) else Fraction(c2)
    b = c1 / c2
    c = c0 / c2
    disc = b * b - 4 * c
    root = rational_sqrt(disc)
    half = Fraction(1, 2)
    if isinstance(root, Fraction):
        return [(-b + root) * half, (-b - root) * half]
    if isinstance(root, GaussianRational):
        base = GaussianRational(-b * half)
        off = GaussianRational(0, root.im * half)
        return [base + off, base - off]
    d = root.d
    return [
        QuadSurd(-b * half, root.b * half, d),
        QuadSurd(-b * half, -root.b * half, d),
    ]


def exact_spectrum(M: Matrix) -> list:
    """Multiset of eigenvalues as (value, algebraic multiplicity) pairs."""
    coeffs = char_poly(M)
    found, rest = _extract_verified_roots(coeffs, M.backend)
    while len(rest) > 1:
        degree = len(rest) - 1
        if degree == 2:
            for root in _solve_quadratic(rest):
                found[root] = found.get(root, 0) + 1
            rest = rest[-1:]
        elif degree % 2 == 0:
            rest = _split_into_quadratic(rest, found)
        else:
            raise UnfactoredSpectrum(f"cannot factor residual of degree {degree}")
    out = sorted(found.items(), key=lambda kv: _eig_sort_key(kv[0]))
    return out


def _split_into_quadratic(coeffs, found):
    """Factor out one rational quadratic, numerically guided; else raise."""
    arr = [eig_to_complex(c) for c in coeffs]
    roots = [complex(z) for z in np.roots(list(reversed(arr)))]
    n = len(roots)
    for i in range(n):
        for j in range(i + 1, n):
            s = roots[i] + roots[j]
            p = roots[i] * roots[j]
            if abs(s.imag) > 1e-3 or abs(p.imag) > 1e-3:
                continue
            for den in _RECON_LADDER:
                sq = Fraction(s.real).limit_denominator(den)
                pq = Fraction(p.real).limit_denominator(den)
                quad = [pq * 1, -sq, Fraction(1)]
                if isinstance(coeffs[0], GaussianRational):
                    quad = [GaussianRational(q) for q in quad]
                try:
                    quot, rem = poly_divmod(list(coeffs), quad)
                except ZeroDivisionError:
                    continue
                if len(rem) == 1 and not rem[0]:
                    for root in _solve_quadratic(quad):
                        found[root] = found.get(root, 0) + 1
                    return quot
    raise UnfactoredSpectrum("no rational quadratic factor found")


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
