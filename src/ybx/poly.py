"""Polynomial helpers, each defined once.

Dense univariate polynomials are coefficient lists, low degree first:
``poly_eval``, ``poly_divmod``, ``poly_gcd`` and ``rational_factors``, the
one numerically guided search for exact factors, which serves both the exact
spectra and the rational zeros of small systems.  Sparse polynomials in k
unknowns are dicts {exponent tuple: nonzero coefficient}: ``_padd``,
``_pmul``, ``_psubst`` and the Sylvester ``_resultant``.  ``_accumulate``
also serves sparse rows {column: value}.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .scalars import GaussianRational, to_complex

# -- dense univariate polynomials -----------------------------------------------


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


def poly_gcd(a: list, b: list) -> list:
    """gcd of a and a nonzero b by Euclid's algorithm, monic unless constant."""
    while len(b) > 1 or b[0]:
        a, b = b, poly_divmod(a, b)[1]
    lead = a[-1]
    return [v / lead for v in a] if len(a) > 1 and lead != 1 else a


# Denominator bounds a numeric value is read through, tightest first.
_LADDER = (10 ** 8, 10 ** 4, 100, 10, 1)


def _readings(roots: list, degree: int, gaussian: bool):
    """Monic candidate factors read off numeric roots, tightest bound first:
    x - r for a root r, or x^2 - s x + p for the sum s and the product p of
    a pair of roots; Gaussian readings of r too when gaussian is set."""
    if degree == 1:
        targets = ([z] for z in roots)
    else:
        targets = ([a + b, a * b] for i, a in enumerate(roots) for b in roots[i + 1:])
    for values in targets:
        real = all(abs(v.imag) < 1e-3 for v in values)
        for den in _LADDER:
            parts = [Fraction(v.real).limit_denominator(den) for v in values]
            if real:
                yield (-parts[0], 1) if degree == 1 else (parts[1], -parts[0], 1)
            if gaussian:
                im = Fraction(values[0].imag).limit_denominator(den)
                yield (-GaussianRational(parts[0], im), 1)


def rational_factors(coeffs: list, degree: int):
    """Monic factors of the given degree, 1 or 2, split off coeffs one at a
    time: (factors, rest).  Linear factors are over Q(i) when a coefficient
    is Gaussian, else over Q; quadratic ones are over Q.

    Each step runs ``np.roots`` once on what is left, and keeps the first
    reading (``_readings``) that divides exactly, no reading being tried
    twice.  False readings are harmless; a factor that needs denominators
    beyond the ladder stays in the rest."""
    gaussian = degree == 1 and any(isinstance(c, GaussianRational) for c in coeffs)
    factors = []
    while len(coeffs) > degree:
        roots = [complex(z) for z in np.roots([to_complex(c) for c in reversed(coeffs)])]
        tried = set()
        for factor in _readings(roots, degree, gaussian):
            if factor in tried:
                continue
            tried.add(factor)
            quot, rem = poly_divmod(coeffs, factor)
            if len(rem) == 1 and not rem[0]:
                factors.append(factor)
                coeffs = quot
                break
        else:
            break
    return factors, coeffs


# -- sparse polynomials in k unknowns -----------------------------------------------


def _accumulate(p: dict, e, c) -> None:
    """p[e] += c in a dict of nonzero values: a sparse row or a polynomial."""
    x = p.get(e, 0) + c
    if x:
        p[e] = x
    else:
        p.pop(e, None)


def _unit(j: int, k: int) -> tuple:
    """Exponent of the j-th of k unknowns; of the constant for j = -1."""
    return tuple(int(i == j) for i in range(k))


def _padd(a: dict, b: dict, scale=1) -> dict:
    """a + scale * b."""
    out = dict(a)
    for e, c in b.items():
        _accumulate(out, e, scale * c)
    return out


def _pmul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _accumulate(out, tuple(i + j for i, j in zip(ea, eb)), ca * cb)
    return out


def _psubst(p: dict, x) -> dict:
    """p with the value x put in for its first unknown."""
    out = {}
    for e, c in p.items():
        _accumulate(out, e[1:], c * x ** e[0])
    return out


def _resultant(a: dict, b: dict) -> dict:
    """Sylvester resultant of a and b in their second unknown, a polynomial in
    the first; by cofactor expansion along the rows, each minor once."""
    def coefficients(p):  # of t^0, t^1, ... as polynomials in s
        out = [{} for _ in range(max(e[1] for e in p) + 1)]
        for (i, j), c in p.items():
            out[j][(i,)] = c
        return out

    ca, cb = coefficients(a), coefficients(b)
    da, db = len(ca) - 1, len(cb) - 1
    rows = [{k + da - j: c for j, c in enumerate(ca) if c} for k in range(db)]
    rows += [{k + db - j: c for j, c in enumerate(cb) if c} for k in range(da)]
    minors = {(): {(0,): 1}}

    def minor(cols):  # the rows below len(rows) - len(cols), on the columns cols
        if cols not in minors:
            row = rows[len(rows) - len(cols)]
            acc = {}
            for pos, col in enumerate(cols):
                if col in row:
                    term = _pmul(row[col], minor(cols[:pos] + cols[pos + 1:]))
                    acc = _padd(acc, term, -1 if pos % 2 else 1)
            minors[cols] = acc
        return minors[cols]

    return minor(tuple(range(da + db)))
