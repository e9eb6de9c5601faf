"""Reference computations the checkers compare ybx outputs against.

Nothing here calls ybx: exact products, Kronecker products and elimination
are re-done on plain lists of Python scalars (Fraction, or any object with
exact field arithmetic), and float references use numpy directly.

Conventions follow the ybx README: in the Ab Kronecker product the first
factor's index varies fastest, so Ab-kron(A, B) equals numpy's kron(B, A);
the braid generator sigma_i on n strands is I^(i-1) (x) R (x) I^(n-i-1), and
words multiply left to right.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class WrongOutput(Exception):
    """The program returned an output that the reference contradicts."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


# -- scalars ------------------------------------------------------------------


def as_complex(value) -> complex:
    """Float value of an exact or complex scalar, read from its fields."""
    if isinstance(value, (int, Fraction, float, complex)):
        return complex(value)
    if hasattr(value, "re") and hasattr(value, "im"):          # Gaussian rational
        return complex(float(value.re), float(value.im))
    if hasattr(value, "a") and hasattr(value, "b") and hasattr(value, "d"):  # a + b sqrt(d)
        return complex(value.a) + complex(value.b) * complex(value.d) ** 0.5
    raise TypeError(f"not a scalar: {value!r}")


def to_numpy(rows) -> np.ndarray:
    """Complex array from a list of rows of scalars (or a ybx Matrix)."""
    rows = getattr(rows, "data", rows)
    return np.array([[as_complex(v) for v in row] for row in rows], dtype=complex)


# -- float references -----------------------------------------------------------


def ab_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(b, a)


def np_generator(R: np.ndarray, slot: int, n: int, i: int, inverse: bool = False) -> np.ndarray:
    core = np.linalg.inv(R) if inverse else R
    left = np.eye(slot ** (i - 1))
    right = np.eye(slot ** (n - i - 1))
    return ab_kron(ab_kron(left, core), right)


def np_rho(R: np.ndarray, slot: int, n: int, letters) -> np.ndarray:
    out = np.eye(slot ** n, dtype=complex)
    for e in letters:
        out = out @ np_generator(R, slot, n, abs(e), inverse=e < 0)
    return out


def np_close(got: np.ndarray, want: np.ndarray, tol: float = 1e-9) -> bool:
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    return got.shape == want.shape and float(np.max(np.abs(got - want))) <= tol * scale


def np_ybe_residual(R: np.ndarray, slot: int) -> float:
    """Largest entry of (R x I)(I x R)(R x I) - (I x R)(R x I)(I x R), relative
    to the largest entry of either side."""
    eye = np.eye(slot)
    R1, R2 = ab_kron(R, eye), ab_kron(eye, R)
    lhs, rhs = R1 @ R2 @ R1, R2 @ R1 @ R2
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def np_intertwining_residual(Q: np.ndarray, RA: np.ndarray, RB: np.ndarray) -> float:
    """max |(Q (x) Q) R_A - R_B (Q (x) Q)|."""
    QQ = ab_kron(Q, Q)
    return float(np.max(np.abs(QQ @ RA - RB @ QQ)))


# -- exact references -----------------------------------------------------------


def identity(n: int, one=Fraction(1), zero=Fraction(0)):
    return [[one if r == c else zero for c in range(n)] for r in range(n)]


def matmul(A, B):
    """Exact product skipping zero entries of A; rows of any field scalars."""
    n_inner, n_cols = len(B), len(B[0])
    zero = A[0][0] * 0
    out = []
    for arow in A:
        orow = [zero] * n_cols
        for k in range(n_inner):
            a = arow[k]
            if a:
                brow = B[k]
                for c in range(n_cols):
                    b = brow[c]
                    if b:
                        orow[c] = orow[c] + a * b
        out.append(orow)
    return out


def kron(A, B):
    """Exact Ab-convention Kronecker product."""
    ra, ca = len(A), len(A[0])
    zero = A[0][0] * 0
    out = [[zero] * (ca * len(B[0])) for _ in range(ra * len(B))]
    for rb, brow in enumerate(B):
        for cb, b in enumerate(brow):
            if not b:
                continue
            for r, arow in enumerate(A):
                target = out[r + ra * rb]
                for c, a in enumerate(arow):
                    if a:
                        target[c + ca * cb] = a * b
    return out


def generator(R, slot: int, n: int, i: int):
    zero = R[0][0] * 0
    one = zero + 1
    left = identity(slot ** (i - 1), one, zero)
    right = identity(slot ** (n - i - 1), one, zero)
    return kron(kron(left, R), right)


def rank(M) -> int:
    """Exact rank by fraction-preserving Gaussian elimination."""
    rows = [list(r) for r in M]
    rank_, ncols = 0, len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((k for k in range(rank_, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        p = rows[rank_][c]
        for k in range(rank_ + 1, len(rows)):
            f = rows[k][c] / p
            if f:
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[rank_])]
        rank_ += 1
    return rank_


def invert(M):
    """Exact inverse by Gauss-Jordan; raises WrongOutput when singular."""
    n = len(M)
    zero = M[0][0] * 0
    rows = [list(row) + unit for row, unit in zip(M, identity(n, zero + 1, zero))]
    for c in range(n):
        pivot = next((k for k in range(c, n) if rows[k][c]), None)
        expect(pivot is not None, "matrix is singular")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        p = rows[c][c]
        rows[c] = [x / p for x in rows[c]]
        for k in range(n):
            if k != c and rows[k][c]:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[c])]
    return [r[n:] for r in rows]


def is_identity(M) -> bool:
    return all((v == 1) if r == c else (not v)
               for r, row in enumerate(M) for c, v in enumerate(row))


def conjugate_by_square(Q, R):
    """(Q (x) Q) R (Q (x) Q)^-1, exactly."""
    QQ = kron(Q, Q)
    return matmul(matmul(QQ, R), invert(QQ))


# -- classification tables ---------------------------------------------------------


def partition_count(n: int) -> int:
    """Integer partitions of n, by the pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, total = 1, 0
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


# Non-degenerate involutive set-theoretic solutions up to isomorphism, sizes
# 1..6 (Etingof-Schedler-Soloviev, Duke Math. J. 100 (1999) 169-209).
ESS_NONDEGENERATE_INVOLUTIVE = {1: 1, 2: 2, 3: 5, 4: 23, 5: 88, 6: 595}


def perm_is_ybe(p, N: int) -> bool:
    """Set-theoretic braid relation for r(x, y) encoded as a permutation of
    pair indices x + N y, checked on every triple."""
    def r(x, y):
        v = p[x + N * y]
        return v % N, v // N

    for x in range(N):
        for y in range(N):
            for z in range(N):
                a, b = r(x, y)
                b, c = r(b, z)
                a, b = r(a, b)
                d, e = r(y, z)
                f, d = r(x, d)
                d, e = r(d, e)
                if (a, b, c) != (f, d, e):
                    return False
    return True
