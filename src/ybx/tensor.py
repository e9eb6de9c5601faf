"""Dense matrices with revlex word indexing and the Ab Kronecker convention.

Conventions, fixed once here and relied on everywhere else:

* A matrix with ``rows`` rows and ``cols`` columns sends basis column j to
  the vector ``sum_r data[r][j] e_r``.
* Tensor indices follow the *Ab* convention: in ``kron(A, B)`` the first
  factor's index varies fastest, so ``kron(A, I2)`` is block-diagonal
  ``[[A, 0], [0, A]]``.
* Basis words of length n over the alphabet {1..N} are enumerated in revlex
  order: ``index(w) = sum_k (w_k - 1) N^(k-1)``, hence ``|w> (x) |v> = |wv>``
  (concatenation).

Storage stays dense: ``Matrix.data`` is the public list of row lists.  The
two exact hot loops work on sparse rows instead, one ``{col: value}`` dict
per row holding only the nonzero entries: the elimination kernel here
(behind rref, rank, solve, inverse, det and ``kernel``, the one exact
nullspace, which the linear systems of ``ybx.structure`` fill directly) and
the braid word product in ``ybx.core``.  Both run on integers: elimination
is fraction-free, and the word product keeps one denominator per product.
``sparse_rows`` and ``dense_rows`` convert.

All decision procedures (rank, nullspace, solve, inverse, det) require an
exact backend; the complex-float backend only supports them with an explicit
tolerance where stated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    BackendMismatch,
    DimensionMismatch,
    RankDeficient,
    SingularMatrix,
)
from .scalars import (
    Backend,
    I_QI,
    GaussianRational,
    _gr,
    conjugate_scalar,
    join_backend,
    one,
    promote,
    scalar_abs,
    to_complex,
    zero,
)

# -- word indexing ------------------------------------------------------------


def word_to_index(word, N: int) -> int:
    """Zero-based revlex index of a word with letters in {1..N}."""
    idx = 0
    power = 1
    for letter in word:
        idx += (letter - 1) * power
        power *= N
    return idx


def index_to_word(index: int, N: int, n: int) -> tuple:
    word = []
    for _ in range(n):
        word.append(index % N + 1)
        index //= N
    return tuple(word)


# -- matrix -------------------------------------------------------------------


class Matrix:
    __slots__ = ("rows", "cols", "backend", "data")

    def __init__(self, rows: int, cols: int, backend: Backend, data):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch("data shape does not match rows x cols")
        self.rows = rows
        self.cols = cols
        self.backend = backend
        self.data = data

    # construction

    @staticmethod
    def from_rows(rows, backend: Backend | None = None) -> "Matrix":
        from .scalars import backend_of

        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if backend is None:
            backend = Backend.EXACT_Q
            for r in rows:
                for v in r:
                    backend = join_backend(backend, backend_of(v))
        data = [[promote(v, backend) for v in r] for r in rows]
        return Matrix(nr, nc, backend, data)

    @staticmethod
    def identity(n: int, backend: Backend = Backend.EXACT_Q) -> "Matrix":
        z, o = zero(backend), one(backend)
        return Matrix(n, n, backend, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int, backend: Backend = Backend.EXACT_Q) -> "Matrix":
        z = zero(backend)
        return Matrix(rows, cols, backend, [[z] * cols for _ in range(rows)])

    @staticmethod
    def diagonal(values, backend: Backend | None = None) -> "Matrix":
        M = Matrix.from_rows([list(values)], backend)
        n = M.cols
        z = zero(M.backend)
        data = [[M.data[0][i] if i == j else z for j in range(n)] for i in range(n)]
        return Matrix(n, n, M.backend, data)

    @staticmethod
    def permutation(perm, backend: Backend = Backend.EXACT_Q) -> "Matrix":
        """Matrix P with P e_j = e_perm[j] (zero-based images)."""
        n = len(perm)
        out = Matrix.zeros(n, n, backend)
        o = one(backend)
        for j, image in enumerate(perm):
            out.data[image][j] = o
        return out

    @staticmethod
    def from_numpy(arr) -> "Matrix":
        arr = np.asarray(arr, dtype=complex)
        return Matrix(arr.shape[0], arr.shape[1], Backend.COMPLEX_F,
                      [[complex(v) for v in row] for row in arr])

    @staticmethod
    def column(values, backend: Backend | None = None) -> "Matrix":
        M = Matrix.from_rows([[v] for v in values], backend)
        return M

    # basics

    def get(self, r: int, c: int):
        return self.data[r][c]

    def promote_to(self, backend: Backend) -> "Matrix":
        if backend is self.backend:
            return self
        return Matrix(self.rows, self.cols, backend,
                      [[promote(v, backend) for v in row] for row in self.data])

    def to_numpy(self):
        return np.array([[to_complex(v) for v in row] for row in self.data], dtype=complex)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.backend.value})"

    def pretty(self) -> str:
        from .scalars import format_scalar

        cells = [[format_scalar(v) for v in row] for row in self.data]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)

    # arithmetic

    def _join(self, other: "Matrix"):
        backend = join_backend(self.backend, other.backend)
        return self.promote_to(backend), other.promote_to(backend), backend

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("add: shape mismatch")
        A, B, backend = self._join(other)
        return Matrix(self.rows, self.cols, backend,
                      [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A.data, B.data)])

    def sub(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("sub: shape mismatch")
        A, B, backend = self._join(other)
        return Matrix(self.rows, self.cols, backend,
                      [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A.data, B.data)])

    def scale(self, s) -> "Matrix":
        from .scalars import backend_of

        backend = join_backend(self.backend, backend_of(s))
        A = self.promote_to(backend)
        s = promote(s, backend)
        return Matrix(self.rows, self.cols, backend,
                      [[s * v for v in row] for row in A.data])

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"mul: {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        A, B, backend = self._join(other)
        z = zero(backend)
        b_nonzero = [[(c, b) for c, b in enumerate(row) if b] for row in B.data]
        out = []
        for arow in A.data:
            orow = [z] * other.cols
            for k, a in enumerate(arow):
                if not a:
                    continue
                for c, b in b_nonzero[k]:
                    orow[c] = orow[c] + a * b
            out.append(orow)
        return Matrix(self.rows, other.cols, backend, out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.mul(other)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, self.backend,
                      [[self.data[r][c] for r in range(self.rows)] for c in range(self.cols)])

    def dagger(self) -> "Matrix":
        """Conjugate transpose; plain transpose on the exact-q backend."""
        return Matrix(self.cols, self.rows, self.backend,
                      [[conjugate_scalar(self.data[r][c]) for r in range(self.rows)]
                       for c in range(self.cols)])

    def trace(self):
        if not self.is_square():
            raise DimensionMismatch("trace of non-square matrix")
        t = zero(self.backend)
        for i in range(self.rows):
            t = t + self.data[i][i]
        return t

    # predicates / comparisons

    def is_zero_matrix(self, tol: float | None = None) -> bool:
        if self.backend.is_exact:
            return all(not v for row in self.data for v in row)
        return self.max_abs() <= (DEFAULT_TOL if tol is None else tol)

    def max_abs(self) -> float:
        return max((scalar_abs(v) for row in self.data for v in row), default=0.0)

    def inf_norm(self) -> float:
        return max((sum(scalar_abs(v) for v in row) for row in self.data), default=0.0)

    def eq(self, other: "Matrix", tol: float | None = None) -> bool:
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        backend = join_backend(self.backend, other.backend)
        if backend.is_exact:
            A, B, _ = self._join(other)
            return A.data == B.data
        tol = DEFAULT_TOL if tol is None else tol
        scale = max(1.0, self.inf_norm(), other.inf_norm())
        return self.max_abs_diff(other) <= tol * scale

    def max_abs_diff(self, other: "Matrix") -> float:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("max_abs_diff: shape mismatch")
        return max(
            (abs(to_complex(a) - to_complex(b))
             for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb)),
            default=0.0,
        )

    # exact elimination

    def _require_exact(self, what: str) -> None:
        if not self.backend.is_exact:
            raise BackendMismatch(f"{what} requires an exact backend (got complex-f)")

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column list)."""
        self._require_exact("rref")
        rows = sparse_rows(self.data)
        pivots = _eliminate(rows, self.cols)[0]
        rows = reduced_rows(rows, pivots) + [{}] * (self.rows - len(pivots))
        return Matrix(self.rows, self.cols, self.backend,
                      dense_rows(rows, self.cols, zero(self.backend))), pivots

    def rank(self, tol: float | None = None) -> int:
        if not self.backend.is_exact:
            if tol is None:
                raise BackendMismatch("rank on complex-f requires an explicit tolerance")
            arr = self.to_numpy()
            if min(arr.shape) == 0:
                return 0
            sv = np.linalg.svd(arr, compute_uv=False)
            cutoff = tol * max(1.0, float(sv[0]) if len(sv) else 1.0)
            return int(np.sum(sv > cutoff))
        return len(_eliminate(sparse_rows(self.data), self.cols)[0])

    def nullspace(self) -> list:
        """Exact basis of the right nullspace, as a list of column Matrices."""
        return [Matrix(self.cols, 1, self.backend, [[v] for v in vec])
                for vec in kernel(sparse_rows(self.data), self.cols, self.backend)]

    def solve_right(self, rhs: "Matrix") -> "Matrix":
        """Exact solution X of self @ X = rhs; raises if inconsistent/underdetermined."""
        self._require_exact("solve")
        if rhs.rows != self.rows:
            raise DimensionMismatch("solve: rhs row count mismatch")
        A, B, backend = self._join(rhs)
        aug = sparse_rows([list(ra) + list(rb) for ra, rb in zip(A.data, B.data)])
        pivots = _eliminate(aug, self.cols + rhs.cols)[0]
        if pivots and pivots[-1] >= self.cols:
            raise SingularMatrix("solve: inconsistent system")
        if len(pivots) < self.cols:
            raise SingularMatrix("solve: underdetermined system")
        z = zero(backend)
        out = [[z] * rhs.cols for _ in range(self.cols)]
        for row, pc in zip(reduced_rows(aug, pivots), pivots):
            for c, v in row.items():
                if c >= self.cols:
                    out[pc][c - self.cols] = v
        return Matrix(self.cols, rhs.cols, backend, out)

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise DimensionMismatch("inverse of non-square matrix")
        if not self.backend.is_exact:
            arr = self.to_numpy()
            try:
                inv = np.linalg.inv(arr)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrix(str(exc)) from exc
            return Matrix.from_numpy(inv)
        try:
            return self.solve_right(Matrix.identity(self.rows, self.backend))
        except SingularMatrix:
            raise SingularMatrix("inverse of singular matrix")

    def det(self):
        """Determinant: exact-q from the elimination, exact-qi as f(i), f(t) =
        det(X + tY) in Newton's form over Q at t = 0..n; complex-f numpy's."""
        if not self.is_square():
            raise DimensionMismatch("det of non-square matrix")
        if not self.backend.is_exact:
            return complex(np.linalg.det(self.to_numpy()))
        n = self.rows
        if self.backend is Backend.EXACT_QI:
            f = [Matrix(n, n, Backend.EXACT_Q, [[getattr(v, "re", v) + k * getattr(v, "im", 0)
                 for v in row] for row in self.data]).det() for k in range(n + 1)]
            for m in range(1, n + 1):  # divided differences
                f[m:] = [(b - a) / m for a, b in zip(f[m - 1:], f[m:])]
            total = zero(self.backend)
            for k in range(n, -1, -1):
                total = total * (I_QI - k) + f[k]
            return total
        rows = sparse_rows(self.data)
        pivots, factor = _eliminate(rows, self.cols, track=True)
        if factor is None:
            return zero(self.backend)
        num, den = factor
        for row, pc in zip(rows, pivots):
            den *= row[pc]
        return Fraction(den, num)

    def is_invertible(self) -> bool:
        if not self.is_square():
            return False
        if self.backend.is_exact:
            return self.rank() == self.rows
        return self.rank(tol=DEFAULT_TOL) == self.rows

    def column_space_basis(self):
        """First linearly independent columns, in index order, scaled monic.

        Returns (Q, indices); each chosen column is divided by its first
        nonzero entry, a deterministic representative of the column space.
        """
        self._require_exact("column_space_basis")
        pivots = _eliminate(sparse_rows(self.data), self.cols)[0]
        cols = []
        for c in pivots:
            col = [self.data[r][c] for r in range(self.rows)]
            lead = next(v for v in col if v)
            cols.append([v / lead for v in col])
        data = [[col[r] for col in cols] for r in range(self.rows)]
        return Matrix(self.rows, len(pivots), self.backend, data), pivots


# -- sparse rows and the elimination kernel -------------------------------------


def sparse_rows(data) -> list:
    """One ``{col: value}`` dict of the nonzero entries per dense row."""
    return [{c: v for c, v in enumerate(row) if v} for row in data]


def dense_rows(rows, ncols: int, z) -> list:
    """Dense row lists of width ncols from sparse rows, filled with z."""
    out = []
    for row in rows:
        dense = [z] * ncols
        for c, v in row.items():
            dense[c] = v
        out.append(dense)
    return out


def kernel(rows, ncols: int, backend: Backend) -> list:
    """Exact basis of {x : sum_c row[c] x[c] = 0 for every sparse row}.

    One dense vector per non-pivot column f, in increasing order: 1 at f and
    -row[f] / row[p] at the pivot column p of each eliminated row.  The rows
    are left as ``_eliminate`` leaves them; complex-f rows are refused.
    """
    if not backend.is_exact:
        raise BackendMismatch("kernel requires an exact backend (got complex-f)")
    pivots = _eliminate(rows, ncols)[0]
    pivot_set = set(pivots)
    z, o = zero(backend), one(backend)
    basis = {fc: [z] * fc + [o] + [z] * (ncols - fc - 1)
             for fc in range(ncols) if fc not in pivot_set}
    for row, pc in zip(rows, pivots):
        p = row[pc]
        for fc, v in row.items():
            if fc != pc:
                basis[fc][pc] = _ratio(-v, p)
    return list(basis.values())


def reduced_rows(rows, pivots) -> list:
    """Eliminated rows divided by their pivot entries: the nonzero rows of
    the reduced row echelon form."""
    return [{c: _ratio(v, row[pc]) for c, v in row.items()} for row, pc in zip(rows, pivots)]


def _ratio(x, y):
    """x / y for ints (a Fraction) or Gaussian integers, y real (a GaussianRational)."""
    if isinstance(x, int):
        return Fraction(x, y)
    return _gr(Fraction(x.re, y.re), Fraction(x.im, y.re))


def _eliminate(rows, ncols: int, track: bool = False):
    """Fraction-free Gauss-Jordan on sparse exact rows of width ncols, in place.

    Rows over Q(i) are realified first (``_realified``).  Each row is scaled
    to coprime ints, so the loop makes no Fraction.  An index from each
    column to the rows holding it gives the pivot, the shortest unused row
    with an entry a in the column, and the rows to clear: one with entry b
    becomes (a/g) row - (b/g) prow, g = gcd(a, b), divided by its gcd.

    Afterwards ``rows`` holds only the pivot rows, in pivot order, each
    nonzero at its pivot column and zero at every other: ints, or Gaussian
    integers over Q(i) (``_complexified``); ``reduced_rows`` divides the
    pivots out.  Returns (pivot columns, factor): factor is None unless
    track and the rows are square over Q of full rank, then (num, den) with
    num / den * det(rows before) = the product of the pivot entries.
    """
    gauss = any(isinstance(v, GaussianRational) for row in rows for v in row.values())
    if gauss:
        rows[:] = [part for row in rows for part in _realified(row)]
        ncols *= 2
    nrows = len(rows)
    num = den = 1
    where = [set() for _ in range(ncols)]
    for k, row in enumerate(rows):      # an empty row gets h = 0: singular, no factor
        d = lcm(*[v.denominator for v in row.values()])
        row = {c: v.numerator * (d // v.denominator) for c, v in row.items()}
        h = gcd(*row.values())
        rows[k] = {c: v // h for c, v in row.items()} if h > 1 else row
        if track:
            num, den = num * d, den * h
        for c in row:
            where[c].add(k)
    used = [False] * nrows
    pivots, order = [], []
    for c in range(ncols):
        holders = where[c]
        candidates = [k for k in holders if not used[k]]
        if not candidates:
            continue
        p = (candidates[0] if len(candidates) == 1
             else min(candidates, key=lambda k: (len(rows[k]), k)))
        prow = rows[p]
        a = prow[c]
        for k in [k for k in holders if k != p]:
            row = rows[k]
            b = row[c]
            g = gcd(a, b) if a > 0 else -gcd(a, b)     # alpha > 0
            alpha, beta = a // g, b // g
            if alpha != 1:
                row = {j: alpha * v for j, v in row.items()}
                if track:
                    num *= alpha
            for j, y in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = -beta * y
                    where[j].add(k)
                else:
                    x -= beta * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        where[j].discard(k)
            h = gcd(*row.values())
            if h > 1:
                row = {j: v // h for j, v in row.items()}
                if track:
                    den *= h
            rows[k] = row
        used[p] = True
        pivots.append(c)
        order.append(p)
        if len(order) == nrows:
            break
    rows[:] = [rows[k] for k in order]
    if gauss:
        rows[:] = [_complexified(u, v, c) for u, v, c in zip(rows[::2], rows[1::2], pivots[::2])]
        return [c // 2 for c in pivots[::2]], None
    if not track or len(order) < nrows:
        return pivots, None
    swaps = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return pivots, (-num if swaps % 2 else num, den)


def _realified(row) -> list:
    """Rows over Q of a row over Q(i) on interleaved (re, im) columns: a + b i
    at column c puts a, -b at 2c, 2c+1 of the real part and b, a of the
    imaginary part."""
    re, im = {}, {}
    for c, v in row.items():
        a, b = (v.re, v.im) if isinstance(v, GaussianRational) else (v, 0)
        if a:
            re[2 * c] = im[2 * c + 1] = a
        if b:
            re[2 * c + 1], im[2 * c] = -b, b
    return [re, im]


def _complexified(u: dict, v: dict, c: int) -> dict:
    """The Gaussian integer row over Q(i) of the realified pivot rows u, v
    (pivots c, c + 1): its entry at column j is u[2j] / u[c] + i v[2j] / v[c + 1]
    times lcm(u[c], v[c + 1])."""
    m = lcm(u[c], v[c + 1])
    mu, mv = m // u[c], m // v[c + 1]
    return {j // 2: _gr(u.get(j, 0) * mu, v.get(j, 0) * mv)
            for j in sorted(u.keys() | v.keys()) if j % 2 == 0}


# -- tensor operations --------------------------------------------------------


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Ab-convention Kronecker product: the first factor's index varies fastest."""
    backend = join_backend(A.backend, B.backend)
    A = A.promote_to(backend)
    B = B.promote_to(backend)
    z = zero(backend)
    rows, cols = A.rows * B.rows, A.cols * B.cols
    out = [[z] * cols for _ in range(rows)]
    for rb in range(B.rows):
        brow = B.data[rb]
        for cb in range(B.cols):
            b = brow[cb]
            if not b:
                continue
            row_off = A.rows * rb
            col_off = A.cols * cb
            for ra in range(A.rows):
                arow = A.data[ra]
                target = out[row_off + ra]
                for ca in range(A.cols):
                    a = arow[ca]
                    if a:
                        target[col_off + ca] = a * b
    return Matrix(rows, cols, backend, out)


def kron_all(factors) -> Matrix:
    result = None
    for f in factors:
        result = f if result is None else kron(result, f)
    if result is None:
        raise DimensionMismatch("kron_all of empty sequence")
    return result


def flip_matrix(N: int, n: int, backend: Backend = Backend.EXACT_Q) -> Matrix:
    """Permutation matrix taking revlex order to lex order (word reversal)."""
    size = N ** n
    perm = [word_to_index(tuple(reversed(index_to_word(i, N, n))), N) for i in range(size)]
    return Matrix.permutation(perm, backend)


def swap_matrix(N: int, M: int, backend: Backend = Backend.EXACT_Q) -> Matrix:
    """The flip P_{N,M} with P(x (x) y) = y (x) x on elementary vectors."""
    out = Matrix.zeros(N * M, N * M, backend)
    o = one(backend)
    for x in range(N):
        for y in range(M):
            out.data[y + M * x][x + N * y] = o
    return out


def farr(M: Matrix, N: int, src_level: int, tgt_level: int) -> Matrix:
    """Transport to the opposite Kronecker convention: flip source and target words."""
    if M.cols != N ** src_level or M.rows != N ** tgt_level:
        raise DimensionMismatch(
            f"farr: expected {N ** tgt_level}x{N ** src_level}, got {M.rows}x{M.cols}"
        )
    f_src = flip_matrix(N, src_level, M.backend)
    f_tgt = flip_matrix(N, tgt_level, M.backend)
    return f_tgt.mul(M).mul(f_src)


def pseudo_inverse(Q: Matrix) -> Matrix:
    """Moore-Penrose left inverse (Q'Q)^(-1) Q' for full column rank Q."""
    gram = Q.dagger().mul(Q)
    if not gram.is_invertible():
        raise RankDeficient("pseudo_inverse: matrix does not have full column rank")
    return gram.inverse().mul(Q.dagger())
