"""Yang-Baxter objects, the braid representation, and matrix-class predicates.

A Yang-Baxter object is a triple (N, a, R): rank N, level a, and an
invertible matrix R of size N^(2a) acting on two tensor slots of width N^a.
The braid group representation sends sigma_i to I^(i-1) (x) R (x) I^(n-i-1),
with slots of width N^a and words multiplying left to right.

Words are multiplied without building any generator image: starting from
identity rows, each letter acts locally on its two slots through R's (or
R^-1's) nonzero entries, on sparse ``{col: value}`` rows.  The exact
backends multiply integer numerators with one common denominator per
product (``_integral``), exact-qi realified as pairs of integer columns, and
divide once per entry of the result (``_decoded``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .braid import BraidWord, fox, half_twist_word
from .config import DEFAULT_TOL
from .errors import (
    DimensionMismatch,
    GeneratorOutOfRange,
    NotGroupType,
    NotMonomial,
    SingularMatrix,
    SizeCeiling,
)
from .scalars import Backend, GaussianRational, one, scalar_abs, zero
from .tensor import Matrix, dense_rows, index_to_word

# Largest dimension N^(a n) of a representation space built here.  A dense
# exact matrix of that size holds a million entries; the largest in use is
# the 512-dimensional is_ybe of a 3-cable at slot width 8.
MAX_DIM = 1024


def check_dim(size: int, what: str) -> None:
    """Raise SizeCeiling before a space of dimension `size` is allocated."""
    if size > MAX_DIM:
        raise SizeCeiling(f"{what}: dimension {size} exceeds the ceiling {MAX_DIM}")


@dataclass(frozen=True)
class YBObject:
    N: int
    level: int
    R: Matrix
    verified: bool = False

    def __post_init__(self):
        if self.N < 1 or self.level < 1:
            raise DimensionMismatch("rank and level must be >= 1")
        size = self.N ** (2 * self.level)
        if self.R.rows != size or self.R.cols != size:
            raise DimensionMismatch(
                f"R must be {size}x{size} for rank {self.N} level {self.level}"
            )

    @property
    def slot_dim(self) -> int:
        return self.N ** self.level

    @property
    def backend(self) -> Backend:
        return self.R.backend


@dataclass(frozen=True)
class YbeReport:
    holds: bool
    residual: float
    witness: tuple | None  # ((row, col), magnitude) of the worst entry


def make_ybo(N: int, R: Matrix, level: int = 1, verify: bool = True,
             tol: float | None = None) -> YBObject:
    """Construct a Yang-Baxter object, checking invertibility and (optionally) YBE."""
    obj = YBObject(N, level, R)
    if R.rank(tol=DEFAULT_TOL if tol is None else tol) < R.rows:   # exact: tol unused
        raise SingularMatrix("R must be invertible")
    if verify:
        report = is_ybe(obj, tol=tol)
        if not report.holds:
            raise ValueError(f"matrix fails the Yang-Baxter equation (residual {report.residual})")
        obj = replace(obj, verified=True)
    return obj


def is_ybe(obj: YBObject, tol: float | None = None) -> YbeReport:
    """Check (R x I)(I x R)(R x I) = (I x R)(R x I)(I x R) on three slots."""
    return _compare_words(obj, 3, (1, 2, 1), (2, 1, 2), tol)


def verified(obj: YBObject, tol: float | None = None) -> YBObject:
    """Return the object tagged verified; raises if YBE fails."""
    if obj.verified:
        return obj
    report = is_ybe(obj, tol=tol)
    if not report.holds:
        raise ValueError(f"Yang-Baxter residual {report.residual}")
    return replace(obj, verified=True)


# -- representation -----------------------------------------------------------


def _letter_rows(R: Matrix, w: int, n: int, i: int) -> list:
    """Rows of I^(i-1) (x) R (x) I^(n-i-1) on slots of width w, as [(col, value)]
    lists over the nonzeros, built from the local action u -> [(u', R[u][u'])].

    In the Ab convention row lo + L u + L w^2 hi (L = w^(i-1), u < w^2) holds
    R[u][u'] in column lo + L u' + L w^2 hi.
    """
    table = [[(c, v) for c, v in enumerate(row) if v] for row in R.data]
    L = w ** (i - 1)
    w2 = w * w
    out = []
    for k in range(w ** n):
        u = k // L % w2
        base = k - L * u
        out.append([(base + L * u2, v) for u2, v in table[u]])
    return out


def _integral(rows: list, backend: Backend) -> tuple:
    """A letter's rows (``_letter_rows``) as integer rows and a denominator d.

    On exact-q the values become int numerators over d, the lcm of their
    denominators.  On exact-qi the rows are realified over doubled columns:
    a + b i at (k, c) gives (2c, a), (2c+1, b) in row 2k and (2c, -b),
    (2c+1, a) in row 2k+1, so integer products do the Gaussian arithmetic
    exactly.  Complex-f rows pass through with d = 1.
    """
    if backend is Backend.COMPLEX_F:
        return rows, 1
    if backend is Backend.EXACT_Q:
        d = lcm(*(v.denominator for row in rows for _, v in row))
        return [[(c, v.numerator * (d // v.denominator)) for c, v in row] for row in rows], d
    d = lcm(*(x.denominator for row in rows for _, v in row for x in (v.re, v.im)))
    out = []
    for row in rows:
        parts = [(c, v.re.numerator * (d // v.re.denominator),
                  v.im.numerator * (d // v.im.denominator)) for c, v in row]
        out.append([e for c, a, b in parts for e in ((2 * c, a), (2 * c + 1, b)) if e[1]])
        out.append([e for c, a, b in parts for e in ((2 * c, -b), (2 * c + 1, a)) if e[1]])
    return out, d


def _unit_rows(size: int, backend: Backend) -> list:
    """Integer rows of the identity that a word product starts from; on exact-qi
    only the realified rows 2k, since those carry row k of every product."""
    if backend is Backend.EXACT_QI:
        return [{2 * k: 1} for k in range(size)]
    unit = 1 if backend is Backend.EXACT_Q else one(backend)
    return [{k: unit} for k in range(size)]


def _decoded(rows: list, D: int, backend: Backend) -> list:
    """Sparse rows {col: value} of the integer rows over the denominator D: one
    division per entry, (re, im) from the column pairs (2c, 2c+1) on exact-qi."""
    if backend is Backend.COMPLEX_F:
        return rows
    if backend is Backend.EXACT_Q:
        return [{c: Fraction(v, D) for c, v in row.items()} for row in rows]
    out = []
    for row in rows:
        pairs = {}
        for c, v in row.items():
            pairs.setdefault(c >> 1, [0, 0])[c & 1] = v
        out.append({c: GaussianRational._of(Fraction(a, D), Fraction(b, D))
                    for c, (a, b) in pairs.items()})
    return out


def _product_trace(rows: list, D: int, step: tuple, backend: Backend):
    """Trace of integer rows over D times a letter's (rows, d) (``_integral``),
    from the diagonal alone, in the order the product adds it; divided once.
    On exact-qi the diagonal entry of row k is (column 2k, column 2k+1) = (re, im)."""
    last, d = step
    if backend is Backend.EXACT_QI:
        size = 2 * len(rows)
        return GaussianRational._of(Fraction(_diagonal_sum(rows, last, range(0, size, 2)), D * d),
                                    Fraction(_diagonal_sum(rows, last, range(1, size, 2)), D * d))
    t = _diagonal_sum(rows, last, range(len(rows)))
    return Fraction(t, D * d) if backend is Backend.EXACT_Q else complex(t)


def _diagonal_sum(rows: list, last: list, targets):
    """sum_k sum_j rows[k][j] last[j][targets[k]]."""
    entries = ([v * r for j, v in row.items() for c, r in last[j] if c == k]
               for k, row in zip(targets, rows))
    return sum((sum(t[1:], t[0]) for t in entries if t), 0)


def _word_product(obj: YBObject, n: int, letters) -> tuple:
    """Integer rows and denominator D (``_integral``) of the product of the letters'
    generator images on n strands, left to right; D is the product of the
    letters' denominators."""
    w = obj.slot_dim
    size = w ** n
    check_dim(size, f"representation on {n} strands")
    backend = obj.R.backend
    steps = {}
    rows, D = _unit_rows(size, backend), 1
    inverse = None
    for e in letters:
        step = steps.get(e)
        if step is None:
            if e < 0 and inverse is None:
                inverse = obj.R.inverse()
            step = steps[e] = _integral(
                _letter_rows(inverse if e < 0 else obj.R, w, n, abs(e)), backend)
        rows, D = _times(rows, step[0]), D * step[1]
    return rows, D


def _word_rows(obj: YBObject, n: int, letters) -> list:
    """Sparse rows {col: value} of the product of the letters' generator images
    on n strands, left to right."""
    return _decoded(*_word_product(obj, n, letters), obj.R.backend)


def _times(rows: list, step: list) -> list:
    """Sparse rows {col: value} times a letter's [(col, value)] rows (``_integral``)."""
    product = []
    for row in rows:
        out = {}
        for k, v in row.items():
            for c, r in step[k]:
                if c in out:
                    out[c] += v * r
                else:
                    out[c] = v * r
        product.append({c: x for c, x in out.items() if x})
    return product


def _dense(obj: YBObject, rows) -> Matrix:
    size = len(rows)
    return Matrix(size, size, obj.R.backend, dense_rows(rows, size, zero(obj.R.backend)))


def _compare_words(obj: YBObject, n: int, left, right, tol) -> YbeReport:
    """Entrywise comparison of the images of two words on n strands.

    The integer rows are compared directly, cross-multiplied by the other
    side's denominator when the two differ; only the entries that differ are
    decoded.  The residual is the largest |difference| and the witness its
    first (row, col) in row-major order; on complex-f the words agree when the
    residual is at most tol times max(1, inf-norms of both images).
    """
    backend = obj.R.backend
    lhs, Dl = _word_product(obj, n, left)
    rhs, Dr = _word_product(obj, n, right)
    worst = None
    worst_abs = 0.0
    for r, (lrow, rrow) in enumerate(zip(lhs, rhs)):
        if Dl == Dr:
            if lrow == rrow:
                continue
            diff = {c: lrow.get(c, 0) - rrow.get(c, 0) for c in lrow.keys() | rrow.keys()}
        else:
            diff = {c: lrow.get(c, 0) * Dr - rrow.get(c, 0) * Dl
                    for c in lrow.keys() | rrow.keys()}
        (diff,) = _decoded([{c: x for c, x in diff.items() if x}],
                           Dl if Dl == Dr else Dl * Dr, backend)
        for c in sorted(diff):
            m = scalar_abs(diff[c])
            if m > worst_abs:
                worst_abs, worst = m, ((r, c), m)
    if backend.is_exact:
        return YbeReport(worst is None, worst_abs, worst)
    tol = DEFAULT_TOL if tol is None else tol
    scale = max([1.0] + [sum(scalar_abs(v) for v in row.values()) for row in lhs + rhs])
    return YbeReport(worst_abs <= tol * scale, worst_abs, worst)


def generator_image(obj: YBObject, n: int, i: int, inverse: bool = False) -> Matrix:
    """Image of sigma_i (or its inverse) on n strands."""
    if not 1 <= i <= n - 1:
        raise GeneratorOutOfRange(f"sigma_{i} does not exist on {n} strands")
    return _dense(obj, _word_rows(obj, n, (-i if inverse else i,)))


def rho(obj: YBObject, word: BraidWord) -> Matrix:
    """Representation of a braid word: product of generator images, left to right."""
    return _dense(obj, _word_rows(obj, word.strands, word.letters))


def braid_relations_check(obj: YBObject, n: int, tol: float | None = None) -> bool:
    """Verify B1 (braid) and B2 (far commutation) relations on n strands."""
    for i in range(1, n - 1):
        if not _compare_words(obj, n, (i, i + 1, i), (i + 1, i, i + 1), tol).holds:
            return False
    for i in range(1, n):
        for j in range(i + 2, n):
            if not _compare_words(obj, n, (i, j), (j, i), tol).holds:
                return False
    return True


def reversal_conjugation_check(obj: YBObject, n: int, words, tol: float | None = None) -> bool:
    """Conjugation by the half twist realises the index-reversal symmetry.

    Checks rho(D_n) rho(w) rho(D_n)^(-1) = rho(fox(w)) for the given words,
    as rho(D_n w) = rho(fox(w) D_n) entrywise (``_compare_words``).
    """
    delta = half_twist_word(n).letters
    for w in words:
        if w.strands != n:
            raise GeneratorOutOfRange("word strand count mismatch")
        if not _compare_words(obj, n, delta + w.letters, fox(w).letters + delta, tol).holds:
            return False
    return True


# -- matrix class predicates ----------------------------------------------------


def _word_length(M: Matrix, N: int) -> int:
    if N == 1:
        if M.rows != 1 or M.cols != 1:
            raise DimensionMismatch("rank-1 matrices must be 1x1")
        return 2
    size, L = 1, 0
    while size < M.rows:
        size *= N
        L += 1
    if size != M.rows or M.rows != M.cols:
        raise DimensionMismatch(f"size {M.rows}x{M.cols} is not a power of {N}")
    return L


def _nonzero_entries(M: Matrix, tol: float | None):
    if M.backend.is_exact:
        for r, row in enumerate(M.data):
            for c, v in enumerate(row):
                if v:
                    yield r, c, v
    else:
        cut = (DEFAULT_TOL if tol is None else tol) * max(1.0, M.inf_norm())
        for r, row in enumerate(M.data):
            for c, v in enumerate(row):
                if scalar_abs(v) > cut:
                    yield r, c, v


def _charge(index: int, N: int, L: int, additive: bool = False):
    """Charge of basis word `index` of length L over {1..N}: its sorted
    letters, or with `additive` their sum."""
    word = index_to_word(index, N, L)
    return sum(word) if additive else sorted(word)


def _charge_violations(M: Matrix, N: int, additive: bool = False,
                       tol: float | None = None) -> list:
    """((row, col), value) of each nonzero entry, in row-major order, whose row
    and column words differ in charge (``_charge``)."""
    L = _word_length(M, N)
    charge = [_charge(k, N, L, additive) for k in range(M.rows)]
    return [((r, c), v) for r, c, v in _nonzero_entries(M, tol) if charge[r] != charge[c]]


def is_charge_conserving(M: Matrix, N: int, tol: float | None = None) -> bool:
    """Entries vanish unless the row word is a permutation of the column word."""
    return not _charge_violations(M, N, tol=tol)


def is_additive_cc(M: Matrix, N: int, tol: float | None = None) -> bool:
    """Entries vanish unless row and column words have equal symbol sums."""
    return not _charge_violations(M, N, additive=True, tol=tol)


def cc_shape_level2(R: Matrix, N: int, tol: float | None = None):
    """Check the level-2 charge-conserving shape; returns (ok, violations).

    The allowed pattern reads basis words of length 4 over the base alphabet
    {1..N}: an entry may be nonzero only when the row word is a permutation
    of the column word.  Violations are ((row, col), value) pairs.
    """
    if R.rows != N ** 4 or R.cols != N ** 4:
        raise DimensionMismatch("level-2 shape check needs an N^4 x N^4 matrix")
    violations = _charge_violations(R, N, tol=tol)
    return (not violations, violations)


def is_monomial(M: Matrix, tol: float | None = None) -> bool:
    if not M.is_square():
        return False
    row_seen = [0] * M.rows
    col_seen = [0] * M.cols
    for r, c, _ in _nonzero_entries(M, tol):
        row_seen[r] += 1
        col_seen[c] += 1
    return all(x == 1 for x in row_seen) and all(x == 1 for x in col_seen)


def is_permutation(M: Matrix, tol: float | None = None) -> bool:
    if not is_monomial(M, tol):
        return False
    o = one(M.backend)
    for _, _, v in _nonzero_entries(M, tol):
        if M.backend.is_exact:
            if v != o:
                return False
        elif abs(v - 1) > (DEFAULT_TOL if tol is None else tol):
            return False
    return True


def is_involutive(M: Matrix, tol: float | None = None) -> bool:
    if not M.is_square():
        return False
    return M.mul(M).eq(Matrix.identity(M.rows, M.backend), tol)


def is_unitary(M: Matrix, tol: float | None = None) -> bool:
    if not M.is_square():
        return False
    return M.mul(M.dagger()).eq(Matrix.identity(M.rows, M.backend), tol)


# -- group type -----------------------------------------------------------------


def group_type_build(gs, verify: bool = False) -> YBObject:
    """Candidate R with R|ij> = g_i |j> (x) |i> for the given invertible g_i."""
    N = len(gs)
    backend = gs[0].backend
    for g in gs:
        if g.rows != N or g.cols != N:
            raise DimensionMismatch("each g_i must be N x N")
    R = Matrix.zeros(N * N, N * N, backend)
    for i in range(N):
        for j in range(N):
            col = i + N * j
            for k in range(N):
                R.data[k + N * i][col] = gs[i].data[k][j]
    return make_ybo(N, R, verify=verify) if verify else YBObject(N, 1, R)


def is_group_type(R: Matrix, N: int, tol: float | None = None):
    """Recover the g_i from R's block columns; raises NotGroupType on failure."""
    if R.rows != N * N or R.cols != N * N:
        raise DimensionMismatch("group-type detection needs an N^2 x N^2 matrix")
    gs = [Matrix.zeros(N, N, R.backend) for _ in range(N)]
    for i in range(N):
        for j in range(N):
            col = i + N * j
            for r in range(N * N):
                v = R.data[r][col]
                if not v:
                    continue
                k, i2 = r % N, r // N
                if i2 != i:
                    raise NotGroupType(f"column |{i+1}{j+1}> hits a word outside g_i|j>(x)|i>")
                gs[i].data[k][j] = v
    for i, g in enumerate(gs):
        if g.rank(tol=DEFAULT_TOL if tol is None else tol) < N:
            raise NotGroupType(f"g_{i+1} is singular")
    return gs


def group_type_ybe_condition(gs, tol: float | None = None) -> bool:
    """Check g_i g_j = g_k g_i whenever the coefficient of |k> in g_i|j> is nonzero."""
    N = len(gs)
    for i in range(N):
        for j in range(N):
            for k in range(N):
                coeff = gs[i].data[k][j]
                nonzero = bool(coeff) if gs[i].backend.is_exact else (
                    scalar_abs(coeff) > (DEFAULT_TOL if tol is None else tol)
                )
                if nonzero and not gs[i].mul(gs[j]).eq(gs[k].mul(gs[i]), tol):
                    return False
    return True


# -- monomial stripping ----------------------------------------------------------


def strip_to_permutation(R: Matrix, tol: float | None = None):
    """Write a monomial R as D.P with D diagonal and P a permutation matrix."""
    if not is_monomial(R, tol):
        raise NotMonomial("matrix is not monomial")
    D = Matrix.zeros(R.rows, R.rows, R.backend)
    P = Matrix.zeros(R.rows, R.cols, R.backend)
    o = one(R.backend)
    for r, c, v in _nonzero_entries(R, tol):
        D.data[r][r] = v
        P.data[r][c] = o
    return D, P
