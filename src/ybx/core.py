"""Yang-Baxter objects, the braid representation, and matrix-class predicates.

A Yang-Baxter object is a triple (N, a, R): rank N, level a, and an
invertible matrix R of size N^(2a) acting on two tensor slots of width N^a.
The braid group representation sends sigma_i to I^(i-1) (x) R (x) I^(n-i-1),
with slots of width N^a and words multiplying left to right.

Words are multiplied without building any generator image: each letter reads
R's (or R^-1's) local table u -> {u': R[u][u']}, built once per object
(``_Letters``; R must not be mutated after a product), in place for its two
slots, on sparse ``{col: value}`` rows or, for exact products from
``_COO_ROWS`` rows on, on numpy arrays of all their nonzeros, and the linear
systems of ``structure`` read the same table (``_placed``).  The exact backends
multiply integer rows with one denominator per product, in the layout of the
``ybx.tensor`` docstring (``_parts``), on int64 while a bit bound allows, with
the values' common factor carried out as the product's content
(``_word_arrays``), and divide once per distinct value (``tensor._decoded``).
Of the 633 array steps of a perfbench ``represent`` pass, 33 run on Python
ints at seed 1 and 62 at seed 21 (76 and 127 without the content).  Two
array products are compared on their arrays (``_compare_words``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import prod

import numpy as np

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
from .scalars import Backend, one, scalar_abs, zero
from .tensor import Matrix, _decoded, _integral, _times_i, dense_rows, index_to_word

# Largest dimension N^(a n) of a representation space built here.  A dense
# exact matrix of that size holds a million entries; the largest in use is
# the 512-dimensional is_ybe of a 3-cable at slot width 8.
MAX_DIM = 1024

# Rows from which an exact word product runs on arrays (``_coo_times``):
# below, numpy's cost per call outweighs the dict loop of ``_times`` (half twists
# on int64 at 16 rows: 0.25 against 0.13 ms on hietarinta:a, exact-q, and 0.43
# against 0.26 ms on match2:F/, exact-qi; within 5% of each other at 32 rows).
_COO_ROWS = 32


def check_dim(base: int, exponent: int, what: str) -> int:
    """Return the dimension base^exponent of a space about to be allocated, or
    raise SizeCeiling past ``MAX_DIM``.  The power is raised only up to the
    exponent bits(MAX_DIM), where a base of 2 or more is already past the
    ceiling, and a larger one is reported as "base^exponent"."""
    bound = MAX_DIM.bit_length()
    size = base ** min(exponent, bound)
    if size > MAX_DIM:
        shown = size if exponent <= bound else f"{base}^{exponent}"
        raise SizeCeiling(f"{what}: dimension {shown} exceeds the ceiling {MAX_DIM}")
    return size


@dataclass(frozen=True)
class YBObject:
    N: int
    level: int
    R: Matrix
    verified: bool = False

    def __post_init__(self):
        if self.N < 1 or self.level < 1:
            raise DimensionMismatch("rank and level must be >= 1")
        # N^(2a) has more than 2a (bits of N - 1) bits: check that before raising it
        bits = max(self.R.rows, self.R.cols).bit_length()
        if 2 * self.level * (self.N.bit_length() - 1) >= bits:
            raise DimensionMismatch(f"R is {self.R.rows}x{self.R.cols}, smaller than N^(2 level) "
                                    f"for rank {self.N} level {self.level}")
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

    # built on first use and kept; not a field, so equality, hashing and replace leave it out
    _letters = cached_property(lambda self: _Letters(self.R, self.slot_dim))


@dataclass(frozen=True)
class YbeReport:
    holds: bool
    residual: float
    witness: tuple | None  # ((row, col), magnitude) of the worst entry


def make_ybo(N: int, R: Matrix, level: int = 1, verify: bool = True,
             tol: float | None = None) -> YBObject:
    """Construct a Yang-Baxter object, checking invertibility and (optionally) YBE."""
    obj = YBObject(N, level, R, verified=verify)    # tagged first: keeps is_ybe's tables
    if R.rank(tol=DEFAULT_TOL if tol is None else tol) < R.rows:   # exact: tol unused
        raise SingularMatrix("R must be invertible")
    if verify:
        report = is_ybe(obj, tol=tol)
        if not report.holds:
            raise ValueError(f"matrix fails the Yang-Baxter equation (residual {report.residual})")
    return obj


def is_ybe(obj: YBObject, tol: float | None = None) -> YbeReport:
    """Check (R x I)(I x R)(R x I) = (I x R)(R x I)(I x R) on three slots."""
    return _compare_words(obj, 3, (1, 2, 1), (2, 1, 2), tol)


def verified(obj: YBObject, tol: float | None = None) -> YBObject:
    """Return the object tagged verified, checking YBE on the tagged copy; raises if it fails."""
    if obj.verified:
        return obj
    obj = replace(obj, verified=True)
    report = is_ybe(obj, tol=tol)
    if not report.holds:
        raise ValueError(f"Yang-Baxter residual {report.residual}")
    return obj


# -- representation -----------------------------------------------------------


def _table(R: Matrix) -> list:
    """R's local table u -> {u': R[u][u']} over its nonzeros, the one form in
    which a generator is read (``_placed``, ``_Letters``)."""
    return [{c: v for c, v in enumerate(row) if v} for row in R.data]


def _placed(table: list, w: int, n: int, i: int):
    """Yield the rows of I^(i-1) (x) R (x) I^(n-i-1) on slots of width w in turn,
    as [(col, value)] lists of R's own values from its table (``_table``): in
    the Ab convention row lo + L u + L w^2 hi (L = w^(i-1), u < w^2) holds
    R[u][u'] in column lo + L u' + L w^2 hi."""
    L, w2 = w ** (i - 1), w * w
    for k in range(w ** n):
        u = k // L % w2
        yield [(k + L * (c - u), v) for c, v in table[u].items()]


def _parts(rows: list, gauss: bool) -> list:
    """Integer rows (``tensor._integral``) in parts: part s is them times the
    s-th basis element, 1 and with gauss i (``tensor._times_i``), so that a
    product row's entry at column q k + s meets row k of part s."""
    return [rows, list(map(_times_i, rows))] if gauss else [rows]


class _Letters(dict):
    """Letter e -> ((parts, L, w^2), d) of one object's word products, built on
    first use and kept with it (``YBObject._letters``): sigma_e, or sigma_-e^-1
    for e < 0, as R's (R^-1's) table in q parts over d (``_parts``, in the layout
    of the ``ybx.tensor`` docstring; complex-f: the table, d = 1), row u's
    columns u' taken to offsets L (u' - u), L = q w^(e-1).  R^-1 is solved once,
    at the first inverse letter; R must not be mutated after a product."""

    def __init__(self, R: Matrix, w: int):
        self.R, self.w, self.tables, self.arrays = R, w, {}, {}
        self.gauss = R.backend is Backend.EXACT_QI
        self.q = len(_parts([], self.gauss))

    def __missing__(self, e: int) -> tuple:
        R, sign, q = self.R, e > 0, self.q
        if sign not in self.tables:
            table = _table(R if sign else R.inverse())
            rows, d = _integral(table, self.gauss) if R.backend.is_exact else (table, 1)
            self.tables[sign] = _parts(rows, self.gauss), d
        parts, d = self.tables[sign]
        L = q * self.w ** (abs(e) - 1)
        shifted = [[[(L * (c // q - u) + c % q - s, v) for c, v in row.items()]
                    for u, row in enumerate(part)] for s, part in enumerate(parts)]
        self[e] = (shifted, L, self.w ** 2), d
        return self[e]

    def coo(self, e: int, width: int) -> tuple:
        """Letter e for ``_coo_times`` on products of the given width: per
        column k, the start and count of its table row's entries in the flat
        offsets and values (int64 if g <= 62) of all the rows; and the letter's
        growth g, the bits of its largest |value| plus those of its row count."""
        if (e, width) not in self.arrays:
            (parts, L, w2), _ = self[e]
            table = [row for part in parts for row in part]
            count, k = np.array([len(row) for row in table]), np.arange(width)
            t = k % len(parts) * w2 + k // L % w2
            values = [v for row in table for _, v in row]
            g = max(map(abs, values)).bit_length() + len(table).bit_length()
            self.arrays[e, width] = ((np.cumsum(count) - count)[t], count[t],
                                     np.array([c for row in table for c, _ in row]),
                                     np.array(values, np.int64 if g <= 62 else object)), g
        return self.arrays[e, width]


def _unit_rows(size: int, backend: Backend) -> list:
    """Integer rows of the identity that a word product starts from: row k is
    1 times the field's 1, at column q k (``_parts``)."""
    unit = 1 if backend.is_exact else one(backend)
    q = len(_parts([], backend is Backend.EXACT_QI))
    return [{q * k: unit} for k in range(size)]


def _product_trace(rows: list, D: int, step: tuple, backend: Backend):
    """Trace of integer rows over D times a letter (``_Letters``), from the
    diagonal alone, in the order the product adds it; divided once.  Row k's
    diagonal entry is its value at columns q k .. q k + q - 1."""
    (parts, L, w2), d = step
    q = len(parts)
    sums = []
    for s in range(q):
        entries = ([v * r for j, v in row.items() for c, r in parts[j % q][j // L % w2]
                    if c == t - j] for t, row in zip(range(s, q * len(rows), q), rows))
        sums.append(sum((sum(e[1:], e[0]) for e in entries if e), 0))
    if not backend.is_exact:
        return complex(sums[0])
    return _decoded([dict(enumerate(sums))], D * d, backend is Backend.EXACT_QI)[0][0]


def _word_product(obj: YBObject, n: int, word) -> tuple:
    """Integer rows and denominator D (``_integral``) of the product of the
    word's generator images on n strands, left to right; D is the product of
    the letters' denominators.  Exact products of ``_COO_ROWS`` rows or more
    run on arrays (``_word_arrays``), converted to rows at the end."""
    size = check_dim(obj.slot_dim, n, f"representation on {n} strands")
    if _on_arrays(obj, size):
        return _array_rows(obj, size, _word_arrays(obj, size, word))
    letters = obj._letters
    rows = _unit_rows(size, obj.backend)
    for e in word:
        rows = _times(rows, letters[e][0])
    return rows, prod(letters[e][1] for e in word)


def _on_arrays(obj: YBObject, size: int) -> bool:
    return size >= _COO_ROWS and obj.backend.is_exact


def _bits(values) -> int:
    return int(np.abs(values).max()).bit_length()


def _word_arrays(obj: YBObject, size: int, word) -> tuple:
    """Sorted keys row * width + col (width q size), values, content and D of
    an exact word product on arrays (``_coo_times``): its integer rows
    (``_word_product``) hold the content times the values.  The values run on
    int64 while b + g <= 62, b the bits of the largest |value| and g the next
    letter's growth (``_Letters.coo``).  Past that, they are first divided by
    their gcd, which is folded into the content, and turn into Python ints,
    for the rest of the word, only if b + g is still above 62.  An entry adds
    at most one term per table row, fewer than 2^c, each below 2^b 2^a
    (g = a + c, b measured after any division), so every term, partial sum
    and result stays below 2^62 and int64 is exact; the content is a Python
    int, multiplied back by ``_array_rows``."""
    letters = obj._letters
    width = letters.q * size                            # row k starts as 1 at column q k
    keys, values, content = np.arange(size) * (width + letters.q), np.ones(size, np.int64), 1
    for e in word:
        letter, g = letters.coo(e, width)
        if values.dtype != object and _bits(values) + g > 62:
            common = int(np.gcd.reduce(values))
            values, content = values // common, content * common
            if _bits(values) + g > 62:
                values = values.astype(object)
        keys, values = _coo_times(keys, values, width, letter)
    return keys, values, content, prod(letters[e][1] for e in word)


def _array_rows(obj: YBObject, size: int, product: tuple) -> tuple:
    """Integer rows and D of an array product (``_word_arrays``), its content
    multiplied back: the rows ``_times`` gives, bit for bit."""
    keys, values, content, D = product
    width = obj._letters.q * size
    bounds = np.searchsorted(keys, np.arange(size + 1) * width).tolist()
    cols, values = (keys % width).tolist(), values.tolist()
    if content != 1:
        values = [v * content for v in values]
    return [dict(zip(cols[a:b], values[a:b])) for a, b in zip(bounds, bounds[1:])], D


def _word_rows(obj: YBObject, n: int, word) -> list:
    """Sparse rows {col: value} of the product of the word's generator images
    on n strands, left to right."""
    rows, D = _word_product(obj, n, word)
    return _decoded(rows, D, obj.backend is Backend.EXACT_QI) if obj.backend.is_exact else rows


def _times(rows: list, letter: tuple) -> list:
    """Integer rows {col: value} times a letter (``_Letters``), read in place: the
    entry at column k meets row k // L mod w^2 of the letter's table (of its
    part k mod q), its offsets added to k.  Products below
    ``_COO_ROWS`` rows and on complex-f, and shared prefixes, run on it."""
    parts, L, w2 = letter
    q = len(parts)
    product = []
    for row in rows:
        out = {}
        for k, v in row.items():
            for c, r in parts[k % q][k // L % w2]:
                c += k
                if c in out:
                    out[c] += v * r
                else:
                    out[c] = v * r
        product.append({c: x for c, x in out.items() if x})
    return product


def _coo_times(keys, values, width: int, letter: tuple) -> tuple:
    """Sorted keys row * width + col and integer values of a product's nonzeros
    times a letter (``_Letters.coo``), as ``_times`` does row by row: each
    entry repeated once per entry of its table row, offsets added, values
    multiplied, then equal keys summed after one stable sort, zeros dropped.
    int64 values stay int64, and Python ints in an object array stay Python ints."""
    start, count, offsets, table = letter
    c = keys % width
    n = count[c]
    rep = np.repeat(np.arange(len(keys)), n)
    j = np.arange(len(rep)) + np.repeat(start[c] - np.cumsum(n) + n, n)
    keys, values = keys[rep] + offsets[j], values[rep] * table[j]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    keys, values = keys[first], np.add.reduceat(values[order], first)
    nonzero = values.astype(bool)
    return keys[nonzero], values[nonzero]


def _dense(obj: YBObject, rows) -> Matrix:
    size = len(rows)
    return Matrix(size, size, obj.R.backend, dense_rows(rows, size, zero(obj.R.backend)))


def _compare_words(obj: YBObject, n: int, left, right, tol) -> YbeReport:
    """Entrywise comparison of the images of two words on n strands.

    Two array products (``_word_arrays``: content c, values v, denominator D)
    are the same matrix when their keys are equal and cl Dr vl = cr Dl vr, on
    int64 when cl Dr = cr Dl, and only products that differ become rows.  The
    integer rows are compared directly, cross-multiplied by the other side's
    denominator when the two differ; only the entries that differ are
    decoded.  The residual is the largest |difference| and the witness its
    first (row, col) in row-major order; on complex-f the words agree when the
    residual is at most tol times max(1, inf-norms of both images).
    """
    backend = obj.R.backend
    size = check_dim(obj.slot_dim, n, f"representation on {n} strands")
    if _on_arrays(obj, size):
        (kl, vl, cl, Dl), (kr, vr, cr, Dr) = products = [
            _word_arrays(obj, size, word) for word in (left, right)]
        sl, sr = cl * Dr, cr * Dl
        if sl != sr:
            vl, vr = vl.astype(object) * sl, vr.astype(object) * sr
        if np.array_equal(kl, kr) and np.array_equal(vl, vr):
            return YbeReport(True, 0.0, None)
        (lhs, Dl), (rhs, Dr) = (_array_rows(obj, size, p) for p in products)
    else:
        (lhs, Dl), (rhs, Dr) = (_word_product(obj, n, word) for word in (left, right))
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
        diff = {c: x for c, x in diff.items() if x}
        if backend.is_exact:
            (diff,) = _decoded([diff], Dl if Dl == Dr else Dl * Dr, backend is Backend.EXACT_QI)
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
