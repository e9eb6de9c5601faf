import os

# One BLAS/OpenMP thread, as perfbench/steady.py sets for the benchmark: an
# unbounded OpenBLAS pool spins against any other busy process on the host
# (on 2 vCPUs one SVD of test_linear_systems took 14 s instead of 0.15 s).
# Set before numpy is first imported, which the imports below do.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import random  # noqa: E402
from fractions import Fraction  # noqa: E402
from itertools import product  # noqa: E402

import pytest  # noqa: E402

from ybx.catalog import catalog_get, sample_entry_binding  # noqa: E402
from ybx.core import make_ybo  # noqa: E402
from ybx.expressions import ParamBinding  # noqa: E402
from ybx.scalars import Backend, GaussianRational, scalar_abs  # noqa: E402
from ybx.tensor import Matrix, kron  # noqa: E402


def random_rational(rng, lo=-9, hi=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 9))


def random_matrix(rng, rows, cols):
    return Matrix.from_rows(
        [[random_rational(rng) for _ in range(cols)] for _ in range(rows)])


def random_invertible(rng, n):
    while True:
        M = random_matrix(rng, n, n)
        if M.det():
            return M


def random_cc_matrix(rng, N):
    """A random exact charge-conserving matrix on two slots: a random nonzero
    rational on every cell whose row and column words have the same letters."""
    charge = [sorted((k % N, k // N)) for k in range(N * N)]
    out = Matrix.zeros(N * N, N * N)
    for r, c in product(range(N * N), repeat=2):
        if charge[r] == charge[c]:
            num = rng.randint(1, 9) * (1 if rng.random() < 0.5 else -1)
            out.data[r][c] = Fraction(num, rng.randint(1, 9))
    return out


def random_monomial(rng, N):
    """P D for a random permutation P and a random invertible diagonal D."""
    perm = list(range(N))
    rng.shuffle(perm)
    D = Matrix.diagonal([random_rational(rng, 1, 9) * rng.choice((1, -1)) for _ in range(N)])
    return Matrix.permutation(perm).mul(D)


def sampled_catalog_object(entry_id, seed):
    return catalog_get(entry_id, sample_entry_binding(entry_id, seed))


def fa_matrix(alpha, beta):
    """Case-a charge-conserving solution with parameters (alpha, beta)."""
    zero = alpha * 0
    return Matrix.from_rows([
        [alpha, zero, zero, zero],
        [zero, alpha + beta, -beta, zero],
        [zero, alpha, zero, zero],
        [zero, zero, zero, beta]])


def zeta8():
    return complex(2 ** -0.5, 2 ** -0.5)


def ising_exact():
    return Matrix.from_rows([
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, -1, 1, 0],
        [-1, 0, 0, 1]])


def ising_unitary():
    return ising_exact().promote_to(Backend.COMPLEX_F).scale(complex(2 ** -0.5))


def gaussian_pair():
    """The 9x9 unitary pair built from a primitive 12th root of unity."""
    a = complex((3 ** 0.5) / 2, 0.5)
    x = -(1 + a * a) / 3
    y = x + 1
    z = -(x + y)
    R = Matrix.from_rows([
        [x, 0, 0, 0, y, 0, 0, 0, y],
        [0, x, 0, 0, 0, x, z, 0, 0],
        [0, 0, x, z, 0, 0, 0, x, 0],
        [0, 0, x, x, 0, 0, 0, z, 0],
        [y, 0, 0, 0, x, 0, 0, 0, y],
        [0, z, 0, 0, 0, x, x, 0, 0],
        [0, x, 0, 0, 0, z, x, 0, 0],
        [0, 0, z, x, 0, 0, 0, x, 0],
        [y, 0, 0, 0, y, 0, 0, 0, x]])
    S = Matrix.from_rows([
        [x, 0, 0, y, 0, 0, y, 0, 0],
        [0, x, 0, 0, x, 0, 0, z, 0],
        [0, 0, x, 0, 0, z, 0, 0, x],
        [y, 0, 0, x, 0, 0, y, 0, 0],
        [0, z, 0, 0, x, 0, 0, x, 0],
        [0, 0, x, 0, 0, x, 0, 0, z],
        [y, 0, 0, y, 0, 0, x, 0, 0],
        [0, x, 0, 0, z, 0, 0, x, 0],
        [0, 0, z, 0, 0, x, 0, 0, x]])
    return R, S


# -- braid words multiplied out from Kronecker generator images ---------------------


def dense_generator(obj, n, i, inverse=False):
    w, b = obj.slot_dim, obj.R.backend
    R = obj.R.inverse() if inverse else obj.R
    return kron(kron(Matrix.identity(w ** (i - 1), b), R), Matrix.identity(w ** (n - i - 1), b))


def dense_word(obj, n, letters):
    M = Matrix.identity(obj.slot_dim ** n, obj.R.backend)
    for e in letters:
        M = M.mul(dense_generator(obj, n, abs(e), inverse=e < 0))
    return M


def dense_report(obj, left, right, n=3):
    """(residual, witness) of the entrywise difference on n strands, first
    worst in row-major order."""
    lhs, rhs = dense_word(obj, n, left), dense_word(obj, n, right)
    worst, worst_abs = None, 0.0
    for r in range(lhs.rows):
        for c in range(lhs.cols):
            m = scalar_abs(lhs.data[r][c] - rhs.data[r][c])
            if m > worst_abs:
                worst_abs, worst = m, ((r, c), m)
    return worst_abs, worst


def integer_path_objects():
    """Objects whose word products run on integer numerators: exact-q at a
    non-integral binding, exact-qi with non-integral Gaussian parts, and complex-f,
    all at slot width 2; then slot widths 3 and 4: the exact-q object's direct
    sum with a 1x1 object (rank 3) and the exact-qi object's 2-cable (level 2)."""
    from ybx.constructions import boxplus, cable

    G = GaussianRational
    q = catalog_get("hietarinta:slash-glue-2", ParamBinding.of(
        k=Fraction(2, 3), q=Fraction(-3, 2), p=Fraction(1, 2), s=Fraction(-5, 3)))
    qi = catalog_get("match2:F/", ParamBinding.of(
        alpha=Fraction(2, 3), beta=G(Fraction(1, 2), Fraction(3, 2)),
        gamma=G(Fraction(-3, 4), Fraction(1, 3)), chi=Fraction(-3, 2)))
    return [
        ("exact-q", q),
        ("exact-qi", qi),
        ("complex-f", make_ybo(2, fa_matrix(zeta8(), 1 / zeta8()), tol=1e-9)),
        ("exact-q-rank-3", boxplus(q, make_ybo(1, Matrix.from_rows([[Fraction(-2, 3)]])),
                                   Fraction(3, 4))),
        ("exact-qi-cable-2", cable(qi, 2)),
    ]


@pytest.fixture
def rng():
    return random.Random(1234)
