"""Solution-producing constructions: cabling, lashing, direct sum, and the
elementary symmetries (conjugations, transpose, inverse, scaling, convention
flip).  Every construction returns a YBE-verified object when given one.
"""

from __future__ import annotations

from .braid import cabled_crossing_word
from .config import DEFAULT_TOL
from .core import YBObject, check_dim, make_ybo, rho, verified
from .errors import (
    DimensionMismatch,
    LevelMismatch,
    NotAnAutomorphism,
    ZeroMu,
)
from .scalars import join_backend, promote
from .structure import _intertwiner_rows, _satisfied, hom_verify
from .tensor import Matrix, farr, kron, kron_all, swap_matrix


def cable(obj: YBObject, k: int, tol: float | None = None,
          verify: bool = True) -> YBObject:
    """k-cable: image of the 2k-strand crossing word taking strands 1..k over k+1..2k.

    k = 2 reproduces the word gamma_2 gamma_1 gamma_3 gamma_2.  The result
    lives at level a*k on the same rank.  Verification walks a matrix of
    size N^(3ak); pass verify=False above the desk-scale ceiling (cabling
    preserves the equation by construction).
    """
    if k == 1:
        return verified(obj, tol) if verify else obj
    check_dim(obj.slot_dim ** (3 * k if verify else 2 * k), f"{k}-cable")
    word = cabled_crossing_word(k)
    R = rho(obj, word)
    if not verify:
        return YBObject(obj.N, obj.level * k, R, verified=obj.verified)
    return make_ybo(obj.N, R, level=obj.level * k, verify=True, tol=tol)


def lash(A: YBObject, B: YBObject, tol: float | None = None,
         verify: bool = True) -> YBObject:
    """Lashing (Tracy-Singh) product through the middle swap.

    R (x) S conjugated by I (x) P (x) I, where P is the flip between the two
    ranks.  Defined here for level-1 objects; the unit is (1, [1]).  The
    product of verified objects satisfies the equation by functoriality of
    the braiding; verify=False skips the (cubic-size) re-check.
    """
    if A.level != 1 or B.level != 1:
        raise LevelMismatch("lashing is defined for level-1 objects")
    check_dim((A.N * B.N) ** (3 if verify else 2), "lashing product")
    backend = join_backend(A.backend, B.backend)
    Ra = A.R.promote_to(backend)
    Rb = B.R.promote_to(backend)
    Ia = Matrix.identity(A.N, backend)
    Ib = Matrix.identity(B.N, backend)
    left = kron_all([Ia, swap_matrix(A.N, B.N, backend), Ib])
    right = kron_all([Ia, swap_matrix(B.N, A.N, backend), Ib])
    R = left.mul(kron(Ra, Rb)).mul(right)
    if not verify:
        return YBObject(A.N * B.N, 1, R, verified=A.verified and B.verified)
    return make_ybo(A.N * B.N, R, verify=True, tol=tol)


def boxplus(A: YBObject, B: YBObject, mu, tol: float | None = None) -> YBObject:
    """Direct sum with a mu-scaled flip on the cross blocks.

    (R [+]_mu S)|ij> is R on the first block, S on the second, and mu|ji>
    across blocks.  Defined on level-1 objects; mu must be nonzero.
    """
    if A.level != 1 or B.level != 1:
        raise LevelMismatch("boxplus is defined for level-1 objects")
    from .scalars import backend_of

    backend = join_backend(join_backend(A.backend, B.backend), backend_of(mu))
    mu = promote(mu, backend)
    if not mu:
        raise ZeroMu("mu must be nonzero")
    N, M = A.N, B.N
    T = N + M
    Ra = A.R.promote_to(backend)
    Rb = B.R.promote_to(backend)
    out = Matrix.zeros(T * T, T * T, backend)
    for i in range(T):
        for j in range(T):
            col = i + T * j
            if i < N and j < N:
                src = i + N * j
                for row in range(N * N):
                    v = Ra.data[row][src]
                    if v:
                        out.data[(row % N) + T * (row // N)][col] = v
            elif i >= N and j >= N:
                src = (i - N) + M * (j - N)
                for row in range(M * M):
                    v = Rb.data[row][src]
                    if v:
                        out.data[(row % M + N) + T * (row // M + N)][col] = v
            else:
                out.data[j + T * i][col] = mu
    return make_ybo(T, out, verify=True, tol=tol)


def is_automorphism(obj: YBObject, Q: Matrix, tol: float | None = None) -> bool:
    """Q is in Aut(N, R): invertible with Q (x) Q commuting with R."""
    if Q.rows != obj.slot_dim or Q.cols != obj.slot_dim:
        return False
    if Q.rank(tol=DEFAULT_TOL if tol is None else tol) < Q.rows:
        return False
    return hom_verify(Q, obj, obj, tol)


def ds_transform(obj: YBObject, Q: Matrix, tol: float | None = None) -> YBObject:
    """One-sided conjugation (Q (x) I) R (Q^-1 (x) I) for Q in Aut(N, R).

    Also asserts the two-sided identity
    (Q (x) I) R (Q^-1 (x) I) = (I (x) Q^-1) R (I (x) Q).
    """
    if not is_automorphism(obj, Q, tol):
        raise NotAnAutomorphism("Q (x) Q must commute with R and Q must be invertible")
    w = obj.slot_dim
    I = Matrix.identity(w, obj.R.backend)
    Qi = Q.inverse()
    S = kron(Q, I).mul(obj.R).mul(kron(Qi, I))
    other = kron(I, Qi).mul(obj.R).mul(kron(I, Q))
    if not S.eq(other, tol):
        raise NotAnAutomorphism("two-sided DS identity failed")
    return make_ybo(obj.N, S, level=obj.level, verify=True, tol=tol)


def ds_intertwiner(Q: Matrix, n: int) -> Matrix:
    """Strand-wise certificate A_n = Q^0 (x) Q^-1 (x) ... (x) Q^-(n-1).

    Satisfies A_n rho_n^R = rho_n^S A_n for S = ds_transform(R, Q).
    """
    Qi = Q.inverse()
    factors = [Matrix.identity(Q.rows, Q.backend)]
    for i in range(1, n):
        factors.append(factors[-1].mul(Qi))
    return kron_all(factors)


def ds_certificates_check(obj: YBObject, Q: Matrix, n_max: int,
                          tol: float | None = None) -> bool:
    """Verify the explicit n-intertwiners between R and its DS transform: A_n
    satisfies the rows of A_n rho_n^R = rho_n^S A_n (``_intertwiner_rows``)."""
    S = ds_transform(obj, Q, tol)
    for n in range(2, n_max + 1):
        rows = _intertwiner_rows(S, obj, n)  # checks the size before A_n is built
        A_n = ds_intertwiner(Q, n)
        if not _satisfied(rows, [x for row in A_n.data for x in row], S.backend.is_exact, tol):
            return False
    return True


def phi_q(obj: YBObject, Q: Matrix, tol: float | None = None) -> YBObject:
    """Inner autoequivalence: R -> (Q (x) Q) R (Q (x) Q)^-1."""
    if Q.rows != obj.slot_dim or Q.cols != obj.slot_dim:
        raise DimensionMismatch("Q must act on one tensor slot")
    QQ = kron(Q, Q)
    R = QQ.mul(obj.R).mul(kron(Q.inverse(), Q.inverse()))
    return make_ybo(obj.N, R, level=obj.level, verify=obj.verified, tol=tol)


def flip_conj(obj: YBObject, tol: float | None = None) -> YBObject:
    """Conjugation by the slot swap: R -> P R P."""
    P = swap_matrix(obj.slot_dim, obj.slot_dim, obj.R.backend)
    R = P.mul(obj.R).mul(P)
    return make_ybo(obj.N, R, level=obj.level, verify=obj.verified, tol=tol)


def transpose_obj(obj: YBObject, tol: float | None = None) -> YBObject:
    return make_ybo(obj.N, obj.R.transpose(), level=obj.level, verify=obj.verified, tol=tol)


def inverse_obj(obj: YBObject, tol: float | None = None) -> YBObject:
    return make_ybo(obj.N, obj.R.inverse(), level=obj.level, verify=obj.verified, tol=tol)


def scale_obj(obj: YBObject, scalar, tol: float | None = None) -> YBObject:
    if not scalar:
        raise ZeroMu("scale factor must be nonzero")
    return make_ybo(obj.N, obj.R.scale(scalar), level=obj.level, verify=obj.verified, tol=tol)


def farr_obj(obj: YBObject, tol: float | None = None) -> YBObject:
    """Transport to the opposite Kronecker convention (word reversal both sides)."""
    R = farr(obj.R, obj.N, 2 * obj.level, 2 * obj.level)
    return make_ybo(obj.N, R, level=obj.level, verify=obj.verified, tol=tol)
