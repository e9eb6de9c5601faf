"""Hom/End spaces, subobject and quotient extraction, product eigenvectors,
decomposability, and duality verification.

The quadratic condition (A (x) A) R = R (A (x) A) is attacked in two linear
steps: first the commutant-style pencil {X : X R = R X} (or a variant), then
a search for elements whose *realignment* is a symmetric rank-one matrix
v v^T; such X are exactly the Kronecker squares A (x) A.  The rank-one step
is exact and complete for (symmetrized) pencil dimension <= 3 — dimension 2
by minor gcds, dimension 3 by bivariate resultant elimination; beyond that
it falls back to structured exact candidates and seeded Gauss-Newton over
the entries of v with exact reconstruction, and the result carries a
completeness flag.  The same Gauss-Newton solver serves the complex backend
and the numeric local witness search, there with det(Q) = 1 fixing the
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import isqrt

import numpy as np

from .config import DEFAULT_TOL
from .core import YBObject
from .errors import DimensionMismatch, SingularMatrix, UnsupportedRank
from .scalars import Backend, one, zero
from .spectral import poly_divmod, poly_eval
from .tensor import Matrix, kron, pseudo_inverse

# -- realignment ----------------------------------------------------------------


def realign(X: Matrix, N: int) -> Matrix:
    """Index shuffle Y[a + Nc][b + Nd] = X[a + Nb][c + Nd].

    Under it a Kronecker square A (x) A becomes vec(A) vec(A)^T, with
    vec(A)[a + Nc] = A[a][c].
    """
    if X.rows != N * N or X.cols != N * N:
        raise DimensionMismatch("realign expects an N^2 x N^2 matrix")
    out = Matrix.zeros(N * N, N * N, X.backend)
    for a in range(N):
        for b in range(N):
            for c in range(N):
                for d in range(N):
                    out.data[a + N * c][b + N * d] = X.data[a + N * b][c + N * d]
    return out


def vec_to_matrix(v: Matrix, N: int) -> Matrix:
    """Inverse of vec: A[a][c] = v[a + Nc]."""
    out = Matrix.zeros(N, N, v.backend)
    for a in range(N):
        for c in range(N):
            out.data[a][c] = v.data[a + N * c][0]
    return out


# -- morphism checks --------------------------------------------------------------


def hom_verify(Q: Matrix, src: YBObject, tgt: YBObject, tol: float | None = None) -> bool:
    """Q is a morphism (M, S) -> (N, R) when (Q (x) Q) S = R (Q (x) Q)."""
    if Q.cols != src.slot_dim or Q.rows != tgt.slot_dim:
        raise DimensionMismatch("hom_verify: Q has the wrong shape")
    QQ = kron(Q, Q)
    return QQ.mul(src.R).eq(tgt.R.mul(QQ), tol)


def end_verify(obj: YBObject, A: Matrix, tol: float | None = None) -> bool:
    return hom_verify(A, obj, obj, tol)


# -- linear pencils ----------------------------------------------------------------


def intertwiner_space(As: list, Bs: list) -> list:
    """Exact basis of {T : T B_i = A_i T for all i}; {X : X A = B X} is
    intertwiner_space([B], [A])."""
    m = As[0].rows
    backend = As[0].backend
    z = zero(backend)
    rows = []
    for A, B in zip(As, Bs):
        for r in range(m):
            for c in range(m):
                row = [z] * (m * m)
                for k in range(m):
                    if B.data[k][c]:
                        row[r * m + k] = row[r * m + k] + B.data[k][c]
                    if A.data[r][k]:
                        row[k * m + c] = row[k * m + c] - A.data[r][k]
                if any(row):
                    rows.append(row)
    if not rows:
        rows = [[z] * (m * m)]
    system = Matrix(len(rows), m * m, backend, rows)
    return [Matrix(m, m, backend,
                   [[v.data[r * m + c][0] for c in range(m)] for r in range(m)])
            for v in system.nullspace()]


def intertwiner_space_numeric(As: list, Bs: list, tol: float = DEFAULT_TOL) -> list:
    """Orthonormal basis of {T : T B_i = A_i T for all i}, by one SVD."""
    m = As[0].rows
    ident = np.eye(m)
    blocks = []
    for A, B in zip(As, Bs):
        a, b = A.to_numpy(), B.to_numpy()
        blocks.append(np.kron(ident, b.T) - np.kron(a, ident))
    lhs = np.vstack(blocks)
    u, s, vh = np.linalg.svd(lhs)
    cutoff = 1e3 * tol * max(1.0, float(s[0]) if len(s) else 1.0)
    null = vh[int(np.sum(s > cutoff)):].conj()
    return [Matrix.from_numpy(row.reshape(m, m)) for row in null]


def commutant_basis(obj: YBObject) -> list:
    return intertwiner_space([obj.R], [obj.R])


# -- symmetric rank-one elements of a matrix space ---------------------------------


@dataclass
class Rank1Result:
    """Vectors v with v v^T in a span, and whether they are all of them.  The
    numeric solver also reports its seeded starts, how many converged, and
    the smallest residual |W^H vec(v v^T)| / |v|^2 a start reached."""
    vectors: list
    complete: bool
    starts: int = 0
    converged: int = 0
    best_residual: float | None = None


def _symmetrize_basis(basis: list) -> list:
    """Restrict a span to its symmetric members (exact backends)."""
    if not basis:
        return []
    n = basis[0].rows
    backend = basis[0].backend
    z = zero(backend)
    rows = []
    for r in range(n):
        for c in range(r + 1, n):
            row = [B.data[r][c] - B.data[c][r] for B in basis]
            if any(row):
                rows.append(row)
    if not rows:
        return list(basis)
    system = Matrix(len(rows), len(basis), backend, rows)
    out = []
    for coeff in system.nullspace():
        M = Matrix.zeros(n, n, backend)
        for i, B in enumerate(basis):
            t = coeff.data[i][0]
            if t:
                M = M.add(B.scale(t))
        out.append(M)
    return out


def _extract_rank1_symmetric(S: Matrix):
    """Write symmetric S as c * v v^T; returns v (exact) or None."""
    n = S.rows
    diag_idx = next((i for i in range(n) if S.data[i][i]), None)
    if diag_idx is None:
        return None
    v = Matrix(n, 1, S.backend, [[S.data[r][diag_idx]] for r in range(n)])
    c = S.data[diag_idx][diag_idx]
    # check S * c == v v^T entrywise
    for r in range(n):
        for col in range(n):
            if S.data[r][col] * c != v.data[r][0] * v.data[col][0]:
                return None
    return v


def _pencil_minor_polys(B0: Matrix, B1: Matrix) -> list:
    """2x2 minors of B0 + u B1 as polynomials in u (degree <= 2)."""
    n = B0.rows
    polys = []
    for r1, r2 in combinations(range(n), 2):
        for c1, c2 in combinations(range(n), 2):
            # (a0 + u a1)(d0 + u d1) - (b0 + u b1)(c0 + u c1)
            a0, a1 = B0.data[r1][c1], B1.data[r1][c1]
            d0, d1 = B0.data[r2][c2], B1.data[r2][c2]
            b0, b1 = B0.data[r1][c2], B1.data[r1][c2]
            c0, c1_ = B0.data[r2][c1], B1.data[r2][c1]
            coeffs = [
                a0 * d0 - b0 * c0,
                a0 * d1 + a1 * d0 - b0 * c1_ - b1 * c0,
                a1 * d1 - b1 * c1_,
            ]
            while len(coeffs) > 1 and not coeffs[-1]:
                coeffs.pop()
            if len(coeffs) > 1 or coeffs[0]:
                polys.append(coeffs)
    return polys


def _poly_gcd(a: list, b: list) -> list:
    a, b = list(a), list(b)
    while len(b) > 1 or (b and b[0]):
        _, r = poly_divmod(a, b)
        a, b = b, r
        if len(b) == 1 and not b[0]:
            break
    if len(a) > 1 and a[-1] != 1 and a[-1]:
        lead = a[-1]
        a = [v / lead for v in a]
    return a


def _rational_poly_roots(coeffs, backend: Backend):
    from .spectral import _extract_verified_roots

    found, rest = _extract_verified_roots(list(coeffs), backend)
    roots = []
    for root, mult in found.items():
        roots.extend([root] * mult)
    return roots, rest


def _rank1_pencil_exact(B0: Matrix, B1: Matrix):
    """Rank-one symmetric points of the line B0 + u B1 (plus infinity)."""
    out = []
    complete = True
    polys = _pencil_minor_polys(B0, B1)
    if not polys:
        # rank <= 1 along the whole pencil: a continuum, return samples
        for u in (0, 1, 2):
            v = _extract_rank1_symmetric(B0.add(B1.scale(Fraction(u))))
            if v is not None:
                out.append(v)
        v = _extract_rank1_symmetric(B1)
        if v is not None:
            out.append(v)
        return out, False
    g = polys[0]
    for p in polys[1:]:
        g = _poly_gcd(g, p)
        if len(g) == 1 and g[0]:
            break
    if len(g) > 1 or not g[0]:
        roots, rest = _rational_poly_roots(g, B0.backend)
        if len(rest) > 1:
            complete = False  # irrational pencil roots not represented
        for u in roots:
            v = _extract_rank1_symmetric(B0.add(B1.scale(u)))
            if v is not None:
                out.append(v)
    v = _extract_rank1_symmetric(B1)  # the point at infinity
    if v is not None:
        out.append(v)
    return out, complete


def _pattern_vectors(n: int, backend: Backend):
    """0/1 support patterns and +-1 sign patterns as exact candidates."""
    from itertools import product as iproduct

    o, z = one(backend), zero(backend)
    out = []
    if n <= 9:
        for bits in range(1, 2 ** n):
            out.append(Matrix(n, 1, backend, [[o if bits >> i & 1 else z] for i in range(n)]))
        for signs in iproduct((1, -1), repeat=n - 1):
            out.append(Matrix(n, 1, backend, [[o]] + [[o if s > 0 else -o] for s in signs]))
    return out


def _rank1_span3_exact(B1: Matrix, B2: Matrix, B3: Matrix):
    """Rank-one symmetric points of span(B1, B2, B3) by resultant elimination.

    Works in the chart M(u, w) = B1 + u B2 + w B3 plus the pencil at
    infinity; returns (vectors, complete) with complete False whenever a
    degenerate stratum forced sampling or an irrational root was dropped.
    """
    n = B1.rows
    one_f = Fraction(1)
    out = []
    complete = True
    minors = []
    for r1, r2 in combinations(range(n), 2):
        for c1, c2 in combinations(range(n), 2):
            def lin(B0v, B2v, B3v):
                poly = {}
                if B0v:
                    poly[(0, 0)] = B0v
                if B2v:
                    poly[(1, 0)] = B2v
                if B3v:
                    poly[(0, 1)] = B3v
                return poly
            a = lin(B1.data[r1][c1], B2.data[r1][c1], B3.data[r1][c1])
            d = lin(B1.data[r2][c2], B2.data[r2][c2], B3.data[r2][c2])
            b = lin(B1.data[r1][c2], B2.data[r1][c2], B3.data[r1][c2])
            c = lin(B1.data[r2][c1], B2.data[r2][c1], B3.data[r2][c1])
            m = _bipoly_add(_bipoly_mul(a, d), _bipoly_scale(_bipoly_mul(b, c), -one_f))
            if m:
                minors.append(m)
    backend = B1.backend
    if not minors:
        complete = False
        u_candidates = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
    else:
        u_candidates = _chart_a_candidates(minors, backend)
        if u_candidates is None:
            complete = False
            u_candidates = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
    for u0 in u_candidates:
        unis = []
        for m in minors:
            uni = _bipoly_eval_s(m, u0)
            if not _upoly_is_zero(uni):
                unis.append(uni)
        slice_matrix = B1.add(B2.scale(u0))
        if not unis:
            vecs, comp = _rank1_pencil_exact(slice_matrix, B3)
            out.extend(vecs)
            complete = complete and comp
            continue
        g = unis[0]
        for p in unis[1:]:
            g = _poly_gcd(g, p)
            if len(g) == 1 and g[0]:
                break
        if len(g) == 1:
            continue
        roots, rest = _rational_poly_roots(g, backend)
        if len(rest) > 1:
            complete = False
        for w0 in roots:
            v = _extract_rank1_symmetric(slice_matrix.add(B3.scale(w0)))
            if v is not None:
                out.append(v)
    vecs, comp = _rank1_pencil_exact(B2, B3)  # the chart at infinity in u
    out.extend(vecs)
    complete = complete and comp
    v = _extract_rank1_symmetric(B3)
    if v is not None:
        out.append(v)
    return out, complete


def rank1_symmetric_elements(basis: list, seed: int = 0) -> Rank1Result:
    """Vectors v with v v^T in span(basis); exact and complete for dim <= 3.

    Higher-dimensional spans fall back to structured exact candidates
    (pencils through basis pairs and triples, 0/1 and sign patterns) plus
    64 seeded Gauss-Newton solves with exact reconstruction; every
    returned vector is verified, and the completeness flag is dropped.  On
    the complex backend the Gauss-Newton solves are the whole search.
    """
    basis = [B for B in basis if not B.is_zero_matrix()]
    if not basis:
        return Rank1Result([], True)
    backend = basis[0].backend
    if not backend.is_exact:
        return _rank1_numeric(basis, seed, _LINEAR_STARTS)
    sym = _symmetrize_basis(basis)
    sym = [B for B in sym if not B.is_zero_matrix()]
    if not sym:
        return Rank1Result([], True)
    if len(sym) == 1:
        v = _extract_rank1_symmetric(sym[0])
        return Rank1Result([v] if v is not None else [], True)
    if len(sym) == 2:
        out, complete = _rank1_pencil_exact(sym[0], sym[1])
        return Rank1Result(_dedupe_rays(out), complete)
    if len(sym) == 3:
        out, complete = _rank1_span3_exact(sym[0], sym[1], sym[2])
        out = [v for v in out if _vvT_in_span(v, sym)]
        return Rank1Result(_dedupe_rays(out), complete)
    out = []
    cap = min(len(sym), 5)
    for i in range(cap):
        v = _extract_rank1_symmetric(sym[i])
        if v is not None:
            out.append(v)
        for j in range(i + 1, cap):
            vecs, _ = _rank1_pencil_exact(sym[i], sym[j])
            out.extend(vecs)
            for k in range(j + 1, cap):
                vecs, _ = _rank1_span3_exact(sym[i], sym[j], sym[k])
                out.extend(vecs)
    n = sym[0].rows
    for v in _pattern_vectors(n, backend):
        if _vvT_in_span(v, sym):
            out.append(v)
    numeric = _rank1_numeric([B.promote_to(Backend.COMPLEX_F) for B in sym], seed,
                             _LINEAR_STARTS)
    for v in numeric.vectors:
        exact = _rationalize_vector(v, backend)
        if exact is not None and _vvT_in_span(exact, sym):
            out.append(exact)
    out = [v for v in out if _vvT_in_span(v, sym)]
    return Rank1Result(_dedupe_rays(out), False)


def _dedupe_rays(vectors: list) -> list:
    out = []
    for v in vectors:
        lead = next((v.data[r][0] for r in range(v.rows) if v.data[r][0]), None)
        if lead is None:
            continue
        norm = tuple(str(v.data[r][0] / lead) for r in range(v.rows))
        if norm not in {t for t, _ in out}:
            out.append((norm, v))
    return [v for _, v in out]


def _rationalize_vector(v: Matrix, backend: Backend):
    from .scalars import GaussianRational

    lead = None
    arr = [v.data[r][0] for r in range(v.rows)]
    lead = max(arr, key=abs)
    if not lead:
        return None
    arr = [x / lead for x in arr]
    out = []
    for x in arr:
        re = Fraction(x.real).limit_denominator(10 ** 6)
        im = Fraction(x.imag).limit_denominator(10 ** 6)
        if abs(float(re) - x.real) > 1e-6 or abs(float(im) - x.imag) > 1e-6:
            return None
        if im == 0:
            out.append(re)
        elif backend is Backend.EXACT_QI:
            out.append(GaussianRational(re, im))
        else:
            return None
    try:
        return Matrix.from_rows([[x] for x in out], backend)
    except Exception:
        return None


def _vvT_in_span(v: Matrix, basis: list) -> bool:
    n = v.rows
    backend = v.backend
    target = Matrix(n, n, backend,
                    [[v.data[r][0] * v.data[c][0] for c in range(n)] for r in range(n)])
    cols = []
    for B in basis:
        cols.append([B.data[r][c] for r in range(n) for c in range(n)])
    rhs = [target.data[r][c] for r in range(n) for c in range(n)]
    system = Matrix(n * n, len(basis), backend,
                    [[col[i] for col in cols] for i in range(n * n)])
    try:
        system.solve_right(Matrix(n * n, 1, backend, [[x] for x in rhs]))
        return True
    except SingularMatrix:
        return False
    except Exception:
        return False


_GN_STEPS = 50   # Gauss-Newton steps per start
_GN_TOL = 1e-12  # residual at which a start counts as converged
_LINEAR_STARTS = 64  # starts of rank1_symmetric_elements, in a linear chart


def _gauss_newton_starts(basis: list, seed: int, starts: int, det_chart: bool = False):
    """Seeded Gauss-Newton for v with v v^T in span(basis), one start at a time.

    With W an orthonormal basis of the span's orthogonal complement in
    C^(n^2) (one SVD), membership is the quadratic system
    W^H vec(v v^T) = 0 in the n entries of v.  It is holomorphic in v, so a
    Gauss-Newton step is one complex least-squares solve, with Jacobian
    (Wh + Wh^T) v.  The system is homogeneous; one more row fixes the scale:
    a seeded linear chart c^T v = 1, or with ``det_chart`` (n = N^2)
    det(vec^-1 v) = 1, whose gradient is the cofactor matrix and which also
    excludes the singular matrices.  Yields (v, residual, converged) for
    each start, lazily: the residual is |W^H vec(v v^T)| / |v|^2, and a
    start converges when it and the chart residual fall below 1e-12 within
    50 steps.
    """
    n = basis[0].rows
    stack = np.array([B.to_numpy().ravel() for B in basis]).T
    u, s, _ = np.linalg.svd(stack)
    rank = int(np.sum(s > 1e-10 * s[0]))
    Wh = u[:, rank:].conj().T.reshape(-1, n, n)
    S = Wh + Wh.transpose(0, 2, 1)  # v^T Wh v = v^T S v / 2; Jacobian S v
    rng = np.random.default_rng(seed)
    if det_chart:
        N = degree = isqrt(n)
        others = np.array([[k for k in range(N) if k != i] for i in range(N)], dtype=int)
        signs = (-1.0) ** np.add.outer(np.arange(N), np.arange(N))

        def chart(v):  # det Q by the first row, and the cofactors as gradient
            Q = v.reshape(N, N, order="F")
            cof = signs * np.linalg.det(Q[others[:, None, :, None], others[None, :, None, :]])
            return Q[0] @ cof[0], cof.ravel(order="F")
    else:
        degree = 1
        c = rng.normal(size=n) + 1j * rng.normal(size=n)

        def chart(v):
            return c @ v, c

    for _ in range(starts):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = v / chart(v)[0] ** (1 / degree)  # start on the chart
        for step in range(_GN_STEPS + 1):
            Sv = S @ v
            value, grad = chart(v)
            r = np.append(0.5 * (Sv @ v), value - 1)
            resid = np.linalg.norm(r[:-1]) / np.linalg.norm(v) ** 2
            ok = resid <= _GN_TOL and abs(r[-1]) <= _GN_TOL
            if ok or step == _GN_STEPS:
                break
            delta, *_ = np.linalg.lstsq(np.vstack([Sv, grad]), -r, rcond=None)
            v = v + delta
        yield v, resid, ok


def _rank1_numeric(basis: list, seed: int, starts: int, det_chart: bool = False) -> Rank1Result:
    """Every start of `_gauss_newton_starts`: each converged ray once, with
    the number of starts that converged and the smallest residual."""
    rays: list[np.ndarray] = []
    found = []
    converged = 0
    best = np.inf
    for v, resid, ok in _gauss_newton_starts(basis, seed, starts, det_chart):
        best = min(best, resid)
        if not ok:
            continue
        converged += 1
        ray = v / v[np.argmax(np.abs(v))]
        if not any(np.allclose(ray, other, atol=1e-6) for other in rays):
            rays.append(ray)
            found.append(Matrix.from_numpy(v.reshape(-1, 1)))
    return Rank1Result(found, False, starts, converged, float(best))


# -- endomorphism search ------------------------------------------------------------


@dataclass(frozen=True)
class EndoElement:
    A: Matrix
    rank: int


@dataclass
class EndSearchResult:
    elements: list
    complete: bool


def _pair_space_basis(R: Matrix, R_tilde: Matrix, N: int) -> list:
    """Basis of {p in F^(N^2) : p_u R[u][v] = R~[u][v] p_v}, as N x N matrices.

    The pair index is u = a + N b and the returned matrices have
    P[a][b] = p_{a + N b}, so Kronecker squares of diagonals correspond to
    symmetric rank-one P.
    """
    n2 = N * N
    backend = R.backend
    z = zero(backend)
    rows = []
    for u in range(n2):
        for v in range(n2):
            x, y = R.data[u][v], R_tilde.data[u][v]
            if x or y:
                row = [z] * n2
                row[u] = row[u] + x
                row[v] = row[v] - y
                if any(row):
                    rows.append(row)
    if not rows:
        rows = [[z] * n2]
    system = Matrix(len(rows), n2, backend, rows)
    out = []
    for vec in system.nullspace():
        out.append(Matrix(N, N, backend,
                          [[vec.data[a + N * b][0] for b in range(N)] for a in range(N)]))
    return out


def end_search(obj: YBObject, strategy: str = "diagonal", seed: int = 0) -> EndSearchResult:
    """Exactly verified endomorphisms A with (A (x) A) R = R (A (x) A).

    Strategies: ``diagonal`` (complete over the rationals for pencil dim <= 2),
    ``monomial`` (permutation times diagonal), ``commutant`` (full pencil plus
    rank-one realignment).  The identity and zero are always included.
    """
    N = obj.slot_dim
    backend = obj.R.backend
    elements: list[Matrix] = [Matrix.identity(N, backend), Matrix.zeros(N, N, backend)]
    complete = True
    if strategy == "diagonal":
        basis = _pair_space_basis(obj.R, obj.R, N)
        result = rank1_symmetric_elements(basis, seed)
        complete = result.complete
        for v in result.vectors:
            elements.append(Matrix.diagonal([v.data[r][0] for r in range(N)], backend))
        for bits in range(1, 2 ** N - 1):
            vals = [one(backend) if bits >> i & 1 else zero(backend) for i in range(N)]
            elements.append(Matrix.diagonal(vals, backend))
    elif strategy == "monomial":
        for perm in permutations(range(N)):
            P = Matrix.permutation(perm, backend)
            PP = kron(P, P)
            R_t = PP.transpose().mul(obj.R).mul(PP)
            basis = _pair_space_basis(obj.R, R_t, N)
            result = rank1_symmetric_elements(basis, seed)
            complete = complete and result.complete
            for v in result.vectors:
                D = Matrix.diagonal([v.data[r][0] for r in range(N)], backend)
                elements.append(P.mul(D))
    elif strategy == "commutant":
        basis = commutant_basis(obj)
        realigned = [realign(X, N) for X in basis]
        result = rank1_symmetric_elements(realigned, seed)
        complete = result.complete
        for v in result.vectors:
            elements.append(vec_to_matrix(v, N))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    out = []
    seen = set()
    for A in elements:
        if not end_verify(obj, A):
            continue
        key = tuple(str(x) for row in A.data for x in row)
        if key in seen:
            continue
        seen.add(key)
        out.append(EndoElement(A, A.rank() if backend.is_exact else A.rank(tol=DEFAULT_TOL)))
    return EndSearchResult(out, complete)


# -- subobjects and quotients ---------------------------------------------------------


@dataclass(frozen=True)
class SubobjectTriple:
    Q: Matrix
    M: int
    S: Matrix


@dataclass(frozen=True)
class QuotientTriple:
    M: int
    S: Matrix
    P: Matrix


def extract_from_endo(obj: YBObject, A: Matrix, tol: float | None = None):
    """Subobject [Q, M, S] and quotient [M, S, P] from a rank-M endomorphism.

    Q holds the first independent columns of A, S = (Q+ (x) Q+) R (Q (x) Q),
    and P solves QP = A.  All intertwining identities are asserted.
    """
    if not end_verify(obj, A, tol):
        raise ValueError("A is not an endomorphism of the object")
    Q, _ = A.column_space_basis()
    M = Q.cols
    if M == 0:
        raise DimensionMismatch("zero endomorphism has no subobject")
    Qp = pseudo_inverse(Q)
    R = obj.R
    S = kron(Qp, Qp).mul(R).mul(kron(Q, Q))
    P = Qp.mul(A)
    if not Q.mul(P).eq(A, tol):
        raise ValueError("factorisation QP = A failed")
    QQ = kron(Q, Q)
    PP = kron(P, P)
    if not QQ.mul(S).eq(R.mul(QQ), tol):
        raise ValueError("subobject intertwining failed")
    if not S.mul(PP).eq(PP.mul(R), tol):
        raise ValueError("quotient intertwining failed")
    if S.backend.is_exact and not S.det():
        raise SingularMatrix("restricted matrix S is singular")
    return SubobjectTriple(Q, M, S), QuotientTriple(M, S, P)


def canonical_subobject_form(Q: Matrix) -> Matrix:
    """Reduced column echelon form: the artifact's representative of [Q, M, S]."""
    rref, _ = Q.transpose().rref()
    return rref.transpose()


# -- product (Segre) eigenvectors ------------------------------------------------------


@dataclass
class SegreResult:
    pairs: list  # (v: Matrix column, eigenvalue)
    complete: bool


def _poly_add(a, b):
    n = max(len(a), len(b))
    z = (a[0] if a else b[0]) * 0
    out = [z] * n
    for i, v in enumerate(a):
        out[i] = out[i] + v
    for i, v in enumerate(b):
        out[i] = out[i] + v
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def _poly_mul(a, b):
    z = a[0] * 0
    out = [z] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def _poly_scale(a, s):
    return [v * s for v in a]


def _segre_complete_rank2(R: Matrix):
    """All product eigenvectors for N = 2 via the affine chart v = (1, t)."""
    backend = R.backend
    z, o = zero(backend), one(backend)
    # w(t) = (1, t, t, t^2) in the revlex pair basis
    w = [[o], [z, o], [z, o], [z, z, o]]
    Rw = []
    for i in range(4):
        acc = [z]
        for c in range(4):
            if R.data[i][c]:
                acc = _poly_add(acc, _poly_scale(w[c], R.data[i][c]))
        Rw.append(acc)
    lam = Rw[0]
    conds = []
    for i in (1, 2, 3):
        conds.append(_poly_add(Rw[i], _poly_scale(_poly_mul(lam, w[i]), -o)))
    nonzero = [p for p in conds if len(p) > 1 or p[0]]
    pairs = []
    complete = True
    if not nonzero:
        complete = False  # every (1, t) works; return representatives
        for tval in (Fraction(0), Fraction(1)):
            v = Matrix.from_rows([[o], [tval]], backend)
            lam_v = poly_eval(lam, tval)
            pairs.append((v, lam_v))
    else:
        g = nonzero[0]
        for p in nonzero[1:]:
            g = _poly_gcd(g, p)
        if len(g) > 1:
            roots, rest = _rational_poly_roots(g, backend)
            if len(rest) > 1:
                complete = False
            for t0 in roots:
                v = Matrix.from_rows([[o], [t0]], backend)
                lam_v = poly_eval(lam, t0)
                pairs.append((v, lam_v))
    # the chart at infinity: v = (0, 1), w = e4
    col = [R.data[r][3] for r in range(4)]
    if not col[0] and not col[1] and not col[2]:
        pairs.append((Matrix.from_rows([[z], [o]], backend), col[3]))
    return SegreResult(_verify_segre(R, 2, pairs), complete)


def _verify_segre(R: Matrix, N: int, pairs, tol: float | None = None):
    out = []
    seen = set()
    for v, lam in pairs:
        w = kron(v, v)
        if w.is_zero_matrix():
            continue
        if R.mul(w).eq(w.scale(lam), tol):
            lead = next((v.data[r][0] for r in range(N) if v.data[r][0]), None)
            key = tuple(str(v.data[r][0] / lead) for r in range(N))
            if key not in seen:
                seen.add(key)
                out.append((v, lam))
    return out


def _bipoly_zero():
    return {}


def _bipoly_const(c):
    return {(0, 0): c} if c else {}


def _bipoly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, v * 0) + v
        if nv:
            out[k] = nv
        elif k in out:
            del out[k]
    return out


def _bipoly_mul(a, b):
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            k = (i1 + i2, j1 + j2)
            nv = out.get(k, v1 * 0) + v1 * v2
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
    return out


def _bipoly_scale(a, s):
    if not s:
        return {}
    return {k: v * s for k, v in a.items()}


def _bipoly_to_t_poly(a):
    """View as polynomial in t with coefficients polynomials in s (lists)."""
    if not a:
        return [[Fraction(0)]]
    deg_t = max(j for (_, j) in a)
    deg_s = max(i for (i, _) in a)
    z = next(iter(a.values())) * 0
    out = [[z] * (deg_s + 1) for _ in range(deg_t + 1)]
    for (i, j), v in a.items():
        out[j][i] = v
    return [_trim(p) for p in out]


def _trim(p):
    p = list(p)
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _upoly_is_zero(p):
    return all(not v for v in p)


def _resultant_t(pa, pb):
    """Resultant in t of two t-polynomials with s-polynomial coefficients."""
    da, db = len(pa) - 1, len(pb) - 1
    if da < 0 or db < 0 or (da == 0 and db == 0):
        return pa[0] if da == 0 else [Fraction(1)]
    size = da + db
    z = [Fraction(0)]
    rows = []
    for k in range(db):
        row = [z] * size
        for i, cf in enumerate(reversed(pa)):
            row[k + i] = cf
        rows.append(row)
    for k in range(da):
        row = [z] * size
        for i, cf in enumerate(reversed(pb)):
            row[k + i] = cf
        rows.append(row)
    return _poly_matrix_det(rows)


def _poly_matrix_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    det = None
    for j in range(n):
        entry = rows[0][j]
        if _upoly_is_zero(entry):
            continue
        minor = [[rows[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = _poly_mul(entry, _poly_matrix_det(minor))
        if j % 2 == 1:
            term = _poly_scale(term, Fraction(-1))
        det = term if det is None else _poly_add(det, term)
    return det if det is not None else [Fraction(0)]


def _segre_complete_rank3(R: Matrix):
    """Product eigenvectors for N = 3 by two-chart resultant elimination."""
    backend = R.backend
    z, o = zero(backend), one(backend)
    pairs = []
    complete = True

    # chart v = (1, s, t)
    s_poly = {(1, 0): o}
    t_poly = {(0, 1): o}
    v_sym = [_bipoly_const(o), s_poly, t_poly]
    w = [_bipoly_mul(v_sym[u % 3], v_sym[u // 3]) for u in range(9)]
    Rw = []
    for i in range(9):
        acc = _bipoly_zero()
        for c in range(9):
            if R.data[i][c]:
                acc = _bipoly_add(acc, _bipoly_scale(w[c], R.data[i][c]))
        Rw.append(acc)
    lam = Rw[0]
    conds = []
    for i in range(1, 9):
        conds.append(_bipoly_add(Rw[i], _bipoly_scale(_bipoly_mul(lam, w[i]), -o)))
    conds = [c for c in conds if c]
    if not conds:
        complete = False
        for sv, tv in ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))):
            v = Matrix.from_rows([[o], [sv], [tv]], backend)
            pairs.append((v, _bipoly_eval(lam, sv, tv)))
    else:
        s_candidates = _chart_a_candidates(conds, backend)
        if s_candidates is None:
            complete = False
            s_candidates = []
        for s0 in s_candidates:
            unis = []
            for c in conds:
                uni = _bipoly_eval_s(c, s0)
                if not _upoly_is_zero(uni):
                    unis.append(uni)
            if not unis:
                complete = False
                t_roots = [Fraction(0), Fraction(1)]
            else:
                g = unis[0]
                for p in unis[1:]:
                    g = _poly_gcd(g, p)
                if len(g) == 1:
                    continue
                t_roots, rest = _rational_poly_roots(g, backend)
                if len(rest) > 1:
                    complete = False
            for t0 in t_roots:
                v = Matrix.from_rows([[o], [s0], [t0]], backend)
                pairs.append((v, _bipoly_eval(lam, s0, t0)))

    # chart v = (0, 1, t): indices restricted to letters {2, 3}
    wt = [[o], [z, o], [z, o], [z, z, o]]  # (1, t, t, t^2) over pairs of letters 2,3
    idx = [4, 5, 7, 8]  # pair indices of (2,2),(3,2),(2,3),(3,3) in revlex
    Rwt = []
    for i in range(9):
        acc = [z]
        for pos, c in enumerate(idx):
            if R.data[i][c]:
                acc = _poly_add(acc, _poly_scale(wt[pos], R.data[i][c]))
        Rwt.append(acc)
    lam_t = Rwt[4]
    conds_t = []
    ok_chart = True
    for i in range(9):
        if i == 4:
            continue
        if i in idx:
            pos = idx.index(i)
            conds_t.append(_poly_add(Rwt[i], _poly_scale(_poly_mul(lam_t, wt[pos]), -o)))
        else:
            conds_t.append(Rwt[i])  # must vanish outside the chart's support
    nonzero = [p for p in conds_t if not _upoly_is_zero(p)]
    if not nonzero:
        complete = False
        for tv in (Fraction(0), Fraction(1)):
            v = Matrix.from_rows([[z], [o], [tv]], backend)
            pairs.append((v, poly_eval(lam_t, tv)))
    else:
        g = nonzero[0]
        for p in nonzero[1:]:
            g = _poly_gcd(g, p)
        if len(g) > 1:
            roots, rest = _rational_poly_roots(g, backend)
            if len(rest) > 1:
                complete = False
            for t0 in roots:
                v = Matrix.from_rows([[z], [o], [t0]], backend)
                pairs.append((v, poly_eval(lam_t, t0)))

    # chart v = (0, 0, 1)
    col = [R.data[r][8] for r in range(9)]
    if all(not col[r] for r in range(9) if r != 8):
        pairs.append((Matrix.from_rows([[z], [z], [o]], backend), col[8]))

    return SegreResult(_verify_segre(R, 3, pairs), complete)


def _bipoly_eval(a, s0, t0):
    acc = None
    for (i, j), v in a.items():
        term = v * (s0 ** i) * (t0 ** j)
        acc = term if acc is None else acc + term
    return acc if acc is not None else Fraction(0)


def _bipoly_eval_s(a, s0):
    out = {}
    for (i, j), v in a.items():
        nv = out.get(j, v * 0) + v * (s0 ** i)
        out[j] = nv
    deg = max(out) if out else 0
    z = Fraction(0)
    poly = [out.get(j, z) for j in range(deg + 1)]
    return _trim(poly)


def _chart_a_candidates(conds, backend: Backend):
    """Rational s-candidates from pairwise resultants; None when degenerate."""
    t_polys = [_bipoly_to_t_poly(c) for c in conds]
    t_polys = [p for p in t_polys if not all(_upoly_is_zero(cf) for cf in p)]
    for p in t_polys:
        # a condition free of t constrains s directly
        if len(p) == 1 and len(p[0]) > 1:
            roots, _ = _rational_poly_roots(p[0], backend)
            return sorted(set(roots))
    for i in range(len(t_polys)):
        for j in range(i + 1, len(t_polys)):
            res = _trim(_resultant_t(t_polys[i], t_polys[j]))
            if _upoly_is_zero(res):
                continue  # the pair shares a factor; try another
            if len(res) == 1:
                return []  # nonzero constant resultant: no common root
            roots, _ = _rational_poly_roots(res, backend)
            return sorted(set(roots))
    return None


def segre_eigenvectors(obj: YBObject, side: str = "right", complete: bool = True,
                       extra_candidates=None, tol: float | None = None) -> SegreResult:
    """Eigenvectors of product form v (x) v, with eigenvalues.

    Complete mode supports N <= 3 on exact backends (raises UnsupportedRank
    otherwise); candidate mode tests standard basis vectors, the all-ones
    vector, and any supplied extras.
    """
    R = obj.R if side == "right" else obj.R.transpose()
    N = obj.slot_dim
    if complete:
        if not obj.R.backend.is_exact:
            raise UnsupportedRank("complete Segre solving requires an exact backend")
        if N == 1:
            return SegreResult([(Matrix.identity(1, R.backend), R.data[0][0])], True)
        if N == 2:
            return _segre_complete_rank2(R)
        if N == 3:
            return _segre_complete_rank3(R)
        raise UnsupportedRank("complete Segre solving is implemented for N <= 3")
    backend = R.backend
    o = one(backend)
    cands = [Matrix.from_rows([[o if r == i else zero(backend)] for r in range(N)], backend)
             for i in range(N)]
    cands.append(Matrix.from_rows([[o]] * N, backend))
    for v in extra_candidates or []:
        cands.append(v)
    pairs = []
    for v in cands:
        w = kron(v, v)
        Rw = R.mul(w)
        lead = next((r for r in range(N * N) if w.data[r][0]), None)
        if lead is None:
            continue
        if not w.data[lead][0]:
            continue
        lam = Rw.data[lead][0] / w.data[lead][0]
        pairs.append((v, lam))
    return SegreResult(_verify_segre(R, N, pairs, tol), False)


# -- decomposability ----------------------------------------------------------------


@dataclass
class DecompReport:
    verdict: str  # "decomposable" or "indecomposable-within-search"
    witness: tuple | None  # (basis1, basis2) Matrices whose columns span the parts


def _subspace_invariant(R: Matrix, Q: Matrix) -> bool:
    """V (x) V is R-invariant for V = colspace(Q)."""
    QQ = kron(Q, Q)
    image = R.mul(QQ)
    m2 = QQ.cols
    combined = Matrix(QQ.rows, QQ.cols + image.cols, QQ.backend,
                      [list(a) + list(b) for a, b in zip(QQ.data, image.data)])
    return combined.rank() == QQ.rank() == m2


def _candidate_subspaces(obj: YBObject, R: Matrix, N: int, seed: int = 0):
    """Invariant subspaces found by Segre vectors, coordinate sets, endo columns."""
    found = []
    if N <= 3 and obj.R.backend.is_exact:
        segre = _segre_complete_rank2(R) if N == 2 else (
            _segre_complete_rank3(R) if N == 3 else SegreResult([], False))
        for v, _ in segre.pairs:
            found.append(v)
    backend = R.backend
    o, z = one(backend), zero(backend)
    for bits in range(1, 2 ** N - 1):
        idxs = [i for i in range(N) if bits >> i & 1]
        Q = Matrix(N, len(idxs), backend,
                   [[o if r == i else z for i in idxs] for r in range(N)])
        if _subspace_invariant(R, Q):
            found.append(Q)
    return found


def decomposability(obj: YBObject, side: str = "both", seed: int = 0) -> dict:
    """Search complementary pairs of invariant subspaces; verdict per side."""
    N = obj.slot_dim
    out = {}
    for s in (["right", "left"] if side == "both" else [side]):
        R = obj.R if s == "right" else obj.R.transpose()
        candidates = _candidate_subspaces(obj, R, N, seed)
        witness = None
        for Q1, Q2 in combinations(candidates, 2):
            if Q1.cols + Q2.cols != N:
                continue
            combined = Matrix(N, N, R.backend,
                              [list(a) + list(b) for a, b in zip(Q1.data, Q2.data)])
            if combined.rank() == N:
                witness = (Q1, Q2)
                break
        out[s] = DecompReport("decomposable" if witness else "indecomposable-within-search",
                              witness)
    return out


# -- duality ------------------------------------------------------------------------


def duality_verify(objA: YBObject, objB: YBObject, coev: Matrix, ev: Matrix,
                   tol: float | None = None) -> bool:
    """Verify a duality witness pair (coev Q, ev P) between two objects.

    Checks Q (x) Q is fixed by R [lash] S, P (x) P is left-fixed by
    S [lash] R, and both zig-zag identities.
    """
    from .constructions import lash

    N, M = objA.N, objB.N
    if coev.rows != N * M or coev.cols != 1 or ev.rows != 1 or ev.cols != N * M:
        raise DimensionMismatch("coev must be an NM column, ev an NM row")
    # lashing preserves the equation; skip the cubic-size re-verification
    RS = lash(objA, objB, tol, verify=False).R
    SR = lash(objB, objA, tol, verify=False).R
    QQ = kron(coev, coev)
    if not RS.mul(QQ).eq(QQ, tol):
        return False
    PP = kron(ev, ev)
    if not PP.mul(SR).eq(PP, tol):
        return False
    I_N = Matrix.identity(N, coev.backend)
    I_M = Matrix.identity(M, coev.backend)
    zig1 = kron(ev, I_N).mul(kron(I_N, coev))
    if not zig1.eq(I_N, tol):
        return False
    zig2 = kron(I_M, ev).mul(kron(coev, I_M))
    return zig2.eq(I_M, tol)
