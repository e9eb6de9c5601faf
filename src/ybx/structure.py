"""Hom/End spaces, subobject and quotient extraction, product eigenvectors,
decomposability, and duality verification.

Both notions of morphism are solved here.  Intertwiners of the braid
representations, T rho_B(sigma_i) = rho_A(sigma_i) T on n strands, form the
linear space ``intertwiner_space``.  Their equations are laid out once, as
sparse rows read off R's local table (``core._placed``): ``_intertwiner_rows``,
and ``_diagonal_rows`` for diagonal T (the pair space below, X-symmetry's
A_n).  The exact kernel and the one SVD solve those rows at n = 2, and above
it only sigma_(n-1)'s, on the span of H_(n-1) (x) E_kl (the commutant
tower, ``_tower_units``); the one checker ``_satisfied`` reads them at any
n.  A morphism of Yang-Baxter objects, (Q (x) Q) R_A = R_B (Q (x) Q), is
quadratic in Q and is attacked in two linear steps: first the pencil
{X : X R_A = R_B X} (or, for diagonal and monomial Q, a pair space), then a
search for elements whose *realignment* is a symmetric rank-one matrix
v v^T; such X are exactly the Kronecker squares Q (x) Q.  One generator of
candidates, ``_morphism_candidates``, serves ``end_search`` and the exact
``local_witness_search``.  Product
(Segre) eigenvectors R (v (x) v) = lam v (x) v are found the same way.
Both come down to the rational zeros of a small polynomial system in at
most two unknowns, ``_rational_zeros``, a gcd-and-resultant solver on the
helpers of ``poly``: the rank-one search for (symmetrized) pencil dimension
<= 3, the Segre search for N <= 3.  There the search is complete, and its
flag turns False only on an irrational zero or a sampled continuum.  Larger
pencils fall back to structured exact candidates and seeded Gauss-Newton
over the entries of v with exact reconstruction, flagged incomplete.  The
same Gauss-Newton solver serves the complex backend and the numeric local
witness search, there with det(Q) = 1 fixing the scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import isqrt

import numpy as np

from .config import DEFAULT_TOL
from .core import YBObject, _parts, _placed, _table, check_dim
from .errors import DimensionMismatch, SingularMatrix, UnsupportedRank
from .poly import _accumulate, _padd, _pmul, _psubst, _resultant, _unit, poly_gcd, rational_factors
from .scalars import Backend, GaussianRational, join_backend, one, zero
from .tensor import (Matrix, _decoded, _eliminate, _integral, kernel, kron, pseudo_inverse,
                     reduced_rows)

# -- realignment ----------------------------------------------------------------


def realign(X: Matrix, N: int) -> Matrix:
    """Index shuffle Y[a + Nc][b + Nd] = X[a + Nb][c + Nd].

    Under it a Kronecker square A (x) A becomes vec(A) vec(A)^T, with
    vec(A)[a + Nc] = A[a][c].
    """
    if X.rows != N * N or X.cols != N * N:
        raise DimensionMismatch("realign expects an N^2 x N^2 matrix")
    return Matrix(N * N, N * N, X.backend, [[X.data[r % N + N * (c % N)][r // N + N * (c // N)]
                                             for c in range(N * N)] for r in range(N * N)])


def vec_to_matrix(v: Matrix, N: int) -> Matrix:
    """Inverse of vec: A[a][c] = v[a + Nc]."""
    return Matrix(N, N, v.backend, [[v.data[a + N * c][0] for c in range(N)] for a in range(N)])


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


def _intertwiner_rows(A: YBObject, B: YBObject, n: int, first: int = 1) -> list:
    """Rows of T rho_B(sigma_i) = rho_A(sigma_i) T on n strands: all mA mB
    equations of each generator i >= first in (i, r, c) order, empty ones
    included.

    T[r][k] is unknown r mB + k.  Equation (r, c) takes B_i[k][c] at
    r mB + k and -A_i[r][k] at k mB + c, read off R_A's and R_B's tables
    (``core._placed``) without building the generators' images.
    """
    mA, mB = (check_dim(X.slot_dim, n, f"intertwiners on {n} strands") for X in (A, B))
    tA, tB = _table(A.R), _table(B.R)
    rows = []
    for i in range(first, n):
        eqs = [{} for _ in range(mA * mB)]  # equation (r, c) is eqs[r mB + c]
        for k, row in enumerate(_placed(tB, B.slot_dim, n, i)):
            for c, v in row:
                for r in range(mA):  # the first entry of each (equation, unknown)
                    eqs[r * mB + c][r * mB + k] = v
        for r, row in enumerate(_placed(tA, A.slot_dim, n, i)):
            for k, v in row:
                for c in range(mB):
                    _accumulate(eqs[r * mB + c], k * mB + c, -v)
        rows.extend(eqs)
    return rows


def _diagonal_rows(tA: list, tB: list, w: int, n: int) -> list:
    """Rows of d_r B_i[r][c] - A_i[r][c] d_c = 0 for i < n, A_i and B_i the
    generator images of the tables tA and tB (``core._table``) on slots of
    width w, in order of i, then r, then c; empty rows are left out.  Their
    kernel is the diagonal T = diag(d) of ``_intertwiner_rows``; at n = 2 it
    is the pair space."""
    rows = []
    for i in range(1, n):
        for r, (a_row, b_row) in enumerate(zip(_placed(tA, w, n, i), _placed(tB, w, n, i))):
            eqs = {c: {r: v} for c, v in b_row}    # equation (r, c) is eqs[c]
            for c, v in a_row:
                eq = eqs.setdefault(c, {})
                eq[c] = eq.get(c, 0) - v if c == r else -v
            rows.extend(eqs[c] for c in sorted(eqs) if c != r or eqs[c][r])
    return rows


def _satisfied(rows: list, x: list, exact: bool, tol: float | None = None) -> bool:
    """Every row vanishes at x: exactly, or on complex-f within tol times
    max(1, the row's largest term)."""
    if exact:
        return not any(sum(v * x[c] for c, v in row.items()) for row in rows)
    tol = DEFAULT_TOL if tol is None else tol
    for row in rows:
        terms = [v * x[c] for c, v in row.items()]
        if abs(sum(terms)) > tol * max([1.0] + [abs(t) for t in terms]):
            return False
    return True


def intertwiner_space(A: YBObject, B: YBObject, n: int = 2, below: list | None = None) -> list:
    """Exact basis of {T : T rho_B(sigma_i) = rho_A(sigma_i) T for i < n} on
    n strands; {X : X R_A = R_B X} is intertwiner_space(B, A).  At n = 2 the
    kernel of ``_intertwiner_rows``; above, of sigma_(n-1)'s rows alone in the
    x_u of T = sum x_u U_u (``_tower_units`` of ``below``, H_(n-1)'s basis,
    solved when not given), on integer rows: the entry at column q t + s of a
    row meets entry t of the units' part s (``core._parts``)."""
    mA, mB = A.slot_dim ** n, B.slot_dim ** n
    backend = join_backend(A.backend, B.backend)
    rows = _intertwiner_rows(A, B, n, n - 1)
    if n == 2:
        return [Matrix(mA, mB, backend, [vec[r * mB:(r + 1) * mB] for r in range(mA)])
                for vec in kernel([row for row in rows if row], mA * mB, backend)]
    below = intertwiner_space(A, B, n - 1) if below is None else below
    gauss = backend is Backend.EXACT_QI
    # each unit over its own denominator: the basis found below depends on their scales
    parts = _parts([_integral([U], gauss)[0][0]
                    for U in _tower_units(below, A.slot_dim, B.slot_dim, n)], gauss)
    q = len(parts)
    at = {}                 # column of an integer row -> [(column of its equation, coefficient)]
    for s, part in enumerate(parts):
        for u, unit in enumerate(part):
            for t, y in unit.items():
                at.setdefault(t - t % q + s, []).append((q * u + t % q, y))
    eqs = []
    for row in _integral(rows, gauss)[0]:
        eq = {}
        for t, v in row.items():
            for u, y in at.get(t, ()):
                eq[u] = eq.get(u, 0) + v * y
        eqs.append({u: v for u, v in eq.items() if v})
    out = []
    eqs = [eq for eq in eqs if eq]          # over Q integer rows are rows of values already
    for x in kernel(_decoded(eqs, 1, True) if gauss else eqs, len(parts[0]), backend):
        (x,), d = _integral([{u: c for u, c in enumerate(x) if c}], gauss)
        T = {}
        for u, c in x.items():
            for t, y in parts[u % q][u // q].items():
                T[t] = T.get(t, 0) + c * y
        data = [[zero(backend)] * mB for _ in range(mA)]
        for t, v in _decoded([T], d, gauss)[0].items():
            data[t // mB][t % mB] = v
        out.append(Matrix(mA, mB, backend, data))
    return out


def _tower_units(below: list, wA: int, wB: int, n: int):
    """The commutant tower: T = sum T_kl (x) E_kl, E_kl on the top slot,
    intertwines sigma_1 .. sigma_(n-2) exactly when every T_kl lies in
    H_(n-1), spanned by the Y_j of ``below``.  So T = sum x_u U_u; yields
    U_u = Y_j (x) E_kl in turn over u = (k wB + l) h + j, as {r mB + c: entry}."""
    mB = wB ** n
    ys = [{r * mB + c: y for r, row in enumerate(Y.data) for c, y in enumerate(row) if y}
          for Y in below]
    return ({t + wA ** (n - 1) * k * mB + wB ** (n - 1) * l: y for t, y in Y.items()}
            for k in range(wA) for l in range(wB) for Y in ys)


def _dense(rows: list, ncols: int):
    """Sparse rows {col: value} as a complex array."""
    out = np.zeros((len(rows), ncols), dtype=complex)
    out[[k for k, row in enumerate(rows) for _ in row],
        [c for row in rows for c in row]] = [v for row in rows for v in row.values()]
    return out


def intertwiner_space_numeric(A: YBObject, B: YBObject, n: int = 2,
                              tol: float = DEFAULT_TOL, below: list | None = None) -> list:
    """Orthonormal basis of the same space on the complex backend, over the
    objects promoted to complex-f: one SVD of ``_intertwiner_rows`` at n = 2;
    above, of sigma_(n-1)'s rows times the tower's units (orthonormal, as the
    Y_j are), whose null vectors the units lift."""
    mA, mB = A.slot_dim ** n, B.slot_dim ** n
    A, B = (replace(X, R=X.R.promote_to(Backend.COMPLEX_F)) for X in (A, B))
    system = _dense(_intertwiner_rows(A, B, n, n - 1), mA * mB)
    if n > 2:
        below = intertwiner_space_numeric(A, B, n - 1, tol) if below is None else below
        lift = _dense(list(_tower_units(below, A.slot_dim, B.slot_dim, n)), mA * mB)
        system = system @ lift.T
    u, s, vh = np.linalg.svd(system)
    cutoff = 1e3 * tol * max(1.0, float(s[0]) if len(s) else 1.0)
    null = vh[int(np.sum(s > cutoff)):].conj()
    return [Matrix.from_numpy(row.reshape(mA, mB)) for row in (null @ lift if n > 2 else null)]


# -- rational zeros of small polynomial systems (``poly``'s sparse dicts) -------------


_SAMPLES = {1: (0, 1, 2), 2: (0, 1, -1, 2)}  # the first unknown on a continuum


def _rational_zeros(polys: list, k: int):
    """Rational common zeros of polynomials in k <= 2 unknowns: (points, complete).

    The system is first replaced by a reduced basis of its span, ordered so
    that the rows free of the second unknown come last.  The first unknown
    is confined to the roots of one gcd: of those rows and, for k = 2, of
    the resultants in the second unknown of the other rows' pairs, folded
    in until the gcd splits into rational roots.  Each root is substituted
    and the rest solved the same way.  complete is False when an irrational
    factor is left over, or when nothing confines the first unknown (the
    zeros form a continuum) and it is sampled at ``_SAMPLES[k]`` instead.
    """
    polys = [p for p in polys if p]
    if k == 0:
        return ([] if polys else [()]), True
    monomials = sorted({e for p in polys for e in p}, key=lambda e: (e[1:], e), reverse=True)
    if len(polys) == 1:  # one row is its own reduced basis once its leading entry is 1
        polys = [{e: c / polys[0][monomials[0]] for e, c in polys[0].items()}]
    else:
        column = {e: j for j, e in enumerate(monomials)}
        rows = [{column[e]: c for e, c in p.items()} for p in polys]
        polys = [{monomials[j]: c for j, c in row.items()}
                 for row in reduced_rows(rows, len(monomials))[0]]
    free = [p for p in polys if not any(any(e[1:]) for e in p)]
    bound = [p for p in reversed(polys) if any(any(e[1:]) for e in p)]  # lowest degree first
    confining = chain(({e[:1]: c for e, c in p.items()} for p in free),
                      (_resultant(a, b) for a, b in combinations(bound, 2)))
    roots, complete = [Fraction(x) for x in _SAMPLES[k]], False
    g = []
    for p in confining:
        if not p:
            continue
        z = next(iter(p.values())) * 0
        coeffs = [p.get((i,), z) for i in range(max(p)[0] + 1)]
        degree = len(g)
        g = poly_gcd(g, coeffs) if g else coeffs
        if len(g) == 1:
            return [], True
        if len(g) == degree:  # a gcd of the same degree is the same polynomial
            continue
        factors, rest = rational_factors(g, 1)
        roots = [-f[0] for f in factors]
        if k == 2:  # a plane's first coordinates in increasing order, a line's as found
            roots.sort(key=lambda x: (getattr(x, "re", x), getattr(x, "im", 0)))
        complete = len(rest) == 1
        if complete:
            break
    points = []
    for x in dict.fromkeys(roots):
        found, found_complete = _rational_zeros([_psubst(p, x) for p in polys], k - 1)
        points.extend((x,) + point for point in found)
        complete = complete and found_complete
    return points, complete


# -- symmetric rank-one elements of a matrix space ---------------------------------


@dataclass
class Rank1Result:
    """Vectors v with v v^T in a span, and whether they are all of them.  The
    numeric solver also reports its seeded starts, how many converged, how
    many stalled at a stationary point (``_gauss_newton``), and the smallest
    residual |W^H vec(v v^T)| / |v|^2 a start reached."""
    vectors: list
    complete: bool
    starts: int = 0
    converged: int = 0
    stalled: int = 0
    best_residual: float | None = None


def _symmetrize_basis(basis: list) -> list:
    """Restrict a span to its symmetric members (exact backends)."""
    if not basis:
        return []
    n = basis[0].rows
    backend = basis[0].backend
    rows = []
    for r in range(n):
        for c in range(r + 1, n):
            row = {i: x for i, B in enumerate(basis) if (x := B.data[r][c] - B.data[c][r])}
            if row:
                rows.append(row)
    if not rows:
        return list(basis)
    out = []
    for coeff in kernel(rows, len(basis), backend):
        M = Matrix.zeros(n, n, backend)
        for t, B in zip(coeff, basis):
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


def _rank1_chart(basis: list):
    """Rank-one symmetric points of the chart B0 + sum_j u_j B_j of
    span(B0, ..., Bk), k <= 2: the rational zeros of its 2x2 minors.  The
    points at infinity are those of the chart of span(B1, ..., Bk).
    Returns (vectors, complete)."""
    B0, rest = basis[0], basis[1:]
    k, n = len(rest), B0.rows
    entry = [[{_unit(j, k): B.data[r][c] for j, B in enumerate(basis, -1) if B.data[r][c]}
              for c in range(n)] for r in range(n)]
    minors = [_padd(_pmul(entry[r1][c1], entry[r2][c2]),
                    _pmul(entry[r1][c2], entry[r2][c1]), -1)
              for r1, r2 in combinations(range(n), 2) for c1, c2 in combinations(range(n), 2)]
    points, complete = _rational_zeros(minors, k)
    out = []
    for u in points:
        M = B0
        for x, B in zip(u, rest):
            M = M.add(B.scale(x))
        v = _extract_rank1_symmetric(M)
        if v is not None:
            out.append(v)
    return out, complete


def _pattern_vectors(n: int, backend: Backend):
    """0/1 support patterns and +-1 sign patterns as exact candidates."""
    o, z = one(backend), zero(backend)
    out = []
    if n <= 9:
        for bits in range(1, 2 ** n):
            out.append(Matrix(n, 1, backend, [[o if bits >> i & 1 else z] for i in range(n)]))
        for signs in product((1, -1), repeat=n - 1):
            out.append(Matrix(n, 1, backend, [[o]] + [[o if s > 0 else -o] for s in signs]))
    return out


def rank1_symmetric_elements(basis: list, seed: int = 0) -> Rank1Result:
    """Vectors v with v v^T in span(basis); exact and complete for dim <= 3.

    Higher-dimensional spans fall back to structured exact candidates
    (pencils through basis pairs and triples, 0/1 and sign patterns) plus
    64 seeded Gauss-Newton starts in lockstep, with exact reconstruction;
    every returned vector is verified, and the completeness flag is
    dropped.  On the complex backend those starts are the whole search.
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
    if len(sym) <= 3:  # the chart of the span, then those at infinity
        charts = [_rank1_chart(sym[s:]) for s in range(len(sym))]
        return Rank1Result(_dedupe_rays([v for vectors, _ in charts for v in vectors]),
                           all(complete for _, complete in charts))
    out, charts = [], {}
    # the pencils through the first five elements' singles, pairs and triples in
    # order, each followed by its points at infinity; each chart solved once
    for span in sorted(chain(*(combinations(range(min(len(sym), 5)), m) for m in (1, 2, 3)))):
        for s in range(len(span)):
            if span[s:] not in charts:
                charts[span[s:]] = _rank1_chart([sym[i] for i in span[s:]])[0]
            out.extend(charts[span[s:]])
    numeric = _rank1_numeric([B.promote_to(Backend.COMPLEX_F) for B in sym], seed,
                             _LINEAR_STARTS)
    exact = (_rationalize_vector(v, backend) for v in numeric.vectors)
    for v in chain(_pattern_vectors(sym[0].rows, backend), exact):
        if v is not None and _vvT_in_span(v, sym):  # the charts' points lie in it
            out.append(v)
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
    return Matrix.from_rows([[x] for x in out], backend)


def _vvT_in_span(v: Matrix, basis: list) -> bool:
    """v v^T lies in span(basis) when, with its entries as the last column of
    the system whose columns are the basis, that column holds no pivot."""
    x = [v.data[r][0] for r in range(v.rows)]
    k = len(basis)
    rows = []
    for r, xr in enumerate(x):
        for c, xc in enumerate(x):
            row = {j: B.data[r][c] for j, B in enumerate(basis) if B.data[r][c]}
            if xr * xc:
                row[k] = xr * xc
            if row:
                rows.append(row)
    return k not in _eliminate(rows, k + 1)[0]


_GN_STEPS = 50   # Gauss-Newton steps per start
_GN_TOL = 1e-12  # residual at which a start counts as converged
_STALL_STEP = 1e-4      # a start stalls once its last step moved v by less than this * |v|_inf
_STALL_RESIDUAL = 0.1   # while its residual is still above this
_LINEAR_STARTS = 64  # starts of rank1_symmetric_elements, in a linear chart


def _gauss_newton(basis: list, seed: int, det_chart: bool = False):
    """Seeded Gauss-Newton for v with v v^T in span(basis): (draw, lockstep).

    With W an orthonormal basis of the span's orthogonal complement in
    C^(n^2) (one SVD), membership is the quadratic system
    W^H vec(v v^T) = 0 in the n entries of v.  It is holomorphic in v, so a
    Gauss-Newton step is one complex least-squares solve, with Jacobian
    (Wh + Wh^T) v, built for a block as one stacked row product over all of
    S = Wh + Wh^T's rows.  The system is homogeneous; one more row fixes the
    scale: a seeded linear chart c^T v = 1, or with ``det_chart`` (n = N^2)
    det(vec^-1 v) = 1, whose gradient is the cofactor matrix (Leibniz terms,
    no LAPACK det) and which also excludes the singular matrices.  draw(k)
    takes the next k starts from the seeded stream, on the chart.
    lockstep(X) steps those starts together, one stacked QR or SVD per step
    (``_lstsq_steps``) taking each start to the minimum-norm solution at
    ``lstsq``'s cutoff (twinned pairs make Jacobians near-singular), and
    yields each start's (v, residual, stalled, converged) in order, once all
    before it are done: the residual is |W^H vec(v v^T)| / |v|^2, in [0, 1];
    a start converges, and leaves the block, when it and the chart residual
    fall below 1e-12 within 50 steps.  It stalls, and leaves unconverged,
    when its last step moved v by less than 1e-4 |v|_inf while its residual
    is above 0.1: a stationary point of the least-squares problem that is
    not a zero.  A start's steps and exit do not depend on its block.
    """
    n = basis[0].rows
    stack = np.array([B.to_numpy().ravel() for B in basis]).T
    u, s, _ = np.linalg.svd(stack)
    rank = int(np.sum(s > 1e-10 * s[0]))
    Wh = u[:, rank:].conj().T.reshape(-1, n, n)
    S = Wh + Wh.transpose(0, 2, 1)  # v^T Wh v = v^T S v / 2; Jacobian S v
    # v^T S2 holds J's rows S v (each S_a is symmetric) side by side, then zeros for the chart row
    S2 = np.concatenate((S.transpose(1, 0, 2).reshape(n, -1), np.zeros((n, n))), 1)
    cutoff = np.finfo(float).eps * max(len(S) + 1, n)
    rng = np.random.default_rng(seed)
    if det_chart:
        N = degree = isqrt(n)
        # Leibniz: Q[i, p(i)]'s cofactor (entry i + N p(i) of v) sums sign(p) prod_(r != i)
        # Q[r, p(r)] over the permutations p; a term is [entry, sign, *its factors' entries]
        terms = sorted([i + N * p[i], (-1) ** sum(a > b for a, b in combinations(p, 2)),
                        *(r + N * p[r] for r in range(N) if r != i)]
                       for p in permutations(range(N)) for i in range(N))
        _, sign, *factors = np.array(terms).reshape(n, -1, N + 1).T.copy()  # term x entry

        def gradient(V):  # the cofactors of Q per row of V: terms x entries x starts, C-ordered
            P = sign[..., None] * np.ones(len(V), complex)  # so each start sums alike in any block
            for columns in factors:
                P *= V.T[columns]
            return P.sum(0).T
    else:
        degree = 1
        c = rng.normal(size=n) + 1j * rng.normal(size=n)

        def gradient(V):
            return np.broadcast_to(c, V.shape)

    scale, shift = np.full(len(S) + 1, 0.5), np.zeros(len(S) + 1)
    scale[-1], shift[-1] = 1 / degree, 1  # J v = (v^T S v, degree * chart value)

    def draw(k):
        z = rng.normal(size=(k, 2, n))  # each start's two draws
        X = z[:, 0] + 1j * z[:, 1]
        return X / ((X * gradient(X)).sum(1) / degree)[:, None] ** (1 / degree)

    def lockstep(X):
        live, finished, done = np.arange(len(X)), {}, 0
        moved = np.full(len(X), np.inf)  # each start's last step, |delta|_inf
        for step in range(_GN_STEPS + 1):
            J = (X[:, None, :] @ S2).reshape(len(X), -1, n)  # 3-D, so never numpy's gemv
            J[:, -1] = gradient(X)
            r = (J @ X[:, :, None])[..., 0] * scale - shift
            size = abs(X)
            res = np.hypot.reduce(abs(r[:, :-1]), 1) / np.hypot.reduce(size, 1) ** 2
            conv = np.maximum(res, abs(r[:, -1])) <= _GN_TOL
            stall = (moved < _STALL_STEP * size.max(1)) & (res > _STALL_RESIDUAL)
            leave = conv | stall | (step == _GN_STEPS)
            if leave.any():
                finished.update(zip(live[leave].tolist(),
                                    zip(X[leave], res[leave], stall[leave], conv[leave])))
                live, X, J, r = live[~leave], X[~leave], J[~leave], r[~leave]
                while done in finished:
                    yield finished.pop(done)
                    done += 1
                if not len(live):
                    return
            delta = _lstsq_steps(J, r, cutoff)
            X, moved = X - delta, abs(delta).max(1)

    return draw, lockstep


def _lstsq_steps(J, r, cutoff, qr=True):
    """Each start's minimum-norm least-squares x of J_k x = r_k at ``lstsq``'s
    cutoff: x = R^-1 (Q^H r)[:n] from one stacked QR of [J | r] where J is wider
    than 4 columns, R's pivots pass the cutoff and |R|_F |R^-1|_F cutoff < 1 (so
    lstsq drops nothing), else from the SVD; chosen per start, never per block."""
    m, n = J.shape[1:]
    if qr and m >= n > 4:
        T = np.linalg.qr(np.concatenate((J, r[..., None]), 2), mode="raw")[0].swapaxes(1, 2)
        R = np.triu(T[:, :n, :n])
        d = abs(R.diagonal(0, 1, 2))
        ok = d.min(1) > cutoff * d.max(1)
        Rinv = np.linalg.inv(np.where(ok[:, None, None], R, np.eye(n)))
        ok &= np.linalg.norm(R, axis=(1, 2)) * np.linalg.norm(Rinv, axis=(1, 2)) * cutoff < 1
        x = (Rinv @ T[:, :n, n:])[..., 0]
        if not ok.all():
            x[~ok] = _lstsq_steps(J[~ok], r[~ok], cutoff, qr=False)
        return x
    U, s, Vh = np.linalg.svd(J, full_matrices=False)
    s[s <= cutoff * s[:, :1]] = np.inf  # lstsq's cutoff: no step along these
    return ((r.conj()[:, None] @ U) / s[:, None] @ Vh).conj()[:, 0]


def _gauss_newton_starts(basis: list, seed: int, starts: int, det_chart: bool = False):
    """The starts of ``_gauss_newton`` in lockstep blocks of 1, 1, 2, 4, ...,
    each start's (v, residual, stalled, converged) yielded in order, so that a
    search that stops at an early start spares the later blocks' draws and
    steps."""
    draw, lockstep = _gauss_newton(basis, seed, det_chart)
    done = 0
    while done < starts:
        k = min(starts - done, done or 1)
        yield from lockstep(draw(k))
        done += k


def _rank1_numeric(basis: list, seed: int, starts: int, det_chart: bool = False) -> Rank1Result:
    """Every start of ``_gauss_newton``, in one lockstep block: each converged
    ray once, with the numbers of starts that converged and that stalled, and
    the smallest residual."""
    draw, lockstep = _gauss_newton(basis, seed, det_chart)
    rays = np.empty((0, basis[0].rows), dtype=complex)
    found, converged, stalled, best = [], 0, 0, np.inf
    for v, resid, stall, ok in lockstep(draw(starts)):
        best, stalled = min(best, resid), stalled + stall
        if not ok:
            continue
        converged += 1
        ray = v / v[np.argmax(np.abs(v))]
        if not (abs(ray - rays) <= 1e-6 + 1e-5 * abs(rays)).all(1).any():  # np.allclose per row
            rays = np.vstack((rays, ray))
            found.append(Matrix.from_numpy(v.reshape(-1, 1)))
    return Rank1Result(found, False, starts, converged, int(stalled), float(best))


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
    """Basis of {p in F^(N^2) : p_u R[u][v] = R~[u][v] p_v}, as N x N matrices:
    the kernel of ``_diagonal_rows`` of the tables of R~ and R at n = 2.

    The pair index is u = a + N b and the returned matrices have
    P[a][b] = p_{a + N b}, so Kronecker squares of diagonals correspond to
    symmetric rank-one P.
    """
    backend = join_backend(R.backend, R_tilde.backend)
    return [Matrix(N, N, backend, [[vec[a + N * b] for b in range(N)] for a in range(N)])
            for vec in kernel(_diagonal_rows(_table(R_tilde), _table(R), N, 2), N * N, backend)]


def _morphism_candidates(A: YBObject, B: YBObject, strategy: str, seed: int):
    """Candidates Q for (Q (x) Q) R_A = R_B (Q (x) Q), lazily: yields
    (candidates, complete) once per permutation or pencil searched.

    ``full`` realigns the pencil {X : X R_A = R_B X} and reads Q off its
    symmetric rank-one elements vec(Q) vec(Q)^T.  ``diagonal`` and
    ``monomial`` take Q = P D for the identity P or every permutation P:
    (D (x) D) R_A = R_P (D (x) D) with R_P = (P (x) P)^T R_B (P (x) P) says
    the pair products p_(a + N b) = d_a d_b lie in the pair space of
    (R_A, R_P).  Candidates are not verified.
    """
    N = A.slot_dim
    backend = join_backend(A.backend, B.backend)
    if strategy == "full":
        result = rank1_symmetric_elements([realign(X, N) for X in intertwiner_space(B, A)],
                                          seed)
        yield [vec_to_matrix(v, N) for v in result.vectors], result.complete
        return
    if strategy not in ("diagonal", "monomial"):
        raise ValueError(f"unknown strategy {strategy!r}")
    for perm in [tuple(range(N))] if strategy == "diagonal" else permutations(range(N)):
        P = Matrix.permutation(perm, backend)
        PP = kron(P, P)
        result = rank1_symmetric_elements(
            _pair_space_basis(A.R, PP.transpose().mul(B.R).mul(PP), N), seed)
        yield ([P.mul(Matrix.diagonal([v.data[r][0] for r in range(N)], backend))
                for v in result.vectors], result.complete)


def end_search(obj: YBObject, strategy: str = "diagonal", seed: int = 0) -> EndSearchResult:
    """Exactly verified endomorphisms A with (A (x) A) R = R (A (x) A).

    Strategies: ``diagonal`` (complete over the rationals for pencil dim <= 2),
    ``monomial`` (permutation times diagonal), ``commutant`` (full pencil plus
    rank-one realignment).  The identity and zero are always included.
    Exact backends only: the complex backend raises BackendMismatch.
    """
    N = obj.slot_dim
    backend = obj.R.backend
    elements: list[Matrix] = [Matrix.identity(N, backend), Matrix.zeros(N, N, backend)]
    complete = True
    for candidates, done in _morphism_candidates(
            obj, obj, "full" if strategy == "commutant" else strategy, seed):
        elements.extend(candidates)
        complete = complete and done
    if strategy == "diagonal":
        for bits in range(1, 2 ** N - 1):
            vals = [one(backend) if bits >> i & 1 else zero(backend) for i in range(N)]
            elements.append(Matrix.diagonal(vals, backend))
    out = {}
    for A in elements:
        key = tuple(str(x) for row in A.data for x in row)
        if key not in out and end_verify(obj, A):
            out[key] = EndoElement(A, A.rank())
    return EndSearchResult(list(out.values()), complete)


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
    if S.backend.is_exact and not S.is_invertible():
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


def _segre_charts(R: Matrix, N: int) -> SegreResult:
    """Every product eigenvector for N <= 3, chart by chart: v = e_k +
    sum_{j>k} t_j e_j, with w = v (x) v, is one when (R w)_i = lam w_i for
    all i, where lam = (R w)_(k,k) since w_(k,k) = 1."""
    backend = R.backend
    o, z = one(backend), zero(backend)
    pairs, complete = [], True
    for k in range(N):
        m = N - 1 - k
        v = [{} for _ in range(k)] + [{_unit(j, m): o} for j in range(-1, m)]
        w = [_pmul(v[u % N], v[u // N]) for u in range(N * N)]
        Rw = [{} for _ in range(N * N)]
        for i in range(N * N):
            for c in range(N * N):
                if R.data[i][c]:
                    Rw[i] = _padd(Rw[i], w[c], R.data[i][c])
        lam = Rw[k + N * k]
        points, chart_complete = _rational_zeros(
            [_padd(Rw[i], _pmul(lam, w[i]), -1) for i in range(N * N)], m)
        complete = complete and chart_complete
        for t in points:
            value = lam
            for x in t:
                value = _psubst(value, x)
            vec = Matrix.from_rows([[z]] * k + [[o]] + [[x] for x in t], backend)
            pairs.append((vec, value.get((), z)))
    return SegreResult(_verify_segre(R, N, pairs), complete)


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
        if N > 3:
            raise UnsupportedRank("complete Segre solving is implemented for N <= 3")
        return _segre_charts(R, N)
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


def _candidate_subspaces(R: Matrix, N: int):
    """Invariant subspaces found by Segre vectors and coordinate sets."""
    found = []
    if N <= 3 and R.backend.is_exact:
        for v, _ in _segre_charts(R, N).pairs:
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


def decomposability(obj: YBObject, side: str = "both") -> dict:
    """Search complementary pairs of invariant subspaces; verdict per side."""
    N = obj.slot_dim
    out = {}
    for s in (["right", "left"] if side == "both" else [side]):
        R = obj.R if s == "right" else obj.R.transpose()
        candidates = _candidate_subspaces(R, N)
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
