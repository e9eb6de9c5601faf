from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from conftest import (
    ising_exact,
    random_invertible,
    random_matrix,
    sampled_catalog_object,
)
from ybx.catalog import enumerate_permutation_solutions, permutation_to_ybo
from ybx.constructions import boxplus, cable
from ybx.core import YBObject, group_type_build, make_ybo
from ybx.structure import (
    canonical_subobject_form,
    decomposability,
    duality_verify,
    end_search,
    end_verify,
    extract_from_endo,
    hom_verify,
    rank1_symmetric_elements,
    realign,
    segre_eigenvectors,
    vec_to_matrix,
)
from ybx.tensor import Matrix, kron, swap_matrix


def rightnotleft():
    return make_ybo(2, Matrix.from_rows([
        [5, 0, 0, 0],
        [0, 3, 2, 0],
        [0, 5, 0, 0],
        [0, 5, 2, -2]]))


def ff_cable(x):
    R = Matrix.from_rows([
        [1, 0, 0, 0],
        [0, 1 + x, -x, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1]])
    return cable(make_ybo(2, R), 2)


def test_realign_characterisation(rng):
    for N in (2, 3):
        for _ in range(25):
            A = random_matrix(rng, N, N)
            X = kron(A, A)
            Y = realign(X, N)
            vec = Matrix.from_rows([[A.data[a][c]] for c in range(N) for a in range(N)])
            outer = vec.mul(vec.transpose())
            assert Y.eq(outer)
            assert realign(realign(X, N), N).eq(X)  # involution
            assert vec_to_matrix(vec, N).eq(A)


def test_hom_verify_examples():
    obj = rightnotleft()
    Rp = make_ybo(2, Matrix.from_rows([
        [5, 0, 0, 0],
        [0, 3, 2, 0],
        [0, 5, 0, 0],
        [7, 0, 0, -2]]))
    A = Matrix.from_rows([[1, 0], [-1, 2]])
    assert hom_verify(A, obj, Rp)          # A : (2, R) -> (2, R')
    assert not hom_verify(A, Rp, obj)
    assert end_verify(obj, Matrix.identity(2))
    ising = make_ybo(2, ising_exact())
    assert end_verify(ising, Matrix.diagonal([Fraction(1), Fraction(-1)]))


def test_end_search_ising_diagonal():
    ising = make_ybo(2, ising_exact())
    result = end_search(ising, "diagonal")
    assert result.complete
    mats = {tuple(str(v) for row in e.A.data for v in row) for e in result.elements}
    # exactly zero, the identity, and diag(1, -1) up to scale
    assert len(result.elements) == 3
    assert any(e.rank == 0 for e in result.elements)
    nontrivial = [e for e in result.elements
                  if e.rank == 2 and not e.A.eq(Matrix.identity(2))]
    assert len(nontrivial) == 1
    d = nontrivial[0].A
    assert d.data[0][1] == 0 and d.data[1][0] == 0
    assert d.data[0][0] == -d.data[1][1]


def test_end_search_monomial_flip():
    flip = make_ybo(2, swap_matrix(2, 2))
    result = end_search(flip, "monomial")
    # every monomial matrix commutes slotwise with the flip; search returns
    # permutation-times-diagonal representatives, all exactly verified
    assert all(end_verify(flip, e.A) for e in result.elements)
    assert any(e.A.data[0][1] and e.A.data[1][0] for e in result.elements)


def test_end_search_commutant_ising():
    ising = make_ybo(2, ising_exact())
    result = end_search(ising, "commutant")
    for e in result.elements:
        assert end_verify(ising, e.A)
    ranks = sorted(e.rank for e in result.elements)
    assert ranks[0] == 0 and ranks[-1] == 2
    # no rank-1 endomorphisms exist for the Ising solution
    assert 1 not in ranks


def test_extract_identity_endo():
    obj = rightnotleft()
    sub, quot = extract_from_endo(obj, Matrix.identity(2))
    assert sub.Q.eq(Matrix.identity(2))
    assert sub.S.eq(obj.R)
    assert quot.P.eq(Matrix.identity(2))


def test_extract_cable_rank3():
    x = Fraction(2)
    obj = ff_cable(x)
    y = x + 1
    A = Matrix.from_rows([
        [1, 0, 0, 0],
        [0, 1 / (1 - x), x / (x - 1), 0],
        [0, 1 / (1 - x), x / (x - 1), 0],
        [0, 0, 0, 1]])
    assert end_verify(obj, A)
    sub, quot = extract_from_endo(obj, A)
    assert sub.M == 3
    assert sub.Q.eq(Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]))
    assert sub.Q.mul(quot.P).eq(A)
    # S is additive charge conserving at rank 3 (the paper's Matcha^3 claim)
    from ybx.core import is_additive_cc

    assert is_additive_cc(sub.S, 3)


def test_extract_cable_rank2_T():
    x = Fraction(3)
    obj = ff_cable(x)
    B = Matrix.from_rows([
        [1, 0, 0, 0],
        [0, x / (x - 1), -x / (x - 1), 0],
        [0, 1 / (x - 1), -1 / (x - 1), 0],
        [0, 0, 0, 0]])
    assert end_verify(obj, B)
    sub, quot = extract_from_endo(obj, B)
    assert sub.M == 2
    T_expected = Matrix.from_rows([
        [1, 0, 0, 0],
        [0, 0, x * x, 0],
        [0, 1, 0, 0],
        [0, 0, 0, -x]])
    assert sub.S.eq(T_expected)
    assert sub.Q.mul(quot.P).eq(B)


def test_extract_theorem_round_trip(rng):
    # every returned endomorphism yields verified sub and quotient triples
    for seed, entry in enumerate(["hietarinta:slash", "match2:F/", "hietarinta:a"]):
        obj = sampled_catalog_object(entry, 40 + seed)
        found = end_search(obj, "diagonal")
        for e in found.elements:
            if e.rank == 0:
                continue
            sub, quot = extract_from_endo(obj, e.A)
            assert sub.M == e.rank
            assert sub.Q.mul(quot.P).eq(e.A)


def test_hom_composition_closes():
    x = Fraction(2)
    obj = ff_cable(x)
    A = Matrix.from_rows([
        [1, 0, 0, 0],
        [0, 1 / (1 - x), x / (x - 1), 0],
        [0, 1 / (1 - x), x / (x - 1), 0],
        [0, 0, 0, 1]])
    sub, _ = extract_from_endo(obj, A)
    mid = make_ybo(3, sub.S)
    inner = end_search(mid, "diagonal")
    for e in inner.elements:
        if e.rank in (0, 3):
            continue
        sub2, _ = extract_from_endo(mid, e.A)
        small = make_ybo(sub2.M, sub2.S)
        composed = sub.Q.mul(sub2.Q)
        assert hom_verify(composed, small, obj)


def test_segre_rightnotleft():
    obj = rightnotleft()
    right = segre_eigenvectors(obj, side="right")
    assert right.complete
    found = {(tuple(str(v.data[r][0]) for r in range(2)), str(lam))
             for v, lam in right.pairs}
    assert (("1", "0"), "5") in found
    assert (("0", "1"), "-2") in found
    assert (("1", "1"), "5") in found
    assert len(right.pairs) == 3
    left = segre_eigenvectors(obj, side="left")
    assert left.complete and len(left.pairs) == 1
    assert str(left.pairs[0][1]) == "5"


def test_segre_ising_empty():
    ising = make_ybo(2, ising_exact())
    assert segre_eigenvectors(ising, side="right").pairs == []
    assert segre_eigenvectors(ising, side="left").pairs == []


def test_segre_permutation_all_ones():
    result = enumerate_permutation_solutions(2)
    for p in result.solutions:
        obj = permutation_to_ybo(p, 2)
        for side in ("right", "left"):
            pairs = segre_eigenvectors(obj, side=side).pairs
            assert any(
                v.data[0][0] == v.data[1][0] and lam == 1 for v, lam in pairs)


def test_segre_left_right_transpose(rng):
    from ybx.constructions import transpose_obj

    for seed in range(5):
        obj = sampled_catalog_object("hietarinta:a", 50 + seed)
        right = segre_eigenvectors(obj, side="right")
        left_of_T = segre_eigenvectors(transpose_obj(obj), side="left")
        def norm(pairs):
            out = set()
            for v, lam in pairs:
                lead = next(v.data[r][0] for r in range(2) if v.data[r][0])
                out.add((tuple(str(v.data[r][0] / lead) for r in range(2)), str(lam)))
            return out
        assert norm(right.pairs) == norm(left_of_T.pairs)


def test_segre_rank3_group_type():
    # for R|ij> = g|j> (x) |i>, product eigenvectors are eigenvectors of g
    from ybx.core import group_type_build

    g = Matrix.from_rows([
        [2, 1, 0],
        [0, 3, 1],
        [0, 0, 5]])
    obj = group_type_build([g, g, g], verify=True)
    result = segre_eigenvectors(obj, side="right")
    assert result.complete
    lams = sorted(str(l) for _, l in result.pairs)
    assert lams == ["2", "3", "5"]
    for v, lam in result.pairs:
        assert g.mul(v).eq(v.scale(lam))


def test_segre_cable_one_dimensional_subobjects():
    # the 2-cable carries product eigenvectors with eigenvalue 1 (a whole
    # curve (1, t, t, t^2) inherited from the deformed flip, plus e4) and an
    # isolated one, (0, x, 1, 0), with eigenvalue -x
    for xv in (2, 3, -2):
        x = Fraction(xv)
        obj = ff_cable(x)
        o, z = Fraction(1), Fraction(0)
        extras = [Matrix.from_rows([[z], [x], [o], [z]]),
                  Matrix.from_rows([[o], [x], [x], [x * x]])]
        result = segre_eigenvectors(obj, side="right", complete=False,
                                    extra_candidates=extras)
        lams = {}
        for v, lam in result.pairs:
            lams.setdefault(lam, []).append(v)
        assert -x in lams and len(lams[-x]) == 1
        assert Fraction(1) in lams and len(lams[Fraction(1)]) >= 3
        # on the left side the -x ray sits on the antisymmetric vector
        left = segre_eigenvectors(obj, side="left", complete=False,
                                  extra_candidates=[
                                      Matrix.from_rows([[z], [o], [-o], [z]])])
        assert any(lam == -x for _, lam in left.pairs)


def test_segre_rank3_boxplus():
    A = sampled_catalog_object("match2:F/", 60)
    B = YBObject(1, 1, Matrix.from_rows([[Fraction(4)]]))
    obj = boxplus(A, B, Fraction(2))
    result = segre_eigenvectors(obj, side="right")
    lams = {str(l) for _, l in result.pairs}
    assert "4" in lams  # the 1-dimensional summand stays a product eigenvector


def test_decomposability_examples():
    obj = rightnotleft()
    report = decomposability(obj)
    assert report["right"].verdict == "decomposable"
    Q1, Q2 = report["right"].witness
    assert Q1.cols + Q2.cols == 2
    assert report["left"].verdict == "indecomposable-within-search"

    eye = YBObject(2, 1, Matrix.identity(4))
    report = decomposability(eye)
    assert report["right"].verdict == "decomposable"
    assert report["left"].verdict == "decomposable"

    ising = make_ybo(2, ising_exact())
    report = decomposability(ising)
    assert report["right"].verdict == "indecomposable-within-search"
    assert report["left"].verdict == "indecomposable-within-search"


def test_duality_permutation_and_ising():
    result = enumerate_permutation_solutions(2)
    for p in result.solutions:
        obj = permutation_to_ybo(p, 2)
        Q = Matrix.from_rows([[1], [0], [0], [1]])
        P = Q.transpose()
        assert duality_verify(obj, obj, Q, P)
    # the Ising witness needs the unitary normalization (the fixed-vector
    # condition is not scale invariant)
    from conftest import ising_unitary

    ising = make_ybo(2, ising_unitary(), tol=1e-9)
    Qc = Matrix.from_rows([[1], [0], [0], [1]]).promote_to(ising.R.backend)
    assert duality_verify(ising, ising, Qc, Qc.transpose(), tol=1e-9)
    eye = YBObject(2, 1, Matrix.identity(4))
    Q = Matrix.from_rows([[1], [0], [0], [1]])
    assert duality_verify(eye, eye, Q, Q.transpose())
    bad = Matrix.from_rows([[1], [1], [0], [1]]).promote_to(ising.R.backend)
    assert not duality_verify(ising, ising, bad, bad.transpose(), tol=1e-9)


def test_canonical_subobject_form():
    Q = Matrix.from_rows([[2, 0], [0, 3], [0, 3], [0, 0]])
    canon = canonical_subobject_form(Q)
    assert canon.data[0][0] == 1 and canon.data[1][1] == 1


# -- the exact zero solver against sympy ----------------------------------------------


def _sympy_zeros(eqs, syms):
    """Common zeros of a polynomial system by sympy: the points when there
    are finitely many and all are rational, else None."""
    eqs = [e for e in (sympy.expand(e) for e in eqs) if e != 0]
    if not syms:
        return [] if eqs else [()]
    if not eqs:
        return None
    basis = sympy.groebner(eqs, *syms, order="lex")
    if list(basis.exprs) == [1]:
        return []
    if not basis.is_zero_dimensional:
        return None
    points = [tuple(sol.get(s) for s in syms)
              for sol in sympy.solve(basis.exprs, syms, dict=True)]
    if all(x is not None and x.is_rational for p in points for x in p):
        return points
    return None


def _to_sympy(M):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in M.data])


def _sympy_segre(R, N):
    """{(ray, eigenvalue)} of R(v (x) v) = lam v (x) v on the charts
    v = e_k + sum_{j>k} t_j e_j, or None when a chart holds infinitely many
    or an irrational one."""
    R = _to_sympy(R)
    found = set()
    for k in range(N):
        ts = sympy.symbols(f"t1:{N - k}")
        v = [0] * k + [1] + list(ts)
        w = [v[u % N] * v[u // N] for u in range(N * N)]
        Rw = R * sympy.Matrix(w)
        lam = Rw[k + N * k]
        points = _sympy_zeros([Rw[i] - lam * w[i] for i in range(N * N)], ts)
        if points is None:
            return None
        for p in points:
            at = dict(zip(ts, p))
            found.add((tuple(str(sympy.sympify(x).subs(at)) for x in v), str(lam.subs(at))))
    return found


def _sympy_rank1(basis):
    """Rays of v with v v^T in span(basis) on the charts B_i + sum_{j>i} u_j B_j,
    or None when a chart holds infinitely many or an irrational one."""
    basis = [_to_sympy(B) for B in basis]
    n = basis[0].rows
    rays = set()
    for start in range(len(basis)):
        us = sympy.symbols(f"u1:{len(basis) - start}")
        M = basis[start] + sum((u * B for u, B in zip(us, basis[start + 1:])),
                               sympy.zeros(n, n))
        minors = [M[r1, c1] * M[r2, c2] - M[r1, c2] * M[r2, c1]
                  for r1, r2 in combinations(range(n), 2) for c1, c2 in combinations(range(n), 2)]
        points = _sympy_zeros(minors, us)
        if points is None:
            return None
        for p in points:
            X = M.subs(dict(zip(us, p)))
            col = next((X[:, c] for c in range(n) if any(X[:, c])), None)
            if col is not None:
                lead = next(x for x in col if x)
                rays.add(tuple(str(x / lead) for x in col))
    return rays


def _ray(v):
    lead = next(v.data[r][0] for r in range(v.rows) if v.data[r][0])
    return tuple(str(v.data[r][0] / lead) for r in range(v.rows))


def _sym(*rows):
    return Matrix.from_rows([list(r) for r in rows])


def test_rational_zero_solver_matches_sympy():
    """Segre at N = 2, 3 and rank one on spans of dimension 2, 3: complete
    exactly when sympy finds finitely many solutions, all rational, and then
    the same ones; otherwise every returned solution verifies."""
    A3 = Matrix.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, 3]])
    one3 = YBObject(1, 1, Matrix.from_rows([[Fraction(3)]]))
    g2 = Matrix.from_rows([[0, 2], [1, 0]])
    segre_cases = [
        rightnotleft(),                                            # finite, rational
        group_type_build([g2, g2], verify=True),                   # irrational
        permutation_to_ybo(enumerate_permutation_solutions(2).solutions[0], 2),
        group_type_build([Matrix.from_rows([[2, 1, 0], [0, 3, 1], [0, 0, 5]])] * 3,
                         verify=True),
        YBObject(3, 1, swap_matrix(3, 3).mul(kron(A3, A3))),       # irrational
        boxplus(sampled_catalog_object("hietarinta:a-glue", 100), one3, Fraction(2)),
        boxplus(sampled_catalog_object("perm:flip", 100), one3, Fraction(2)),  # continuum
    ]
    kinds = set()
    for obj in segre_cases:
        N = obj.slot_dim
        for side in ("right", "left"):
            R = obj.R if side == "right" else obj.R.transpose()
            result = segre_eigenvectors(obj, side=side)
            expected = _sympy_segre(R, N)
            kinds.add(expected is None)
            assert result.complete == (expected is not None)
            if expected is not None:
                assert {(_ray(v), str(lam)) for v, lam in result.pairs} == expected
            for v, lam in result.pairs:
                w = kron(v, v)
                assert R.mul(w).eq(w.scale(lam))
    E = lambda r, c, n: Matrix.from_rows(  # noqa: E731
        [[int((i, j) in ((r, c), (c, r))) for j in range(n)] for i in range(n)])
    rank1_cases = [
        [E(0, 0, 2), E(1, 1, 2)],                                  # finite, rational
        [E(0, 1, 2), _sym((1, 0), (0, 2))],                        # u = +-1/sqrt(2)
        [E(0, 0, 3), E(1, 1, 3), E(2, 2, 3)],                      # finite, rational
        [_sym((1, 0, 0), (0, 2, 0), (0, 0, 0)), E(0, 1, 3), E(2, 2, 3)],  # irrational
        [E(0, 0, 2), E(1, 1, 2), E(0, 1, 2)],                      # continuum
    ]
    for basis in rank1_cases:
        result = rank1_symmetric_elements(basis)
        expected = _sympy_rank1(basis)
        kinds.add(expected is None)
        assert result.complete == (expected is not None)
        if expected is not None:
            assert {_ray(v) for v in result.vectors} == expected
        n = basis[0].rows
        for v in result.vectors:
            target = [v.data[r][0] * v.data[c][0] for r in range(n) for c in range(n)]
            system = Matrix.from_rows([[B.data[r][c] for B in basis]
                                       for r in range(n) for c in range(n)])
            system.solve_right(Matrix.from_rows([[x] for x in target]))
    assert kinds == {True, False}


def test_segre_irrational_eigenvectors_leave_search_incomplete():
    # v = (sqrt 2, 1, 0) has R (v (x) v) = 2 v (x) v; only (0, 0, 1) is rational
    A = Matrix.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, 3]])
    result = segre_eigenvectors(YBObject(3, 1, swap_matrix(3, 3).mul(kron(A, A))))
    assert not result.complete
    assert [_ray(v) for v, _ in result.pairs] == [("0", "0", "1")]
    # the eight-vertex summand carries the rays with s = +-sqrt(299)/13
    obj = boxplus(sampled_catalog_object("hietarinta:eight-vertex", 200),
                  YBObject(1, 1, Matrix.from_rows([[Fraction(3)]])), 2)
    assert not segre_eigenvectors(obj).complete


# -- the lockstep Gauss-Newton starts against the per-start loop --------------------


def _quadrics(basis):
    """S = Wh + Wh^T, W an orthonormal basis of the complement of span(basis):
    v v^T lies in the span where v^T S_a v = 0 for every a."""
    import numpy as np

    n = basis[0].rows
    stack = np.array([B.to_numpy().ravel() for B in basis]).T
    u, s, _ = np.linalg.svd(stack)
    rank = int(np.sum(s > 1e-10 * s[0]))
    Wh = u[:, rank:].conj().T.reshape(-1, n, n)
    return Wh + Wh.transpose(0, 2, 1)


def _per_start_gauss_newton(basis, seed, starts, det_chart=False):
    """The reference for ``_gauss_newton_starts``: the same seeded starts,
    steps and exits, one start at a time, each step one ``np.linalg.lstsq``
    solve."""
    from math import isqrt

    import numpy as np

    from ybx import structure

    n = basis[0].rows
    S = _quadrics(basis)
    rng = np.random.default_rng(seed)
    if det_chart:
        N = degree = isqrt(n)
        others = np.array([[k for k in range(N) if k != i] for i in range(N)], dtype=int)
        signs = (-1.0) ** np.add.outer(np.arange(N), np.arange(N))

        def chart(v):
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
        v = v / chart(v)[0] ** (1 / degree)
        moved = np.inf
        for step in range(structure._GN_STEPS + 1):
            Sv = S @ v
            value, grad = chart(v)
            r = np.append(0.5 * (Sv @ v), value - 1)
            resid = np.linalg.norm(r[:-1]) / np.linalg.norm(v) ** 2
            ok = resid <= structure._GN_TOL and abs(r[-1]) <= structure._GN_TOL
            stalled = (moved < structure._STALL_STEP * np.abs(v).max()
                       and resid > structure._STALL_RESIDUAL)
            if ok or stalled or step == structure._GN_STEPS:
                break
            delta, *_ = np.linalg.lstsq(np.vstack([Sv, grad]), -r, rcond=None)
            v, moved = v + delta, np.abs(delta).max()
        yield v, resid, stalled, ok


@pytest.fixture(scope="module")
def pencils():
    """Realigned pencils of the twinned pairs of ``TWIN_CASES`` and of the
    two negative pairs, by name."""
    from conftest import fa_matrix, gaussian_pair, ising_unitary, zeta8
    from test_equivalence import TWIN_CASES, _twinned_pair
    from ybx.equivalence import _realigned_pencil_numeric

    twins = {f"{entry_id}#{seed}":
             _realigned_pencil_numeric(*_twinned_pair(entry_id, params, seed))
             for entry_id, params, seeds in TWIN_CASES for seed in seeds}
    R, S = gaussian_pair()
    ising = make_ybo(2, ising_unitary(), tol=1e-9)
    fa = make_ybo(2, fa_matrix(zeta8(), 1 / zeta8()), tol=1e-9)
    negatives = {"gaussian-pair": _realigned_pencil_numeric(YBObject(3, 1, R), YBObject(3, 1, S)),
                 "ising~case-a": _realigned_pencil_numeric(ising, fa)}
    return twins, negatives


def test_gauss_newton_blocks_converge_like_the_per_start_loop(pencils):
    # The batched step (QR or SVD) is lstsq's solution up to rounding, and on
    # the eight-vertex twin (det chart) rounding decides whether a start meets
    # the 1e-12 chart tolerance, so counts differ a little there.  A step
    # from the normal equations, which square the condition number, fails.
    from ybx.structure import _gauss_newton_starts

    for name, pencil in pencils[0].items():
        for det_chart in (True, False):
            want = sum(ok for *_, ok in _per_start_gauss_newton(pencil, 5, 64, det_chart))
            got = sum(ok for *_, ok in _gauss_newton_starts(pencil, 5, 64, det_chart))
            assert want > 0 and got >= 0.8 * want, (name, det_chart, got, want)


def test_gauss_newton_negative_pairs_converge_at_no_start(pencils):
    from ybx.structure import _gauss_newton_starts

    for name, pencil in pencils[1].items():
        for search in (_per_start_gauss_newton, _gauss_newton_starts):
            items = list(search(pencil, 5, 128, det_chart=True))
            assert len(items) == 128 and not any(ok for *_, ok in items), (name, search)


def test_gauss_newton_starts_draw_the_per_start_points(pencils, monkeypatch):
    import numpy as np

    from ybx import structure

    monkeypatch.setattr(structure, "_GN_STEPS", 0)
    for pencil in (pencils[0]["hietarinta:f#0"], pencils[1]["gaussian-pair"]):
        for det_chart in (True, False):
            want = np.array([v for v, *_ in _per_start_gauss_newton(pencil, 3, 20, det_chart)])
            got = np.array([v for v, *_ in
                            structure._gauss_newton_starts(pencil, 3, 20, det_chart)])
            assert got.shape == want.shape and np.all(abs(got - want) <= 1e-12 * abs(want))


def test_gauss_newton_starts_yield_in_order_and_lazily(pencils):
    from itertools import islice

    import numpy as np

    from ybx.structure import _gauss_newton_starts

    # On this twin (det chart) a quarter of the first 40 starts run all 50
    # steps, so starts leave their blocks at different steps; each still
    # ends where the per-start loop ends it.
    pencil = pencils[0]["hietarinta:a-glue#0"]
    want = list(_per_start_gauss_newton(pencil, 5, 40, det_chart=True))
    drained = list(_gauss_newton_starts(pencil, 5, 40, det_chart=True))
    assert len(drained) == 40 and len({ok for *_, ok in want}) == 2
    for (v, _, stall, ok), (w, _, stall_w, ok_w) in zip(drained, want):
        assert (stall, ok) == (stall_w, ok_w) and np.abs(v - w).max() <= 1e-9 * np.abs(w).max()
    for k in (1, 2, 3, 5, 11, 40):
        prefix = list(islice(_gauss_newton_starts(pencil, 5, 40, det_chart=True), k))
        assert len(prefix) == k
        for (v, *flags), (w, *flags_w) in zip(prefix, drained):
            assert np.array_equal(v, w) and flags == flags_w


def test_rank1_numeric_is_the_drained_generator_in_one_block(pencils):
    import numpy as np

    from ybx.structure import _gauss_newton, _gauss_newton_starts, _rank1_numeric

    # One lockstep block of every start ends each start where the blocks of
    # 1, 1, 2, 4, ... end it, bit for bit; so the rays, the number of
    # converged starts and the best residual are those of the drained blocks.
    for name, pencil in [*pencils[0].items(), *pencils[1].items()]:
        for det_chart in (True, False):
            draw, lockstep = _gauss_newton(pencil, 5, det_chart)
            one_block = list(lockstep(draw(64)))
            drained = list(_gauss_newton_starts(pencil, 5, 64, det_chart))
            assert len(one_block) == len(drained) == 64
            for (v, *flags), (w, *flags_w) in zip(one_block, drained):
                assert np.array_equal(v, w) and flags == flags_w, name
            result = _rank1_numeric(pencil, 5, 64, det_chart)
            assert result.converged == sum(ok for *_, ok in drained)
            assert result.stalled == sum(stall for _, _, stall, _ in drained)
            assert result.best_residual == min(resid for _, resid, *_ in drained)
            rays = [v / v[np.argmax(np.abs(v))] for v, *_, ok in drained if ok]
            for found in result.vectors:
                v = found.to_numpy()[:, 0]
                assert any(np.allclose(v / v[np.argmax(np.abs(v))], ray) for ray in rays)


def test_stalled_starts_leave_at_the_same_step_alone_and_in_a_block(pencils):
    import numpy as np

    from ybx import structure

    # On the 9x9 pair most starts stall within 50 steps.  Each leaves with the
    # same bits and flags stepped alone, and the block's live counts per step
    # are those the starts' lone exit steps give.
    pencil = pencils[1]["gaussian-pair"]
    live, lstsq_steps = [], structure._lstsq_steps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_lstsq_steps",
                   lambda J, r, cutoff: live.append(len(J)) or lstsq_steps(J, r, cutoff))
        draw, lockstep = structure._gauss_newton(pencil, 5, det_chart=True)
        X = draw(64)
        block, in_block, exits = list(lockstep(X)), live[:], []
        for k in range(64):
            live.clear()
            (v, *flags), = lockstep(X[k:k + 1])
            w, *flags_w = block[k]
            assert np.array_equal(v, w) and flags == flags_w, k
            exits.append(len(live))
    stalled = [k for k, (_, _, stall, _) in enumerate(block) if stall]
    assert len(stalled) >= 60 and max(exits[k] for k in stalled) < structure._GN_STEPS
    assert in_block == [sum(e > step for e in exits) for step in range(len(in_block))]


def _first_jacobians(basis, X, det_chart):
    """The Jacobians of lockstep(X)'s first step, in seed 5's chart."""
    from ybx import structure

    seen, lstsq_steps = [], structure._lstsq_steps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_GN_STEPS", 1)
        mp.setattr(structure, "_lstsq_steps",
                   lambda J, r, cutoff: seen.append(J.copy()) or lstsq_steps(J, r, cutoff))
        list(structure._gauss_newton(basis, 5, det_chart)[1](X))
    return seen[0]


def test_det_chart_cofactors_are_the_minor_determinants():
    import numpy as np

    from ybx.structure import _gauss_newton

    # The chart row of J holds Q's cofactors as Leibniz terms; the reference
    # is one LAPACK det per (N-1) x (N-1) minor, on random complex starts.
    # A start's cofactors are the same bits alone and in a block of 64.
    for N in (2, 3, 4):
        n = N * N
        rng = np.random.default_rng(N)
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        basis = [Matrix.from_numpy(B + B.T)]
        X = _gauss_newton(basis, 5, det_chart=True)[0](64)
        assert np.abs(np.linalg.det(X.reshape(64, N, N).transpose(0, 2, 1)) - 1).max() <= 1e-12
        minors = np.array([[[a + N * b for b in range(N) if b != j] for a in range(N) if a != i]
                           for j in range(N) for i in range(N)]).reshape(n, N - 1, N - 1)
        signs = np.array([(-1.0) ** (i + j) for j in range(N) for i in range(N)])
        for V in (X, rng.normal(size=(64, n)) + 1j * rng.normal(size=(64, n))):
            want = signs * np.linalg.det(V[:, minors])
            got = _first_jacobians(basis, V, True)[:, -1]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), N
            for k in range(64):
                assert np.array_equal(_first_jacobians(basis, V[k:k + 1], True)[0, -1], got[k])


def test_gauss_newton_jacobian_is_one_stacked_product(pencils):
    import numpy as np

    from ybx.structure import _gauss_newton

    # J's rows S v come from one stacked row product; a start's J is the same
    # bits alone (where a 2-D product would take numpy's gemv path) and in a
    # block of 64.
    for name in ("hietarinta:f#0", "gaussian-pair", "ising~case-a"):
        pencil = {**pencils[0], **pencils[1]}[name]
        S = _quadrics(pencil)
        for det_chart in (True, False):
            X = _gauss_newton(pencil, 5, det_chart)[0](64)
            J = _first_jacobians(pencil, X, det_chart)
            want = (S @ X[:, None, :, None])[..., 0]
            assert np.abs(J[:, :-1] - want).max() <= 1e-13 * np.abs(want).max(), name
            for k in range(64):
                alone = _first_jacobians(pencil, X[k:k + 1], det_chart)
                assert np.array_equal(alone[0], J[k]), (name, det_chart, k)


def _mixed_steps(m, n):
    """A stack of four m x n least-squares problems J_k x = r_k: well
    conditioned, a repeated column, a zero column (an exactly zero pivot of
    R), and R = [[e, 1], [0, e]] (+) I whose pivots pass lstsq's cutoff while
    |R|_F |R^-1|_F does not, with a singular value e^2 below it."""
    import numpy as np

    rng = np.random.default_rng(m + n)
    Q = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
    J = np.stack([rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)) for _ in range(3)]
                 + [Q[:, :n]])
    J[1, :, -1] = J[1, :, 0]
    J[2, :, 1] = 0
    J[3, :, 1] = J[3, :, 0] + 1e-8 * J[3, :, 1]
    J[3, :, 0] *= 1e-8
    r = rng.normal(size=(4, m)) + 1j * rng.normal(size=(4, m))
    return J, r, np.finfo(float).eps * max(m, n)


def test_lstsq_steps_are_lstsq_per_start_whatever_the_block(monkeypatch):
    import numpy as np

    from ybx.structure import _lstsq_steps

    for m, n in ((13, 4), (37, 9)):
        J, r, cutoff = _mixed_steps(m, n)
        block = _lstsq_steps(J, r, cutoff)
        for k in range(4):
            want = np.linalg.lstsq(J[k], r[k], rcond=None)[0]
            assert np.linalg.norm(block[k] - want) <= 1e-10 * np.linalg.norm(want), (n, k)
            assert np.array_equal(_lstsq_steps(J[k:k + 1], r[k:k + 1], cutoff)[0], block[k])
        if n == 4:  # narrow Jacobians keep the SVD step, bit for bit
            U, s, Vh = np.linalg.svd(J, full_matrices=False)
            s[s <= cutoff * s[:, :1]] = np.inf
            assert np.array_equal(block, ((r.conj()[:, None] @ U) / s[:, None] @ Vh).conj()[:, 0])
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda A, **kw: calls.append(len(A)) or svd(A, **kw))
    _lstsq_steps(J, r, cutoff)
    assert calls == [3]  # at width 9 only the well-conditioned start takes the QR route


def test_witness_rank1_negative_landscape_is_pinned():
    # Best residuals over the 128 det-chart starts of seed 5, each read at
    # the step where its start left: the 9x9 pair's best start stalls at a
    # stationary point at step 23 (0.39363888615877246 when every start ran
    # 50 steps); Ising against case-a stalls nowhere.
    from conftest import fa_matrix, gaussian_pair, ising_unitary, zeta8
    from ybx.equivalence import _witness_rank1

    R, S = gaussian_pair()
    ising = make_ybo(2, ising_unitary(), tol=1e-9)
    fa = make_ybo(2, fa_matrix(zeta8(), 1 / zeta8()), tol=1e-9)
    for (A, B), best, stalled in (((YBObject(3, 1, R), YBObject(3, 1, S)), 0.3936387313472472,
                                   range(120, 129)),
                                  ((ising, fa), 0.5743122065535193, range(1))):
        result = _witness_rank1(A, B, seed=5)
        assert (result.starts, result.converged, result.vectors) == (128, 0, [])
        assert abs(result.best_residual - best) <= 1e-12 * best
        assert result.stalled in stalled  # Ising against case-a drifts instead
