import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

from conftest import (
    dense_generator,
    dense_word,
    fa_matrix,
    integer_path_objects,
    ising_unitary,
    random_invertible,
    random_matrix,
    random_monomial,
    sampled_catalog_object,
    zeta8,
)
from test_spectral import keyed_jordan, sympy_jordan
from ybx import equivalence, spectral
from ybx.catalog import catalog_get, catalog_ids
from ybx.constructions import boxplus, phi_q
from ybx.core import YBObject, _table, is_charge_conserving, make_ybo
from ybx.equivalence import (
    _pair_action,
    flip_word_traces,
    local_distinguish,
    local_invariants,
    local_witness_search,
    match_stabilizer_check,
    p_equivalent,
    target_stabilizer,
    weighted_flip,
    x_symmetry_check,
)
from ybx.errors import SizeCeiling, UnfactoredSpectrum, UnsupportedRank, YbxError
from ybx.expressions import ParamBinding
from ybx.scalars import Backend, GaussianRational, zero
from ybx.spectral import char_poly, complexf_spectrum, jordan_structure, spectrum
from ybx.structure import _diagonal_rows, intertwiner_space
from ybx.tensor import Matrix, kernel, kron


def test_flip_word_traces_invariant_under_phi_q(rng):
    count = 0
    for seed in range(9):
        entry = ["hietarinta:slash", "hietarinta:a", "match2:F/"][seed % 3]
        obj = sampled_catalog_object(entry, 70 + seed)
        base = flip_word_traces(obj, 4)
        N = obj.N
        Q = random_invertible(rng, N)
        conj = phi_q(obj, Q)
        other = flip_word_traces(conj, 4)
        for word, value in base.items():
            assert other[word] == value
            count += 1
    # a rank-3 check as well
    for seed in range(2):
        rng2 = random.Random(seed)
        weights = [Fraction(rng2.randint(1, 9), rng2.randint(1, 9)) for _ in range(3)]
        obj = make_ybo(3, weighted_flip(3, weights))
        base = flip_word_traces(obj, 3)
        conj = phi_q(obj, random_invertible(rng, 3))
        other = flip_word_traces(conj, 3)
        for word, value in base.items():
            assert other[word] == value
            count += 1
    assert count >= 50


def test_p_equivalence_reflexive_and_monotone():
    obj = sampled_catalog_object("hietarinta:f", 80)
    cert = p_equivalent(obj, obj, 3)
    assert cert.verdict == "equivalent"
    assert set(cert.intertwiners) == {2, 3}
    cert2 = p_equivalent(obj, obj, 2)
    assert cert2.verdict == "equivalent"


def test_p_equivalence_symmetric():
    obj = sampled_catalog_object("match2:F/", 81)
    other = phi_q(obj, Matrix.from_rows([[1, 2], [1, 3]]))
    assert p_equivalent(obj, other, 3).verdict == "equivalent"
    assert p_equivalent(other, obj, 3).verdict == "equivalent"


def test_p_equivalence_exact_at_four_and_five_strands():
    """Exact solves reach slot dimension 32: rank 2 up to n = 5."""
    obj = catalog_get("hietarinta:a", ParamBinding.of(k=Fraction(2), p=Fraction(3), q=Fraction(5)))
    twin = phi_q(obj, Matrix.from_rows([[1, 2], [3, 4]]))
    cert = p_equivalent(obj, twin, 4)
    assert cert.verdict == "equivalent" and set(cert.intertwiners) == {2, 3, 4}
    for n, T in cert.intertwiners.items():
        for i in range(1, n):
            assert T.mul(dense_generator(twin, n, i)).eq(dense_generator(obj, n, i).mul(T))
    start = time.perf_counter()
    cert = p_equivalent(obj, obj, 5)
    elapsed = time.perf_counter() - start
    assert cert.verdict == "equivalent" and cert.dims == {2: 8, 3: 12, 4: 16, 5: 20}
    assert elapsed < 2.0    # about 0.15 s on one virtual CPU of an Intel Xeon host


def test_p_equivalence_rejects_size_mismatch():
    A = sampled_catalog_object("hietarinta:f", 82)
    B = make_ybo(3, Matrix.identity(9))
    cert = p_equivalent(A, B, 2)
    assert cert.verdict == "not_equivalent" and cert.failed_n == 1


def test_two_equivalence_is_similarity():
    # scaled objects are 2-inequivalent when the spectra disagree
    obj = sampled_catalog_object("hietarinta:a", 83)
    scaled = make_ybo(2, obj.R.scale(Fraction(2)))
    cert = p_equivalent(obj, scaled, 2)
    assert cert.verdict == "not_equivalent"


def test_ising_vs_fa_trace_separation():
    ising = make_ybo(2, ising_unitary(), tol=1e-9)
    fa = make_ybo(2, fa_matrix(zeta8(), 1 / zeta8()), tol=1e-9)
    cert2 = p_equivalent(ising, fa, 2)
    assert cert2.verdict == "equivalent"  # similar matrices
    cert3 = p_equivalent(ising, fa, 3)
    assert cert3.verdict == "not_equivalent"
    assert cert3.failed_n == 3
    assert "trace" in cert3.witness


def test_ds_outputs_infinity_equivalent():
    from ybx.constructions import ds_certificates_check

    obj = sampled_catalog_object("match2:F/", 84)
    Q = Matrix.diagonal([Fraction(3), Fraction(7)])
    assert ds_certificates_check(obj, Q, 4)


def test_local_distinguish_same_under_phi_q(rng):
    # a Q outside the targets' stabilizers changes the charge-conservation
    # flags, which are not invariants and must not distinguish
    Q = Matrix.from_rows([[1, 2], [3, 4]])
    assert not match_stabilizer_check(Q)
    flags_changed = 0
    for entry in catalog_ids():
        for seed in (3, 85):
            obj = sampled_catalog_object(entry, seed)
            assert obj.R.backend.is_exact
            for conj in (phi_q(obj, Q), phi_q(obj, random_invertible(rng, 2))):
                assert local_distinguish(obj, conj, L=4) == ("same", None)
                flags_changed += is_charge_conserving(obj.R, 2) != is_charge_conserving(conj.R, 2)
    assert flags_changed >= 8


def test_word_traces_need_a_word():
    obj = sampled_catalog_object("hietarinta:eight-vertex", 7)
    for L in (0, -3):
        with pytest.raises(YbxError, match="L must be at least 1"):
            local_invariants(obj, L)
        with pytest.raises(YbxError, match="L must be at least 1"):
            local_distinguish(obj, obj, L=L)


def _separate_invariants(obj):
    # the spectrum and the Jordan data as separate spectral calls give them, None where
    # the Jordan call raises, and the clustered complex spectrum where the exact one does
    try:
        spec = spectrum(obj.R)
    except UnfactoredSpectrum:
        spec = complexf_spectrum(obj.R.promote_to(Backend.COMPLEX_F))
    try:
        jordan = jordan_structure(obj.R)
    except UnfactoredSpectrum:
        jordan = None
    return spec, jordan


@pytest.mark.parametrize("seed", [100, 101])
def test_local_invariants_factor_each_spectrum_once(seed, monkeypatch):
    i = GaussianRational(0, 1)
    objects = [sampled_catalog_object(e, seed) for e in catalog_ids()]
    objects += [
        make_ybo(2, ising_unitary(), tol=1e-9),
        # x^3 - 2 has no rational factor: the exact spectrum raises
        YBObject(2, 1, Matrix.from_rows([[0, 0, 2, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])),
        # +-sqrt(2) twice with Gaussian entries: ranked over Q(i) by t^2 - 2
        YBObject(2, 1, Matrix.from_rows([[0, 2, i, 0], [1, 0, 0, i], [0, 0, 0, 2], [0, 0, 1, 0]])),
    ]
    calls = []

    def counted(M):
        calls.append(M)
        return char_poly(M)

    for obj in objects:
        spec, jordan = _separate_invariants(obj)
        monkeypatch.setattr(spectral, "char_poly", counted)
        calls.clear()
        report = local_invariants(obj)
        monkeypatch.undo()
        assert report.spectrum == spec and report.jordan == jordan
        assert len(calls) == (1 if obj.R.backend.is_exact else 0)
    unfactored, surds = (local_invariants(obj) for obj in objects[-2:])
    assert unfactored.jordan is None
    assert all(isinstance(z, complex) for z, _ in unfactored.spectrum)
    assert not any(isinstance(z, complex) for z, _ in surds.spectrum)
    assert [(str(v), blocks) for v, blocks in surds.jordan] == [("-1*sqrt(2)", [2]),
                                                                 ("sqrt(2)", [2])]
    assert keyed_jordan(surds.jordan) == sympy_jordan(objects[-1].R)


def test_local_distinguish_slash_vs_f():
    slash = sampled_catalog_object("hietarinta:slash", 90)
    f = sampled_catalog_object("hietarinta:f", 90)
    verdict, witness = local_distinguish(slash, f, L=4)
    assert verdict == "distinguished"


def test_local_distinguish_by_size():
    flip = catalog_get("perm:flip", ParamBinding({}))
    rank3 = make_ybo(3, weighted_flip(3, [Fraction(1)] * 3))
    assert local_distinguish(flip, rank3) == ("distinguished", "sizes 4 vs 9")


def test_local_distinguish_by_jordan_blocks():
    # equal spectra {4: 3, -4: 1}; the blocks at 4 are [3] against [1, 1, 1]
    glue2 = catalog_get("hietarinta:slash-glue-2", ParamBinding.of(k=4, q=1, p=1, s=2))
    glue3 = catalog_get("hietarinta:slash-glue-3", ParamBinding.of(k=2, p=1, q=1))
    ra, rb = local_invariants(glue2), local_invariants(glue3)
    assert sorted(ra.spectrum) == sorted(rb.spectrum) == [(-4, 1), (4, 3)]
    assert dict(ra.jordan)[4] == [3] and dict(rb.jordan)[4] == [1, 1, 1]
    assert local_distinguish(glue2, glue3) == ("distinguished", "jordan block structures differ")


def test_local_distinguish_pairs_jordan_data_by_eigenvalue_across_backends():
    # as strings "1" sorts before "1/2" but "(0.5+0j)" before "(1+0j)": the Jordan
    # data are paired by value, as the spectra are
    h = Fraction(1, 2)
    R = Matrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, h, 0], [0, 0, 0, 3]])
    exact, numeric = YBObject(2, 1, R), YBObject(2, 1, R.promote_to(Backend.COMPLEX_F))
    assert local_distinguish(exact, numeric) == local_distinguish(numeric, exact) == ("same", None)
    diagonal = YBObject(2, 1, Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, h, 0],
                                                [0, 0, 0, 3]]).promote_to(Backend.COMPLEX_F))
    for other in (exact, numeric):
        assert local_distinguish(other, diagonal) == (
            "distinguished", "jordan block structures differ")


def test_local_distinguish_by_a_flip_word_trace():
    # [3] (+) [5] at mu = 2 and at mu = -2: the spectra agree, the trace of RP does not
    a = make_ybo(1, Matrix.from_rows([[3]]))
    b = make_ybo(1, Matrix.from_rows([[5]]))
    plus, minus = boxplus(a, b, 2), boxplus(a, b, -2)
    assert sorted(local_invariants(plus).spectrum) == sorted(local_invariants(minus).spectrum)
    assert local_distinguish(plus, minus) == ("distinguished", "trace of flip word RP differs")


def test_p_equivalence_with_only_singular_samples_is_inconclusive():
    # a 7-dimensional Hom between commutants of dimension 6 and 10 holds no invertible element
    glue1 = catalog_get("hietarinta:slash-glue-1", ParamBinding({}))
    flip = catalog_get("perm:flip", ParamBinding({}))
    assert [len(intertwiner_space(obj, obj)) for obj in (glue1, flip)] == [6, 10]
    for A, B in ((glue1, flip), (flip, glue1)):
        cert = p_equivalent(A, B, 3)
        assert (cert.verdict, cert.failed_n, cert.dims) == ("inconclusive_singular", 2, {2: 7})


def test_flip_words_over_the_ceiling_are_refused_before_any_is_built(monkeypatch):
    import ybx.equivalence as equivalence

    slash = sampled_catalog_object("hietarinta:slash", 90)
    f = sampled_catalog_object("hietarinta:f", 90)
    assert len(flip_word_traces(slash, 12)) == 2 ** 13 - 2
    monkeypatch.setattr(equivalence, "product", lambda *args, **kw: pytest.fail("word built"))
    for L in (14, 40, 10 ** 9):
        with pytest.raises(SizeCeiling, match="ceiling"):
            local_distinguish(slash, f, L=L)


def test_local_witness_search_finds_phi_q_witness():
    obj = sampled_catalog_object("hietarinta:a", 91)
    Q0 = Matrix.from_rows([[2, 1], [1, 1]])
    other = phi_q(obj, Q0)
    Q = local_witness_search(obj, other, strategy="full")
    assert Q is not None
    QQ = kron(Q, Q)
    assert QQ.mul(obj.R).eq(other.R.mul(QQ))


def test_local_witness_search_monomial_strategy():
    # an antidiagonal conjugator is found by the permutation-times-diagonal
    # strategy
    obj = sampled_catalog_object("match2:F/", 93)
    Q0 = Matrix.from_rows([[0, 2], [3, 0]])
    other = phi_q(obj, Q0)
    Q = local_witness_search(obj, other, strategy="monomial")
    assert Q is not None
    QQ = kron(Q, Q)
    assert QQ.mul(obj.R).eq(other.R.mul(QQ))
    # the purely diagonal strategy cannot reach it unless the objects match
    assert local_witness_search(obj, other, strategy="diagonal") is None or         obj.R.eq(other.R)


def test_group_type_generators_are_endomorphisms(rng):
    # for a group-type object the g_i lie in End(N, R)
    from ybx.core import group_type_build
    from ybx.structure import end_verify
    from conftest import random_invertible

    g = random_invertible(rng, 3)
    obj = group_type_build([g, g, g], verify=True)
    assert end_verify(obj, g)
    assert end_verify(obj, g.mul(g))


def test_a_glue_k0_coincides_with_a_type():
    # at k = 0 and matched parameters the a-glue and a-type points coincide,
    # so the diagonal strategy finds the identity witness
    q = Fraction(3)
    aglue = catalog_get("hietarinta:a-glue", ParamBinding.of(p=4, q=q, k=0))
    atype = catalog_get("hietarinta:a",
                        ParamBinding.of(k=2, p=2, q=q / 2))
    assert aglue.R.eq(atype.R)
    Q = local_witness_search(aglue, atype, strategy="diagonal")
    assert Q is not None
    # generic a-type points with the same entry product are reached by the
    # diagonal (N^2 x N^2) X-symmetry instead
    X = Matrix.diagonal([Fraction(1), Fraction(2), Fraction(1), Fraction(1)])
    S = X.mul(aglue.R).mul(X.inverse())
    atype2 = catalog_get("hietarinta:a", ParamBinding.of(k=2, p=1, q=q))
    assert S.eq(atype2.R)


def test_local_witness_none_for_ising_vs_fa():
    ising = make_ybo(2, ising_unitary(), tol=1e-9)
    fa = make_ybo(2, fa_matrix(zeta8(), 1 / zeta8()), tol=1e-9)
    assert local_witness_search(ising, fa, strategy="full", seed=3) is None


def test_local_witness_numeric_positive_control():
    # the numeric search must find witnesses when they exist, on the complex
    # backend, at both ranks; this is what gives weight to its negatives
    import numpy as np

    ising = make_ybo(2, ising_unitary(), tol=1e-9)
    rng = np.random.default_rng(11)
    Q0 = Matrix.from_numpy(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    other = phi_q(ising, Q0, tol=1e-9)
    Q = local_witness_search(ising, other, strategy="full", seed=0)
    assert Q is not None
    QQ = kron(Q, Q)
    assert QQ.mul(ising.R).max_abs_diff(other.R.mul(QQ)) < 1e-8


def test_local_witness_gaussian_pair_negative_with_control():
    from conftest import gaussian_pair
    from ybx.core import YBObject
    import numpy as np

    R, S = gaussian_pair()
    objR = YBObject(3, 1, R)
    objS = YBObject(3, 1, S)
    rng = np.random.default_rng(12)
    Q0 = Matrix.from_numpy(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    twin = phi_q(objR, Q0, tol=1e-9)
    found = local_witness_search(objR, twin, strategy="full", seed=5)
    assert found is not None  # positive control at the same size
    assert local_witness_search(objR, objS, strategy="full", seed=5) is None


TWIN_VALUES = (Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(-3, 2),
               Fraction(2, 3), Fraction(3, 4), Fraction(5, 4))


def _twinned_pair(entry_id, params, seed):
    """(A, (Q (x) Q) A (Q (x) Q)^-1) with A the family at a binding drawn from
    TWIN_VALUES and Q a complex Gaussian matrix of condition number below 10."""
    import numpy as np

    from ybx.errors import YbxError
    from ybx.scalars import Backend

    rng = random.Random(seed)
    while True:
        try:
            obj = catalog_get(entry_id, ParamBinding(
                {name: rng.choice(TWIN_VALUES) for name in params}))
            break
        except YbxError:
            continue
    while True:
        Q = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
                      for _ in range(2)])
        if np.linalg.cond(Q) < 10:
            break
    A = make_ybo(2, obj.R.promote_to(Backend.COMPLEX_F), tol=1e-9)
    return A, phi_q(A, Matrix.from_numpy(Q), tol=1e-9)


def _assert_witness(A, B, Q):
    import numpy as np

    assert Q is not None
    s = np.linalg.svd(Q.to_numpy(), compute_uv=False)
    assert s[-1] > 1e-9 * s[0]
    QQ = kron(Q, Q)
    lhs, rhs = QQ.mul(A.R), B.R.mul(QQ)
    assert lhs.max_abs_diff(rhs) <= 1e-9 * max(1.0, lhs.inf_norm(), rhs.inf_norm())


# Seeds 0-3 of each family, and f seed 26: the alternating-projection
# search this solver replaced missed a-glue seeds 0 and 3, eight-vertex
# seed 3 and f seed 26.
TWIN_CASES = [
    ("hietarinta:f", "kpq", (0, 1, 2, 3, 26)), ("hietarinta:a-glue", "pqk", range(4)),
    ("hietarinta:eight-vertex", "pq", range(4)), ("hietarinta:slash", "kqps", range(4)),
    ("hietarinta:slash-glue-2", "kqps", range(4)), ("grouptype:single-g", "abd", range(4))]


@pytest.mark.parametrize("entry_id, params, seeds", TWIN_CASES,
                         ids=[case[0] for case in TWIN_CASES])
def test_local_witness_found_for_twinned_pairs(entry_id, params, seeds):
    for seed in seeds:
        A, B = _twinned_pair(entry_id, params, seed)
        _assert_witness(A, B, local_witness_search(A, B, strategy="full", seed=5))


def test_local_witness_found_for_twinned_gaussian_pairs():
    # default_rng(2) and (3) are twins the alternating-projection search missed
    from conftest import gaussian_pair
    from ybx.core import YBObject
    import numpy as np

    objR = YBObject(3, 1, gaussian_pair()[0])
    for s in (2, 3):
        rng = np.random.default_rng(s)
        Q0 = Matrix.from_numpy(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        twin = phi_q(objR, Q0, tol=1e-9)
        _assert_witness(objR, twin, local_witness_search(objR, twin, strategy="full", seed=5))


def test_witness_search_diagnostics_separate_negatives_from_controls():
    # No Gauss-Newton start reaches the det Q = 1 chart for the two negative
    # pairs, while the twinned controls at the same sizes converge.  For the
    # 9x9 pair no start converges in a linear chart either, which admits
    # singular Q too.
    from conftest import gaussian_pair
    from ybx.core import YBObject
    from ybx.equivalence import _realigned_pencil_numeric, _witness_rank1
    from ybx.structure import _rank1_numeric
    import numpy as np

    R, S = gaussian_pair()
    objR, objS = YBObject(3, 1, R), YBObject(3, 1, S)
    ising = make_ybo(2, ising_unitary(), tol=1e-9)
    fa = make_ybo(2, fa_matrix(zeta8(), 1 / zeta8()), tol=1e-9)
    for A, B in ((objR, objS), (ising, fa)):
        result = _witness_rank1(A, B, seed=5)
        assert result.starts == 128
        assert result.converged == 0 and not result.vectors
        assert result.best_residual > 1e-3
    linear = _rank1_numeric(_realigned_pencil_numeric(objR, objS), 5, 128)
    assert linear.converged == 0 and linear.best_residual > 1e-3
    controls = []
    for obj, n, s in ((objR, 3, 12), (ising, 2, 11)):
        rng = np.random.default_rng(s)
        Q0 = Matrix.from_numpy(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        controls.append((obj, phi_q(obj, Q0, tol=1e-9)))
    for A, B in controls:
        result = _witness_rank1(A, B, seed=5)
        assert result.starts == 128 and result.converged > 0 and result.vectors
        assert result.best_residual <= 1e-12


def test_stall_exit_drops_no_converging_start(monkeypatch):
    # A stalled start leaves unconverged, so the exit can only remove starts.
    # Over every twinned pair, with the exit and without it, the same starts
    # converge and the search returns the same Q, bit for bit.
    from conftest import gaussian_pair
    from ybx import structure
    from ybx.core import YBObject
    from ybx.equivalence import _witness_rank1
    import numpy as np

    objR = YBObject(3, 1, gaussian_pair()[0])
    pairs = [_twinned_pair(entry_id, params, seed)
             for entry_id, params, seeds in TWIN_CASES for seed in seeds]
    for s in (2, 3, 12):
        rng = np.random.default_rng(s)
        Q0 = Matrix.from_numpy(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        pairs.append((objR, phi_q(objR, Q0, tol=1e-9)))

    def run():
        return [(_witness_rank1(A, B, seed=5).converged,
                 local_witness_search(A, B, strategy="full", seed=5).to_numpy())
                for A, B in pairs]

    with_exit = run()
    monkeypatch.setattr(structure, "_STALL_STEP", 0.0)
    for (converged, Q), (want, Q_want) in zip(with_exit, run()):
        assert converged == want > 0 and np.array_equal(Q, Q_want)


def test_numeric_witness_search_refuses_past_the_ceiling(monkeypatch):
    from ybx import equivalence
    from ybx.errors import SizeCeiling
    from ybx.tensor import flip_matrix

    # N = 6: 36 > 32 unknowns per slot pair; refused before the pencil's SVD
    flip = YBObject(6, 1, flip_matrix(6, 2).promote_to(Backend.COMPLEX_F))
    monkeypatch.setattr(equivalence, "intertwiner_space_numeric",
                        lambda *args: pytest.fail("the pencil was built"))
    with pytest.raises(SizeCeiling):
        local_witness_search(flip, flip, strategy="full")
    with pytest.raises(SizeCeiling):
        equivalence._witness_rank1(flip, flip, seed=0)


def _preserves_target(Q, additive):
    # V is spanned by its unit matrices E_rc, so conjugation by Q (x) Q keeps V
    # exactly when it keeps each E_rc in V: read off entrywise, word by word
    N = Q.rows
    charge = [(sum if additive else sorted)((k % N, k // N)) for k in range(N * N)]
    QQ = kron(Q, Q)
    QQ_inv = QQ.inverse()
    for r, c in product(range(N * N), repeat=2):
        if charge[r] == charge[c]:
            E = Matrix.zeros(N * N, N * N)
            E.data[r][c] = Fraction(1)
            conj = QQ.mul(E).mul(QQ_inv)
            if any(conj.data[s][t] for s, t in product(range(N * N), repeat=2)
                   if charge[s] != charge[t]):
                return False
    return True


def _unipotent(N):
    U = Matrix.identity(N)
    U.data[0][1] = Fraction(1)
    return U


def test_match_stabilizer_preservation(rng):
    # T x| S_N for Match: every monomial P D; for additive Match D times the
    # identity or the reversal only
    for N in (2, 3):
        for _ in range(25):
            assert match_stabilizer_check(random_monomial(rng, N))
        reversal = Matrix.permutation(list(reversed(range(N))))
        D = Matrix.diagonal([Fraction(k + 2) for k in range(N)])
        for Q in (Matrix.identity(N), reversal, D, D.mul(reversal), reversal.mul(D)):
            assert match_stabilizer_check(Q) and match_stabilizer_check(Q, additive=True)
    cycle = Matrix.permutation([1, 2, 0])
    assert match_stabilizer_check(cycle) and not match_stabilizer_check(cycle, additive=True)


def test_match_stabilizer_non_monomial_breaks(rng):
    for N in (2, 3):
        for Q in (_unipotent(N), random_invertible(rng, N)):
            assert not match_stabilizer_check(Q)
            assert not match_stabilizer_check(Q, additive=True)


def test_match_stabilizer_refutation():
    # the witness that a non-monomial Q leaves the target: the unipotent
    # conjugate of a flip with distinct diagonal weights is not charge-conserving
    for N in (2, 3):
        S = weighted_flip(N, [Fraction(k + 2) for k in range(N)])
        UU = kron(_unipotent(N), _unipotent(N))
        assert is_charge_conserving(S, N)
        assert not is_charge_conserving(UU.inverse().mul(S).mul(UU), N)


def test_matcha_stabilizer():
    for N in range(1, 6):
        for additive in (False, True):
            lie, perms = target_stabilizer(N, additive)
            units = [Matrix.diagonal([Fraction(int(k == a)) for k in range(N)]) for a in range(N)]
            assert len(lie) == N and all(X.eq(E) for X, E in zip(lie, units))
            expected = ([tuple(range(N)), tuple(reversed(range(N)))] if additive
                        else list(permutations(range(N))))
            assert perms == sorted(set(expected))
            # the permutation matrices that the unit-matrix oracle keeps in the target
            assert perms == [p for p in permutations(range(N))
                             if _preserves_target(Matrix.permutation(p), additive)]
    for additive in (False, True):
        with pytest.raises(UnsupportedRank):
            target_stabilizer(7, additive)


def test_pair_action_is_x_tensor_one_plus_one_tensor_x(rng):
    for N in (1, 2, 3):
        X = random_matrix(rng, N, N)
        x = [X.data[k % N][k // N] for k in range(N * N)]
        D = Matrix.zeros(N * N, N * N)
        for (r, c), form in _pair_action(N).items():
            D.data[r][c] = sum(coeff * x[u] for u, coeff in form.items())
        assert D.eq(kron(X, Matrix.identity(N)).add(kron(Matrix.identity(N), X)))


def test_stabilizer_check_agrees_with_unit_conjugation_oracle(rng):
    seen = set()
    for N in (2, 3):
        shift = Matrix.permutation([(k + 1) % N for k in range(N)])
        candidates = [random_monomial(rng, N), Matrix.permutation(list(reversed(range(N)))),
                      shift, _unipotent(N), random_invertible(rng, N)]
        for Q in candidates:
            for additive in (False, True):
                verdict = match_stabilizer_check(Q, additive)
                assert verdict == _preserves_target(Q, additive)
                seen.add((N, additive, verdict))
    # each target and rank has members and non-members among the candidates
    assert len(seen) == 8


def test_x_symmetry_n2_formula(rng):
    for seed in range(3):
        obj = sampled_catalog_object("match2:F/", 95 + seed)
        X = Matrix.diagonal([Fraction(rng.randint(1, 9), rng.randint(1, 9))
                             for _ in range(4)])
        report = x_symmetry_check(obj, X, 6)
        assert report.ok and report.method == "closed-form"
        assert set(report.per_n) == {2, 3, 4, 5, 6}


def test_x_symmetry_identity_X():
    obj = sampled_catalog_object("hietarinta:a", 99)
    report = x_symmetry_check(obj, Matrix.identity(4), 4)
    assert report.ok


def test_x_symmetry_needs_a_braid_group_to_check():
    # n = 2 is the first braid group: a smaller n_max would check nothing
    obj = sampled_catalog_object("match2:F/", 95)
    X = Matrix.diagonal([Fraction(k + 2) for k in range(4)])
    assert x_symmetry_check(obj, X, 2).per_n.keys() == {2}
    for n_max in (1, 0, -2):
        with pytest.raises(YbxError, match="n_max must be at least 2"):
            x_symmetry_check(obj, X, n_max)


def _kernel_certificate(S, obj, n):
    """The diagonal intertwiner from the kernel of the diagonal rows, each
    basis vector (one per linked set of words) scaled to 1 at its first word."""
    N, backend = obj.N, obj.backend
    d = [zero(backend)] * N ** n
    for vec in kernel(_diagonal_rows(_table(S.R), _table(obj.R), N, n), N ** n, backend):
        support = [i for i, v in enumerate(vec) if v]
        for i in support:
            d[i] += vec[i] / vec[support[0]]
    return d


def test_x_symmetry_n3_closed_form_is_the_kernel(rng):
    for seed in range(3):
        rng2 = random.Random(seed)
        weights = [Fraction(rng2.randint(1, 9), rng2.randint(1, 9)) for _ in range(3)]
        obj = make_ybo(3, weighted_flip(3, weights))
        X = Matrix.diagonal([Fraction(rng2.randint(1, 9), rng2.randint(1, 9))
                             for _ in range(9)])
        report = x_symmetry_check(obj, X, 4)
        assert report.ok and report.method == "closed-form"
        S = make_ybo(3, X.mul(obj.R).mul(X.inverse()))
        for n, d in report.certificates.items():
            assert d == _kernel_certificate(S, obj, n)


def test_x_symmetry_complex_f_matches_exact():
    # a complex-f X at N = 3: the closed form holds on floats, up to rounding
    obj = make_ybo(3, weighted_flip(3, [Fraction(2), Fraction(3), Fraction(5)]))
    X = Matrix.diagonal([Fraction(k + 1) for k in range(9)])
    exact = x_symmetry_check(obj, X, 4)
    complex_obj = make_ybo(3, obj.R.promote_to(Backend.COMPLEX_F))
    report = x_symmetry_check(complex_obj, X.promote_to(Backend.COMPLEX_F), 4)
    assert exact.ok and report.ok and report.method == "closed-form"
    for n, d in report.certificates.items():
        assert max(abs(a - complex(b)) for a, b in zip(d, exact.certificates[n])) < 1e-12
    # a complex-f X on an exact R: S and the rows are on complex-f, R promoted
    Xc = Matrix.diagonal([complex(k + 2) for k in range(4)])
    for entry, seed in (("match2:F/", 95), ("hietarinta:a", 99)):
        rational = sampled_catalog_object(entry, seed)
        gaussian = phi_q(rational, Matrix.from_rows([[GaussianRational(1, 1), 0], [0, 2]]))
        for target in (rational, gaussian):
            assert target.backend.is_exact
            assert x_symmetry_check(target, Xc, 4).ok


def test_x_symmetry_past_the_size_ceiling_is_refused_before_any_row(monkeypatch):
    obj = sampled_catalog_object("match2:F/", 95)
    X = Matrix.diagonal([Fraction(k + 2) for k in range(4)])

    def no_rows(*args):
        raise AssertionError("rows built past the ceiling")

    monkeypatch.setattr(equivalence, "_diagonal_rows", no_rows)
    for n_max, shown in ((11, "2048"), (10 ** 9, r"2\^1000000000")):
        message = f"on {n_max} strands: dimension {shown} exceeds the ceiling 1024"
        with pytest.raises(SizeCeiling, match=message):
            x_symmetry_check(obj, X, n_max)


def test_exact_witness_search_across_exact_backends():
    # an exact-q object against its twin under a Gaussian diagonal Q: the
    # witness has Gaussian entries, so every strategy must search over Q(i)
    from ybx.scalars import GaussianRational

    obj = sampled_catalog_object("hietarinta:eight-vertex", 100)
    twin = phi_q(obj, Matrix.from_rows([[GaussianRational(1, 1), 0], [0, 2]]))
    for strategy in ("diagonal", "monomial", "full"):
        Q = local_witness_search(obj, twin, strategy=strategy)
        assert Q is not None and Q.is_invertible()
        assert kron(Q, Q).mul(obj.R).eq(twin.R.mul(kron(Q, Q)))


# -- word traces ------------------------------------------------------------------


def _rows_trace(obj, n, word):
    """Oracle: the trace of the word's rows multiplied out from the identity."""
    from ybx.core import _word_rows
    from ybx.scalars import zero

    z = zero(obj.backend)
    return sum((row.get(k, z) for k, row in enumerate(_word_rows(obj, n, word))), z)


def _shared_prefix_traces(obj, n, max_len):
    from ybx.equivalence import _cyclic_key, _word_traces

    letters = [e for i in range(1, n) for e in (i, -i)]
    words = [word for length in range(1, max_len + 1) for word in product(letters, repeat=length)
             if all(a != -b for a, b in zip(word, word[1:]))]
    plan = [(word, _cyclic_key(word), None, None) for word in words]   # every key multiplied out
    return words, list(_word_traces(obj._letters, plan, obj.backend, obj.slot_dim ** n, {}))


def test_word_traces_match_word_rows_products_exact():
    # length 4 holds words with one multiset of letters in distinct cyclic
    # classes, such as (1, 1, 2, 2) and (1, 2, 1, 2)
    from ybx.catalog import catalog_ids, sample_entry_binding
    from ybx.equivalence import _cyclic_key

    for entry_id in catalog_ids():
        obj = catalog_get(entry_id, sample_entry_binding(entry_id, 3))
        assert obj.backend.is_exact
        for n, max_len, classes in ((2, 3, 6), (3, 3, 24), (3, 4, 50)):
            words, traces = _shared_prefix_traces(obj, n, max_len)
            assert [word for word, _ in traces] == words
            assert len({_cyclic_key(word) for word in words}) == classes
            for word, trace in traces:
                assert trace == _rows_trace(obj, n, word), (entry_id, word)


def test_word_traces_match_word_rows_products_complex_twin():
    for entry_id, params, _ in TWIN_CASES:
        for obj in _twinned_pair(entry_id, params, 0):
            for n in (2, 3):
                for word, trace in _shared_prefix_traces(obj, n, 3)[1]:
                    expected = _rows_trace(obj, n, word)
                    assert abs(trace - expected) <= 1e-9 * max(1.0, abs(expected)), word


def _planned_traces(obj, p):
    """n -> [(word, trace)] for n <= p as p_equivalent reads them: each n's
    plan, given the traces of n - 1."""
    from ybx.equivalence import _trace_plan, _word_traces

    out, traces = {}, {}
    for n in range(2, p + 1):
        below, traces = traces, {}
        out[n] = list(_word_traces(obj._letters, _trace_plan(n), obj.backend, obj.slot_dim ** n,
                                   traces, (obj.slot_dim, below)))
    return out


def test_trace_plan_multiplies_out_one_key_per_half_twist_orbit():
    from ybx.equivalence import _trace_plan

    for n, multiplied, classes in ((2, 6, 6), (3, 7, 24), (4, 15, 70), (5, 23, 160)):
        plan = _trace_plan(n)
        first = {}
        for word, key, count, source in plan:
            first.setdefault(key, source)
            assert count == len(first)
        assert len(first) == classes
        assert sum(source is None for source in first.values()) == multiplied


def test_trace_plan_reads_match_word_rows_products():
    for entry_id in catalog_ids():
        for seed in (3, 8):
            obj = sampled_catalog_object(entry_id, seed)
            for n, traces in _planned_traces(obj, 5).items():
                for word, trace in traces:
                    assert trace == _rows_trace(obj, n, word), (entry_id, seed, n, word)
    for entry_id, params, _ in TWIN_CASES:
        for obj in _twinned_pair(entry_id, params, 0):
            for n, traces in _planned_traces(obj, 3).items():
                for word, trace in traces:
                    expected = _rows_trace(obj, n, word)
                    assert abs(trace - expected) <= 1e-9 * max(1.0, abs(expected)), (n, word)


def test_flip_word_traces_match_dense_products():
    from itertools import product

    from ybx.catalog import catalog_ids, sample_entry_binding
    from ybx.tensor import swap_matrix

    for entry_id in catalog_ids():
        obj = catalog_get(entry_id, sample_entry_binding(entry_id, 3))
        letters = {"R": obj.R, "P": swap_matrix(obj.slot_dim, obj.slot_dim, obj.backend)}
        expected = {}
        for length in range(1, 5):
            for word in product("RP", repeat=length):
                M = letters[word[0]]
                for letter in word[1:]:
                    M = M.mul(letters[letter])
                expected["".join(word)] = M.trace()
        traces = flip_word_traces(obj, 4)
        assert list(traces) == list(expected) and len(traces) == 30
        assert traces == expected, entry_id


@pytest.mark.parametrize("label,obj", integer_path_objects(),
                         ids=[label for label, _ in integer_path_objects()])
def test_word_traces_match_dense_products_on_each_backend(label, obj):
    from itertools import product

    from ybx.tensor import swap_matrix

    def same(got, want):
        if label == "complex-f":
            return abs(got - want) <= 1e-9 * max(1.0, abs(want))
        return repr(got) == repr(want)

    letters = {"R": obj.R, "P": swap_matrix(obj.slot_dim, obj.slot_dim, obj.backend)}
    for word, trace in flip_word_traces(obj, 4).items():
        M = letters[word[0]]
        for letter in word[1:]:
            M = M.mul(letters[letter])
        assert same(trace, M.trace()), word
    for n in (2, 3):
        for word, trace in _shared_prefix_traces(obj, n, 3)[1]:
            assert same(trace, dense_word(obj, n, word).trace()), (n, word)


# Negative verdicts as the per-word traces gave them: the first differing
# word, its traces and failed_n must not move.
NEGATIVE_VERDICTS = [
    ("hietarinta:slash-ds", "hietarinta:slash-glue-2", 3, 2,
     "trace of word [1, 1] differs (14/75 vs 36/25)", {2: [3, 3]}),
    ("hietarinta:a-glue", "match2:F/", 8, 2,
     "trace of word [-1] differs (4 vs -4)", {2: [2, 2]}),
]


@pytest.mark.parametrize("a_id, b_id, seed, failed_n, witness, traces", NEGATIVE_VERDICTS,
                         ids=[f"{case[0]}~{case[1]}" for case in NEGATIVE_VERDICTS])
def test_p_equivalence_negative_verdicts_pinned(a_id, b_id, seed, failed_n, witness, traces):
    cert = p_equivalent(sampled_catalog_object(a_id, seed), sampled_catalog_object(b_id, seed), 3)
    assert (cert.verdict, cert.failed_n, cert.witness) == ("not_equivalent", failed_n, witness)
    assert cert.traces == traces


def test_ising_vs_fa_negative_verdict_pinned():
    ising = make_ybo(2, ising_unitary(), tol=1e-9)
    fa = make_ybo(2, fa_matrix(zeta8(), 1 / zeta8()), tol=1e-9)
    cert = p_equivalent(ising, fa, 3)
    assert (cert.verdict, cert.failed_n) == ("not_equivalent", 3)
    assert cert.witness == ("trace of word [1, 2] differs ((4.000000000000001+0j) vs "
                            "(1.9999999999999998+6.661338147750939e-16j))")
    assert cert.traces == {2: [6, 6], 3: [6, 6]}


def test_p_equivalence_reports_words_compared_and_traces_computed():
    obj = sampled_catalog_object("hietarinta:a", 3)
    twin = phi_q(obj, Matrix.from_rows([[1, 2], [3, 4]]))
    cert = p_equivalent(obj, twin, 3)
    assert cert.verdict == "equivalent"
    assert cert.traces == {2: [6, 6], 3: [52, 24]}
