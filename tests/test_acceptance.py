"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here: exact backends compare entrywise with no
tolerance at all; the complex-float backend uses 1e-9.
"""

import json
import pathlib
import random
import time
from fractions import Fraction
from math import factorial

from conftest import fa_matrix, gaussian_pair, ising_exact, random_monomial, zeta8
from ybx.braid import BraidWord
from ybx.catalog import (
    catalog_get,
    catalog_ids,
    enumerate_permutation_solutions,
    involutive_class_count,
    jordan_template_matches,
    permutation_to_ybo,
    sample_entry_binding,
)
from ybx.constructions import cable, ds_certificates_check, ds_transform, is_automorphism
from ybx.core import YBObject, is_charge_conserving, is_unitary, is_ybe, make_ybo, rho
from ybx.equivalence import (
    local_distinguish,
    local_invariants,
    match_stabilizer_check,
    p_equivalent,
    target_stabilizer,
    weighted_flip,
    x_symmetry_check,
)
from ybx.expressions import ParamBinding
from ybx.spectral import eig_to_complex, spectrum
from ybx.structure import end_verify, extract_from_endo, duality_verify
from ybx.tensor import Matrix, kron, pseudo_inverse

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
TOL = 1e-9


def ff_object(x):
    return make_ybo(2, Matrix.from_rows([
        [1, 0, 0, 0],
        [0, 1 + x, -x, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1]]))


def printed_cable_16(x):
    y = x + 1
    return Matrix.from_rows([
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, y, -x * y, 0, x ** 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, y, -x * y, 0, 0, 0, 0, 0, x ** 2, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, y ** 2 * (1 - x), 0, -x * y, x ** 2 * y, 0, 0,
         x ** 2 * y, -x ** 3 * y, 0, x ** 4, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, y, 0, -x, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, y, 0, 0, 0, 0, 0, -x, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, y, 0, 0, 0, -x * y, 0, x ** 2, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, y, 0, 0, -x, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, y, 0, 0, 0, 0, 0, 0, -x, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, y, 0, 0, 0, -x * y, 0, 0, x ** 2, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]])


def printed_S9(x):
    y = x + 1
    return Matrix.from_rows([
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, y * (1 - x), 0, x ** 2, 0, 0, 0, 0, 0],
        [0, 0, -y ** 2 * (x - 1), 0, -x * y * (x - 1) ** 2, 0, x ** 4, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, y, 0, -x, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, y * (1 - x), 0, x ** 2, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1]])


def test_criterion_01_catalog_ybe():
    start = time.time()
    ids = catalog_ids()
    assert len(ids) == 14
    for entry_id in ids:
        for seed in range(5):
            binding = sample_entry_binding(entry_id, seed)
            obj = catalog_get(entry_id, binding)
            report = is_ybe(obj)
            assert report.holds and report.residual == 0, entry_id
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nACCEPT 01 catalog YBE: PASS (14 entries x 5 bindings, residual 0, {elapsed:.2f}s)")


def test_criterion_02_cable_reproduction():
    start = time.time()
    x = Fraction(2)
    out = cable(ff_object(x), 2)
    assert out.R.eq(printed_cable_16(x))  # exact, y = 3 substituted
    mults = {eig_to_complex(v): m for v, m in spectrum(out.R)}
    assert mults == {complex(1): 5, complex(-4): 3, complex(-2): 4,
                     complex(-8): 1, complex(2): 3}
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPT 02 cable reproduction: PASS (entrywise + spectrum, {elapsed:.2f}s)")


def test_criterion_03_subobject_pipeline():
    start = time.time()
    for xv in (2, 3, -2):
        x = Fraction(xv)
        obj = cable(ff_object(x), 2)
        A = Matrix.from_rows([
            [1, 0, 0, 0],
            [0, 1 / (1 - x), x / (x - 1), 0],
            [0, 1 / (1 - x), x / (x - 1), 0],
            [0, 0, 0, 1]])
        assert end_verify(obj, A)
        sub, quot = extract_from_endo(obj, A)
        Q_printed = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]])
        Qp_printed = Matrix.from_rows([
            [1, 0, 0, 0],
            [0, Fraction(1, 2), Fraction(1, 2), 0],
            [0, 0, 0, 1]])
        assert sub.Q.eq(Q_printed)
        assert pseudo_inverse(sub.Q).eq(Qp_printed)
        assert sub.S.eq(printed_S9(x))
        assert sub.Q.mul(quot.P).eq(A)
        P_printed = Matrix.from_rows([
            [1, 0, 0, 0],
            [0, 1 / (1 - x), -x / (1 - x), 0],
            [0, 0, 0, 1]])
        assert quot.P.eq(P_printed)
        B = Matrix.from_rows([
            [1, 0, 0, 0],
            [0, x / (x - 1), -x / (x - 1), 0],
            [0, 1 / (x - 1), -1 / (x - 1), 0],
            [0, 0, 0, 0]])
        sub2, quot2 = extract_from_endo(obj, B)
        T_printed = Matrix.from_rows([
            [1, 0, 0, 0],
            [0, 0, x * x, 0],
            [0, 1, 0, 0],
            [0, 0, 0, -x]])
        assert sub2.S.eq(T_printed)
        assert sub2.Q.mul(quot2.P).eq(B)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPT 03 subobject pipeline: PASS (x in {{2, 3, -2}}, {elapsed:.2f}s)")


def test_criterion_04_trace_separation():
    # The associated values follow the display order of the paper's pair
    # (case-a matrix, Ising): rho_3(s1 s2^-1) has trace 6 on the case-a
    # solution at the eighth root of unity and 4 on the Ising solution;
    # the Ising value is exact over the integers because the word has
    # writhe zero, so the sqrt(2) normalization cancels.
    word = BraidWord.of(3, [1, -2])
    ising = make_ybo(2, ising_exact())
    t_ising = rho(ising, word).trace()
    assert t_ising == 4  # exact integer
    fa = make_ybo(2, fa_matrix(zeta8(), 1 / zeta8()), tol=TOL)
    t_fa = rho(fa, word).trace()
    assert abs(t_fa - 6) < TOL
    from ybx.scalars import Backend

    ising_c = make_ybo(2, ising_exact().promote_to(Backend.COMPLEX_F).scale(
        complex(2 ** -0.5)), tol=TOL)
    cert = p_equivalent(ising_c, fa, 3)
    assert cert.verdict == "not_equivalent" and cert.failed_n == 3
    print("\nACCEPT 04 trace separation: PASS (Ising 4 exact, case-a 6 within 1e-9, "
          "not 3-equivalent)")


def test_criterion_05_jordan_cross_check():
    start = time.time()
    hietarinta = [i for i in catalog_ids() if i.startswith("hietarinta:")]
    assert len(hietarinta) == 10
    for entry_id in hietarinta:
        for seed in range(3):
            binding = sample_entry_binding(entry_id, 50 + seed)
            assert jordan_template_matches(entry_id, binding), entry_id
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nACCEPT 05 jordan cross-check: PASS (10 families x 3 bindings, {elapsed:.2f}s)")


def test_criterion_06_ds_theorem():
    k, c, p, q = Fraction(3), Fraction(4), Fraction(5), Fraction(2)
    slash = catalog_get("hietarinta:slash", ParamBinding.of(k=k, p=c, q=c, s=k))
    Q = Matrix.from_rows([[0, p], [q, 0]])
    assert is_automorphism(slash, Q)
    image = ds_transform(slash, Q)
    target = catalog_get("hietarinta:slash-ds",
                         ParamBinding.of(k=k, p=c * p / q, q=c * q / p))
    assert image.R.eq(target.R)
    assert ds_certificates_check(slash, Q, 4)
    print("\nACCEPT 06 DS theorem: PASS (second family reproduced, A_n certificates n <= 4)")


def test_criterion_07_x_symmetry():
    rng = random.Random(7)
    # N = 2: exact closed-form pass for n <= 6 at 3 sampled diagonals
    for seed in range(3):
        binding = sample_entry_binding("match2:F/", 70 + seed)
        obj = catalog_get("match2:F/", binding)
        X = Matrix.diagonal([Fraction(rng.randint(1, 9), rng.randint(1, 9))
                             for _ in range(4)])
        report = x_symmetry_check(obj, X, 6)
        assert report.ok and set(report.per_n) == {2, 3, 4, 5, 6}
    # N = 3: diagonal intertwiners found by exact linear solve for n <= 4,
    # with n = 5 (243 x 243 scale) as the stretch goal
    stretch = True
    for seed in range(3):
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
        obj = make_ybo(3, weighted_flip(3, weights))
        X = Matrix.diagonal([Fraction(rng.randint(1, 9), rng.randint(1, 9))
                             for _ in range(9)])
        report = x_symmetry_check(obj, X, 5)
        assert all(report.per_n[n] for n in (2, 3, 4))
        stretch = stretch and report.per_n.get(5, False)
    assert stretch  # n = 5 attained
    print("\nACCEPT 07 X-symmetry: PASS (N=2 exact n<=6; N=3 diagonal A_n n<=4, stretch n=5)")


def test_criterion_08_stabilizer_theorem():
    rng = random.Random(8)
    for N in (2, 3):
        # the exact groups: T x| S_N for Match, T x| {id, reversal} for additive Match
        for additive, count in ((False, factorial(N)), (True, 2)):
            lie, perms = target_stabilizer(N, additive)
            assert [X.data for X in lie] == [[[int(i == j == a) for j in range(N)]
                                              for i in range(N)] for a in range(N)]
            assert len(perms) == count
        # random P D, drawn here, lies in G; the unipotent Q does not
        for _ in range(10):
            assert match_stabilizer_check(random_monomial(rng, N))
        U = Matrix.identity(N)
        U.data[0][1] = Fraction(1)
        assert not match_stabilizer_check(U)
        # the witness: U conjugates a distinct-weight flip out of charge conservation
        S = weighted_flip(N, [Fraction(k + 2) for k in range(N)])
        UU = kron(U, U)
        assert is_charge_conserving(S, N)
        assert not is_charge_conserving(UU.inverse().mul(S).mul(UU), N)
    print("\nACCEPT 08 stabilizer theorem: PASS (exact G = T x| S_N, additive T x| {id, rev}, "
          "N = 2, 3; 10 random P D per rank in G, unipotent Q not; its conjugate breaks cc)")


def test_criterion_09_involutive_count():
    start = time.time()
    assert involutive_class_count(4) == 20
    elapsed = time.time() - start
    assert elapsed < 0.1
    print(f"\nACCEPT 09 involutive count: PASS (20, {elapsed * 1000:.1f}ms)")


# Golden values frozen from the first verified exhaustive run; the 2 and 5
# non-degenerate involutive class counts at N = 2, 3 agree with the known
# set-theoretic classification.
GOLDEN_N2 = {"solutions": 5, "classes": 5, "nondegenerate": 4, "involutive": 3,
             "nondegenerate_involutive": 2, "nondegenerate_involutive_classes": 2}
GOLDEN_N3 = {"solutions": 73, "classes": 29, "nondegenerate": 66, "involutive": 19,
             "nondegenerate_involutive": 12, "nondegenerate_involutive_classes": 5}


def test_criterion_10_permutation_enumeration():
    result2 = enumerate_permutation_solutions(2)
    assert result2.counts == GOLDEN_N2
    start = time.time()
    result3 = enumerate_permutation_solutions(3)
    elapsed = time.time() - start
    assert result3.counts == GOLDEN_N3
    assert elapsed < 60.0
    ones2 = Matrix.from_rows([[1]] * 4)
    for p in result2.solutions:
        P = Matrix.permutation(list(p))
        assert P.mul(ones2).eq(ones2)
        obj = permutation_to_ybo(p, 2)
        Q = Matrix.from_rows([[1], [0], [0], [1]])
        assert duality_verify(obj, obj, Q, Q.transpose())
    ones3 = Matrix.from_rows([[1]] * 9)
    coev3 = Matrix.from_rows([[1 if i % 3 == i // 3 else 0] for i in range(9)])
    for p in result3.solutions:
        P = Matrix.permutation(list(p))
        assert P.mul(ones3).eq(ones3)
        obj = permutation_to_ybo(p, 3)
        assert duality_verify(obj, obj, coev3, coev3.transpose())
    print(f"\nACCEPT 10 permutation enumeration: PASS (N=2: {result2.counts['solutions']} "
          f"solutions; N=3: {result3.counts['solutions']} solutions, "
          f"{result3.counts['classes']} classes, {elapsed:.1f}s)")


def test_criterion_11_gaussian_pair():
    R, S = gaussian_pair()
    objR = YBObject(3, 1, R)
    objS = YBObject(3, 1, S)
    for obj in (objR, objS):
        report = is_ybe(obj, tol=TOL)
        assert report.holds and report.residual < TOL
        assert is_unitary(obj.R, tol=TOL)
    reports = {}
    for name, obj in (("R", objR), ("S", objS)):
        rep = local_invariants(obj, L=4)
        reports[name] = {
            "size": rep.size,
            "spectrum": sorted(
                [[round(eig_to_complex(v).real, 9), round(eig_to_complex(v).imag, 9), m]
                 for v, m in rep.spectrum]),
            "traces": {w: [round(complex(t).real, 9), round(complex(t).imag, 9)]
                       for w, t in sorted(rep.traces.items())},
            "jordan": None if rep.jordan is None else sorted(
                [[round(eig_to_complex(v).real, 9), round(eig_to_complex(v).imag, 9),
                  list(b)] for v, b in rep.jordan]),
            "charge_conserving": rep.charge_conserving,
            "additive_cc": rep.additive_cc,
        }
    archived = json.loads((DATA / "gaussian-pair-invariants.json").read_text())
    for name in ("R", "S"):
        for key in ("size", "spectrum", "jordan", "charge_conserving", "additive_cc"):
            assert reports[name][key] == archived[name][key], (name, key)
        for word, val in archived[name]["traces"].items():
            got = reports[name]["traces"][word]
            assert abs(got[0] - val[0]) < 1e-6 and abs(got[1] - val[1]) < 1e-6
    # Every archived invariant agrees between R and S, so the necessary-
    # condition report cannot distinguish them; local_distinguish must be
    # consistent with that (the paper's local inequivalence claim needs the
    # quadratic witness equations, and the infinity-equivalence proof is
    # explicitly out of scope).
    invariants_differ = any(
        archived["R"][k] != archived["S"][k]
        for k in ("spectrum", "jordan", "traces", "charge_conserving"))
    verdict, witness = local_distinguish(objR, objS, L=4)
    if invariants_differ:
        assert verdict == "distinguished"
    else:
        assert verdict == "same"
    # supplementary evidence for the paper's inequivalence claim: the bounded
    # witness search has a working positive control at this size (it finds a
    # conjugation witness for a twinned pair) yet finds none for (R, S)
    import numpy as np

    from ybx.constructions import phi_q
    from ybx.equivalence import local_witness_search

    rng = np.random.default_rng(12)
    Q0 = Matrix.from_numpy(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    twin = phi_q(objR, Q0, tol=TOL)
    assert local_witness_search(objR, twin, strategy="full", seed=5) is not None
    assert local_witness_search(objR, objS, strategy="full", seed=5) is None
    print("\nACCEPT 11 gaussian pair: PASS (YBE + unitary within 1e-9; reports archived; "
          f"invariants {'differ' if invariants_differ else 'agree'} -> verdict {verdict}; "
          "witness search: positive control found, none for the pair)")


def test_criterion_12_property_suites():
    import test_braid
    import test_constructions
    import test_core
    import test_equivalence
    import test_expressions
    import test_scalars
    import test_spectral
    import test_structure
    import test_tensor

    start = time.time()
    rng = random.Random(99)
    suites = [
        (test_scalars.test_field_axioms_exact_q, ()),
        (test_scalars.test_field_axioms_exact_qi, ()),
        (test_expressions.test_eval_is_multiplicative, ()),
        (test_tensor.test_mixed_product_identity, ()),
        (test_tensor.test_kron_associativity, ()),
        (test_tensor.test_swap_naturality, ()),
        (test_tensor.test_word_index_round_trip, ()),
        (test_tensor.test_pseudo_inverse_general, ()),
        (test_tensor.test_rank_nullspace_solve, ()),
        (test_spectral.test_jordan_against_sympy_random, ()),
        (test_braid.test_rho_respects_free_reduction, (rng,)),
        (test_braid.test_feta_gives_inverse, (rng,)),
        (test_braid.test_transpose_symmetry, (rng,)),
        (test_core.test_rho_is_homomorphism, (rng,)),
        (test_core.test_cc_closure_properties, (rng,)),
        (test_core.test_ybe_invariance_family, (rng,)),
        (test_core.test_permutation_all_ones_eigenvector, ()),
        (test_core.test_involutive_implies_symmetric_quotient, (rng,)),
        (test_constructions.test_cable_spectrum_template, ()),
        (test_constructions.test_lash_associativity, ()),
        (test_constructions.test_lash_braided_commutativity, ()),
        (test_constructions.test_boxplus_random_verified, (rng,)),
        (test_constructions.test_ds_remark_composition, (rng,)),
        (test_constructions.test_closure_50_cases, (rng,)),
        (test_structure.test_realign_characterisation, (rng,)),
        (test_structure.test_extract_theorem_round_trip, (rng,)),
        (test_structure.test_hom_composition_closes, ()),
        (test_structure.test_segre_left_right_transpose, (rng,)),
        (test_equivalence.test_flip_word_traces_invariant_under_phi_q, (rng,)),
        (test_equivalence.test_p_equivalence_reflexive_and_monotone, ()),
        (test_equivalence.test_p_equivalence_symmetric, ()),
        (test_equivalence.test_match_stabilizer_preservation, (rng,)),
        (test_equivalence.test_x_symmetry_n2_formula, (rng,)),
        (test_equivalence.test_x_symmetry_n3_closed_form_is_the_kernel, (rng,)),
    ]
    for func, args in suites:
        func(*args)
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"\nACCEPT 12 property suites: PASS ({len(suites)} quantified suites, "
          f"{elapsed:.1f}s)")
