import dataclasses
import functools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_generator,
    dense_report,
    dense_word,
    fa_matrix,
    integer_path_objects,
    ising_exact,
    ising_unitary,
    random_cc_matrix,
    random_invertible,
    sampled_catalog_object,
    zeta8,
)
import ybx.core as core
from ybx.braid import BraidWord, half_twist_word
from ybx.catalog import catalog_get, catalog_ids, sample_entry_binding
from ybx.constructions import (boxplus, cable, flip_conj, inverse_obj, phi_q, scale_obj,
                               transpose_obj)
from ybx.core import (
    YBObject,
    _compare_words,
    _times,
    _unit_rows,
    _word_product,
    _word_rows,
    braid_relations_check,
    cc_shape_level2,
    generator_image,
    group_type_build,
    group_type_ybe_condition,
    is_additive_cc,
    is_charge_conserving,
    is_group_type,
    is_involutive,
    is_monomial,
    is_permutation,
    is_unitary,
    is_ybe,
    make_ybo,
    reversal_conjugation_check,
    rho,
    strip_to_permutation,
)
from ybx.errors import NotGroupType, NotMonomial, SizeCeiling
from ybx.expressions import ParamBinding
from ybx.scalars import GaussianRational
from ybx.tensor import Matrix, kron, swap_matrix


def test_is_ybe_identity():
    for N in (2, 3):
        obj = YBObject(N, 1, Matrix.identity(N * N))
        report = is_ybe(obj)
        assert report.holds and report.residual == 0


def test_is_ybe_slash_sampled():
    for seed in range(5):
        binding = sample_entry_binding("hietarinta:slash", seed)
        obj = catalog_get("hietarinta:slash", binding)
        report = is_ybe(obj)
        assert report.holds and report.residual == 0


def test_is_ybe_gaussian_9x9():
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
    obj = YBObject(3, 1, R)
    report = is_ybe(obj, tol=1e-9)
    assert report.holds
    assert is_unitary(R, tol=1e-9)


def test_rho_basics():
    obj = sampled_catalog_object("hietarinta:f", 1)
    assert rho(obj, BraidWord.of(3, [1])).eq(kron(obj.R, Matrix.identity(2)))
    assert rho(obj, BraidWord.of(3, [])).eq(Matrix.identity(8))


def test_rho_is_homomorphism(rng):
    obj = sampled_catalog_object("match2:F/", 2)
    for _ in range(50):
        l1 = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 4))]
        l2 = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 4))]
        w1, w2 = BraidWord.of(3, l1), BraidWord.of(3, l2)
        assert rho(obj, w1 * w2).eq(rho(obj, w1).mul(rho(obj, w2)))


def test_trace_separation_frozen():
    # writhe-zero word: the 1/sqrt(2) normalization cancels, exact over Q
    word = BraidWord.of(3, [1, -2])
    ising = make_ybo(2, ising_exact())
    assert rho(ising, word).trace() == 4
    fa = make_ybo(2, fa_matrix(zeta8(), 1 / zeta8()), verify=True, tol=1e-9)
    assert abs(rho(fa, word).trace() - 6) < 1e-9
    # the exact-rational route sees the same pair of values
    fa_exact = make_ybo(2, fa_matrix(Fraction(2), Fraction(3)))
    assert rho(fa_exact, word).trace() != 4


def test_braid_relations_check():
    obj = sampled_catalog_object("match2:F/", 3)
    assert braid_relations_check(obj, 3)
    assert braid_relations_check(obj, 4)
    # perturbing the identity at one entry breaks the relation
    bad = Matrix.identity(4)
    bad.data[1][2] = Fraction(1)
    bad_obj = YBObject(2, 1, bad)
    assert not is_ybe(bad_obj).holds
    assert not braid_relations_check(bad_obj, 3)


def test_half_twist_reversal_conjugation(rng):
    obj = sampled_catalog_object("hietarinta:f", 4)
    words3 = [BraidWord.of(3, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 4))])
              for _ in range(10)]
    assert reversal_conjugation_check(obj, 3, words3)
    ising = make_ybo(2, ising_exact())
    words4 = [BraidWord.of(4, [rng.choice([1, -1, 2, -2, 3, -3])
                               for _ in range(rng.randint(1, 5))])
              for _ in range(20)]
    assert reversal_conjugation_check(ising, 4, words4)


def test_reversal_conjugation_fails_off_the_ybe():
    # D_3 s_1 = s_2 D_3 holds exactly when R satisfies the YBE
    bad = Matrix.identity(4)
    bad.data[1][2] = Fraction(1)
    bad_obj = YBObject(2, 1, bad)
    assert not is_ybe(bad_obj).holds
    words = [BraidWord.of(3, letters) for letters in ([1], [2], [1, -2])]
    assert not reversal_conjugation_check(bad_obj, 3, words)
    assert not reversal_conjugation_check(bad_obj, 3, words[:1])


def test_cc_predicates():
    slash = sampled_catalog_object("match2:F/", 5)
    assert is_charge_conserving(slash.R, 2)
    assert is_additive_cc(slash.R, 2)
    ising = ising_exact()
    # the corner |11> -> |22> entry violates charge conservation
    assert ising.data[3][0] != 0
    assert not is_charge_conserving(ising, 2)
    assert not is_additive_cc(ising, 2)


def test_cc_closure_properties(rng):
    for _ in range(50):
        A = random_cc_matrix(rng, 2)
        B = random_cc_matrix(rng, 2)
        assert is_charge_conserving(A.mul(B), 2)
        assert is_charge_conserving(kron(A, B), 2)
    for _ in range(10):
        A = random_cc_matrix(rng, 3)
        B = random_cc_matrix(rng, 3)
        assert is_charge_conserving(A.mul(B), 3)


def test_monomial_permutation_predicates():
    P = swap_matrix(2, 2)
    assert is_permutation(P) and is_monomial(P)
    D = Matrix.diagonal([Fraction(2), Fraction(1), Fraction(1), Fraction(3)])
    assert is_monomial(D.mul(P)) and not is_permutation(D.mul(P))
    assert not is_monomial(ising_exact())
    assert is_involutive(P)
    assert is_unitary(P)
    assert is_unitary(ising_unitary(), tol=1e-9)
    assert not is_unitary(ising_exact())


def test_permutation_all_ones_eigenvector():
    from ybx.catalog import enumerate_permutation_solutions

    result = enumerate_permutation_solutions(2)
    ones = Matrix.from_rows([[1], [1], [1], [1]])
    for p in result.solutions:
        P = Matrix.permutation(list(p))
        assert P.mul(ones).eq(ones)


def test_involutive_implies_symmetric_quotient(rng):
    # involutive YBE solutions satisfy the braid relations plus rho(s_i)^2 = I
    from ybx.equivalence import weighted_flip

    weights = [Fraction(1), Fraction(-1)]
    S = weighted_flip(2, weights, off_weight=Fraction(1))
    obj = make_ybo(2, S)
    assert is_involutive(S)
    assert braid_relations_check(obj, 3)
    for i in (1, 2):
        g = generator_image(obj, 3, i)
        assert g.mul(g).eq(Matrix.identity(8))


def test_ybe_invariance_family(rng):
    # YBE survives scaling, inverse, transpose, flip conjugation, phi_Q,
    # quantified at ranks 2 and 3
    from ybx.equivalence import weighted_flip

    ids = ["hietarinta:slash", "hietarinta:a", "match2:F/", "hietarinta:eight-vertex"]
    objects = [sampled_catalog_object(ids[seed % len(ids)], seed) for seed in range(9)]
    for seed in range(4):
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
        objects.append(make_ybo(3, weighted_flip(3, weights)))
    checked = 0
    for obj in objects:
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert scale_obj(obj, lam).verified
        assert inverse_obj(obj).verified
        assert transpose_obj(obj).verified
        assert flip_conj(obj).verified
        Q = random_invertible(rng, obj.N)
        assert phi_q(obj, Q).verified
        checked += 5
    assert checked >= 50


def test_cc_shape_level2():
    from ybx.constructions import cable

    binding = sample_entry_binding("hietarinta:f", 2)
    # the worked cabling example uses the f-pattern with alpha = 1 (case f)
    x = Fraction(2)
    R = Matrix.from_rows([
        [1, 0, 0, 0],
        [0, 1 + x, -x, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1]])
    obj = make_ybo(2, R)
    cab = cable(obj, 2)
    ok, violations = cc_shape_level2(cab.R, 2)
    assert ok and violations == []
    # the two readings of level-2 charge conservation: the cable conserves
    # charge over the base alphabet (length-4 words) but not over the level
    # alphabet (it leaves the rank-4 charge-conserving class)
    assert is_charge_conserving(cab.R, 2)
    assert not is_charge_conserving(cab.R, 4)
    bad = Matrix.identity(16)
    bad.data[0][15] = Fraction(1)
    ok2, violations2 = cc_shape_level2(bad, 2)
    assert not ok2 and ((0, 15), Fraction(1)) in violations2
    for xv in (3, -2, 5):
        cab2 = cable(make_ybo(2, Matrix.from_rows([
            [1, 0, 0, 0],
            [0, 1 + Fraction(xv), -Fraction(xv), 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1]])), 2)
        assert cc_shape_level2(cab2.R, 2)[0]


def test_group_type_single_g(rng):
    for N in (2, 3):
        for _ in range(5):
            g = random_invertible(rng, N)
            R = group_type_build([g] * N).R
            obj = make_ybo(N, R)
            assert obj.verified
            gs = is_group_type(R, N)
            assert all(h.eq(g) for h in gs)
            assert group_type_ybe_condition(gs)


def test_group_type_rotation_example():
    g1 = Matrix.from_rows([
        [1, 0, 0],
        [0, Fraction(3, 5), Fraction(4, 5)],
        [0, Fraction(-4, 5), Fraction(3, 5)]])
    I3 = Matrix.identity(3)
    obj = group_type_build([g1, I3, I3], verify=True)
    assert obj.verified
    assert group_type_ybe_condition([g1, I3, I3])


def test_group_type_flip_case():
    I2 = Matrix.identity(2)
    obj = group_type_build([I2, I2])
    assert obj.R.eq(swap_matrix(2, 2))
    assert is_ybe(obj).holds


def test_group_type_detection_failure():
    with pytest.raises(NotGroupType):
        is_group_type(ising_exact(), 2)


def test_strip_to_permutation():
    P = swap_matrix(2, 2)
    D0 = Matrix.diagonal([Fraction(3), Fraction(5), Fraction(2), Fraction(7)])
    R = D0.mul(P)
    D, perm = strip_to_permutation(R)
    assert D.mul(perm).eq(R)
    assert is_permutation(perm)
    assert is_ybe(YBObject(2, 1, perm)).holds
    # the antidiagonal family strips to a permutation solution
    binding = sample_entry_binding("hietarinta:slash-ds", 3)
    obj = catalog_get("hietarinta:slash-ds", binding)
    D2, P2 = strip_to_permutation(obj.R)
    assert is_ybe(YBObject(2, 1, P2)).holds
    # non-solution monomial matrices still decompose
    M = Matrix.diagonal([Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
    D3, P3 = strip_to_permutation(M)
    assert D3.mul(P3).eq(M)
    with pytest.raises(NotMonomial):
        strip_to_permutation(ising_exact())


# -- word products on integers against Kronecker generator images -------------------


def assert_same_image(label, got, want):
    if label == "complex-f":
        assert got.max_abs_diff(want) <= 1e-9 * max(1.0, want.max_abs())
    else:   # same values and same scalar types, Fractions inside Gaussian rationals
        assert repr(got.data) == repr(want.data)


@pytest.mark.parametrize("label,obj", integer_path_objects(),
                         ids=[label for label, _ in integer_path_objects()])
def test_rho_and_generator_image_match_kronecker_products(label, obj):
    rng = random.Random(5)
    for n in [n for n in (3, 4, 5) if obj.slot_dim ** n <= 81]:   # dense oracle at most 81 x 81
        for i in range(1, n):
            for inverse in (False, True):
                assert_same_image(label, generator_image(obj, n, i, inverse=inverse),
                                  dense_generator(obj, n, i, inverse=inverse))
        gens = [g for i in range(1, n) for g in (i, -i)]
        words = [[rng.choice(gens) for _ in range(rng.randint(1, 6))] + [-rng.randint(1, n - 1)]
                 for _ in range(3)]
        for letters in words + [half_twist_word(n).letters]:  # n = 5 on arrays (_coo_times)
            assert_same_image(label, rho(obj, BraidWord.of(n, letters)),
                              dense_word(obj, n, letters))


@pytest.mark.parametrize("label,obj", integer_path_objects()[:2],
                         ids=[label for label, _ in integer_path_objects()[:2]])
def test_word_times_its_inverse_is_exactly_the_identity(label, obj):
    rng = random.Random(6)
    for n in (3, 4, 5):
        word = BraidWord.of(n, [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(8)])
        letters = (word * word.inverse()).letters
        identity = Matrix.identity(obj.slot_dim ** n, obj.backend)
        assert repr(rho(obj, BraidWord.of(n, letters)).data) == repr(identity.data)
        # no stored zeros: each sparse row holds its diagonal 1 and nothing else
        assert _word_rows(obj, n, letters) == [{k: 1} for k in range(identity.rows)]


def test_long_word_at_seven_digit_denominators_is_exactly_the_identity():
    obj = catalog_get("hietarinta:a", ParamBinding.of(
        k=Fraction(1, 1000003), p=Fraction(-2, 1000033), q=Fraction(3, 1000037)))
    rng = random.Random(120)
    word = BraidWord.of(5, [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(60)])
    letters = (word * word.inverse()).letters
    assert len(letters) == 120
    assert _word_rows(obj, 5, letters) == [{k: 1} for k in range(32)]
    assert rho(obj, BraidWord.of(5, letters)).data == Matrix.identity(32).data


# -- the product over all nonzeros at once against the row loop ----------------------


def row_loop_product(obj, n, word):
    """Integer rows and denominator of the word's product by ``_times`` alone."""
    letters = obj._letters
    rows, D = _unit_rows(obj.slot_dim ** n, obj.backend), 1
    for e in word:
        letter, d = letters[e]
        rows, D = _times(rows, letter), D * d
    return rows, D


def exact_objects():
    """Every catalog entry at both sampled bindings, and the exact-qi F/."""
    objects = [(f"{e}@{seed}", sampled_catalog_object(e, seed))
               for seed in (100, 101) for e in catalog_ids()]
    return objects + [integer_path_objects()[1]]


@pytest.mark.parametrize("n", (5, 6))
def test_coo_product_matches_the_row_loop(n):
    rng = random.Random(n)
    for label, obj in exact_objects():
        seeded = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(8)]
        for word in (half_twist_word(n).letters, tuple(seeded), ()):
            rows, D = _word_product(obj, n, word)
            assert (rows, D) == row_loop_product(obj, n, word), (label, word)
            assert all(type(v) is int for row in rows for v in row.values())


@pytest.mark.parametrize("n", (5, 6))
def test_vanishing_array_products_return_zero_rows(monkeypatch, n):
    # E_(0,3)^2 = 0 and R = 0: the arrays empty out, and the row loop gives zero rows
    nilpotent = YBObject(2, 1, Matrix.from_rows(
        [[1 if (r, c) == (0, 3) else 0 for c in range(4)] for r in range(4)]))
    rows, D = _word_product(nilpotent, n, (1, 1, 1))
    assert (rows, D) == row_loop_product(nilpotent, n, (1, 1, 1)) == ([{}] * 2 ** n, 1)
    vanishing = YBObject(2, 1, Matrix.zeros(4, 4))
    assert braid_relations_check(vanishing, n)
    monkeypatch.setattr(core, "_COO_ROWS", 2 ** n + 1)          # the row loop
    assert braid_relations_check(vanishing, n)


def test_word_products_route_by_size_and_backend(monkeypatch):
    # the row loop multiplies letter by letter, the arrays block by block: (1, -2, 3)
    # fits a window of 4 strands, and (1, -2, 3, 4) is that block and (4,)
    calls = []
    for name in ("_times", "_coo_times"):
        monkeypatch.setattr(core, name, lambda *args, kernel=getattr(core, name), name=name:
                            calls.append(name) or kernel(*args))
    (_, q), (_, qi), (_, f), *_ = integer_path_objects()
    for obj, n, kernel in ((q, 4, "_times"), (qi, 4, "_times"), (q, 5, "_coo_times"),
                           (qi, 5, "_coo_times"), (f, 5, "_times"), (f, 6, "_times")):
        for word, blocks in (((1, -2, 3), 1), ((1, -2, 3, 4), 2)):
            _word_product(obj, n, word)         # builds the tables of its blocks
            calls.clear()
            _word_product(obj, n, word)
            steps = blocks if kernel == "_coo_times" else len(word)
            assert calls == [kernel] * steps, (obj.backend, n, word)
    calls.clear()
    with pytest.raises(SizeCeiling):
        _word_product(q, 11, (1,))      # 2^11 rows > MAX_DIM
    assert not calls


def test_the_ceiling_bounds_the_power_before_raising_it():
    start = time.perf_counter()     # 3^(10^8) alone takes minutes to compute
    with pytest.raises(SizeCeiling, match=r"on 100000000 strands: dimension 3\^100000000 exceeds"):
        core.check_dim(3, 10 ** 8, "representation on 100000000 strands")
    assert time.perf_counter() - start < 1.0
    with pytest.raises(SizeCeiling, match="dimension 2048 exceeds the ceiling 1024"):
        core.check_dim(2, 11, "representation on 11 strands")
    assert core.check_dim(2, 10, "") == 1024 and core.check_dim(1, 10 ** 8, "") == 1


def test_each_object_solves_r_inverse_at_most_once(monkeypatch):
    objects = [obj for _, obj in integer_path_objects()[:3]]
    calls, inverse = [], Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", lambda M: calls.append(M) or inverse(M))
    for obj in objects:
        calls.clear()
        rho(obj, BraidWord.of(4, (1, -2, 3)))
        generator_image(obj, 3, 2, inverse=True)
        is_ybe(obj)
        braid_relations_check(obj, 4)
        reversal_conjugation_check(obj, 3, [BraidWord.of(3, (1, -2)), BraidWord.of(3, (-1,))])
        assert len(calls) == 1 and calls[0] is obj.R, obj.backend


def test_verified_objects_keep_the_letters_their_check_built(monkeypatch):
    calls, init = [], core._Letters.__init__
    monkeypatch.setattr(core._Letters, "__init__",
                        lambda self, R, w: calls.append(R) or init(self, R, w))
    obj = catalog_get("hietarinta:a", ParamBinding.of(k=2, p=3, q=5))
    rho(obj, BraidWord.of(3, (1, -2, 1)))
    assert len(calls) == 1 and obj.verified
    calls.clear()
    cabled = cable(obj, 2)
    rho(cabled, BraidWord.of(3, (1, 2)))
    assert len(calls) == 1 and calls[0] is cabled.R and cabled.verified
    calls.clear()
    tagged = core.verified(YBObject(obj.N, 1, obj.R))
    rho(tagged, BraidWord.of(3, (2, 1)))
    assert len(calls) == 1 and tagged.verified
    with pytest.raises(ValueError, match="Yang-Baxter"):
        core.verified(YBObject(2, 1, obj.R.mul(kron(Matrix.from_rows([[1, 1], [0, 1]]),
                                                    Matrix.identity(2)))))


def test_replaced_matrix_gets_its_own_letters():
    # the letter tables are kept with the object: replace(obj, R=S) must multiply with S
    word = BraidWord.of(3, (1, -2, 1))
    for label, obj in integer_path_objects()[:3]:
        before = rho(obj, word)                 # builds obj's tables, R^-1's among them
        other = dataclasses.replace(obj, R=obj.R.scale(2))
        assert_same_image(label, rho(other, word), dense_word(other, 3, word.letters))
        assert_same_image(label, rho(obj, word), before)
        assert not rho(other, word).eq(before)
        assert dataclasses.replace(obj) == obj and repr(dataclasses.replace(obj)) == repr(obj)


def value_kinds(monkeypatch) -> list:
    """Filled with the dtype kind of each array step's values: 'i' for int64,
    'O' for Python ints in an object array."""
    kinds, kernel = [], core._coo_times
    monkeypatch.setattr(core, "_coo_times", lambda keys, values, width, letter:
                        kinds.append(values.dtype.kind) or kernel(keys, values, width, letter))
    return kinds


def assert_exact_product(label, obj, n, word, kinds):
    """Check the word's product against the row loop and the dense oracle;
    return its largest |numerator|, with kinds holding its steps alone."""
    assert_same_image(label, rho(obj, BraidWord.of(n, word)), dense_word(obj, n, word))
    kinds.clear()
    rows, D = _word_product(obj, n, word)
    assert (rows, D) == row_loop_product(obj, n, word), (label, word)
    assert all(type(v) is int for row in rows for v in row.values())
    return max(abs(v) for row in rows for v in row.values())


def int64_bound_objects():
    """Catalog objects at bindings whose products at n = 5 cross 2^62 partway
    through the word (20-bit k^2 on exact-q, 10-bit parts on exact-qi), and
    the same families at small bindings, which stay below it."""
    G = GaussianRational
    return [
        ("exact-q", catalog_get("hietarinta:a", ParamBinding.of(k=1009, p=-3, q=7)), True),
        ("exact-qi", catalog_get("match2:F/", ParamBinding.of(
            alpha=1009, beta=G(1013, 2), gamma=G(-1021, 3), chi=-3)), True),
        ("exact-q", catalog_get("hietarinta:a", ParamBinding.of(k=2, p=3, q=5)), False),
        ("exact-qi", integer_path_objects()[1][1], False),
    ]


@pytest.mark.parametrize("label,obj,crosses", int64_bound_objects(),
                         ids=["q-large", "qi-large", "q-small", "qi-small"])
def test_products_leave_int64_once_and_only_past_the_bound(monkeypatch, label, obj, crosses):
    # one step per block: letters 1 and 4 span 5 strands, more than the window
    # of 4, so each word starts with blocks of one letter
    kinds = value_kinds(monkeypatch)
    for word, blocks in (((1, 4, 1, 4, -2, 3, 1), [(1,), (4,), (1,), (4, -2, 3), (1,)]),
                         ((1, 4, -1, 4, 2, -3, 2, 1), [(1,), (4,), (-1,), (4, 2, -3), (2, 1)])):
        assert obj._letters.blocks(word) == blocks
        largest = assert_exact_product(label, obj, 5, word, kinds)
        on_int64 = kinds.count("i")
        assert kinds == ["i"] * on_int64 + ["O"] * (len(blocks) - on_int64), (label, word)
        if crosses:
            assert largest >= 2 ** 62 and 0 < on_int64 < len(blocks), (label, word, kinds)
        else:
            assert largest < 2 ** 62 and on_int64 == len(blocks), (label, word, kinds)


def test_the_bound_counts_the_summed_terms_and_keeps_a_spare_bit(monkeypatch):
    # R = r J + I, J all ones: on one slot pair the t-th power of the letter is
    # I + m_t J, m_t = ((4 r + 1)^t - 1) / 4, so its entries m_t and m_t + 1 have
    # content 1 and no division keeps a step on int64.  (1, 1, 1, 1) runs as the
    # blocks (1, 1, 1) and (1,), with the tables I + m_3 J and I + r J.  Each
    # entry of a step sums 4 terms of one sign; a block's growth is
    # bits(m_t + 1) + bits(4)
    kinds = value_kinds(monkeypatch)
    for r in (20000, 2 ** 14 - 2):
        # r = 20000: m_3 + 1 has 47 bits and r + 1 has 15, and 47 + 15 + 3 > 62,
        # though 47 + 15 is not: without the summed terms, m_4 + 1 > 2^63 would wrap.
        # r = 2^14 - 2: 46 + 14 + 3 = 63 > 62, though m_4 + 1 < 2^62 would fit.
        R = Matrix.from_rows([[Fraction(r + (i == j)) for j in range(4)] for i in range(4)])
        obj = YBObject(2, 1, R)
        assert obj._letters.blocks((1, 1, 1, 1)) == [(1, 1, 1), (1,)]
        largest = assert_exact_product("exact-q", obj, 5, (1, 1, 1, 1), kinds)
        assert largest == ((4 * r + 1) ** 4 - 1) // 4 + 1
        assert (largest >= 2 ** 63) == (r == 20000) and (largest < 2 ** 62) == (r != 20000)
        assert "".join(kinds) == "iO", r


def test_the_content_keeps_a_scaled_all_ones_product_on_int64(monkeypatch):
    # R = r J: the t-th power holds 4^(t-1) r^t in every entry.  A block's table
    # carries its content out, 16 r^3 for (1, 1, 1) and r for (1,), so its values
    # are 1; along (1, 4) * 16, 32 blocks of one letter, the product's values
    # 4^j grow until their content is divided out before a step that would pass
    # 2^62
    kinds = value_kinds(monkeypatch)
    for r in (2 ** 20 - 1, 2 ** 30 - 1):
        obj = YBObject(2, 1, Matrix.from_rows([[Fraction(r)] * 4] * 4))
        largest = assert_exact_product("exact-q", obj, 5, (1, 1, 1, 1), kinds)
        assert largest == 4 ** 3 * r ** 4
        assert "".join(kinds) == "ii", r
        largest = assert_exact_product("exact-q", obj, 5, (1, 4) * 16, kinds)
        assert largest == 4 ** 30 * r ** 32
        assert "".join(kinds) == "i" * 32, r


def ybe_failures():
    """The exact objects above with one entry changed, so that YBE fails."""
    (_, q), (_, qi), *_ = integer_path_objects()
    Rq, Rqi = Matrix.from_rows(q.R.data), Matrix.from_rows(qi.R.data)
    Rq.data[1][0] = Fraction(1, 7)
    Rqi.data[0][3] = GaussianRational(Fraction(1, 5), Fraction(-2, 3))
    return [YBObject(2, 1, Rq), YBObject(2, 1, Rqi)]


def test_is_ybe_residual_and_witness_match_the_dense_difference():
    for obj in ybe_failures():
        report = is_ybe(obj)
        residual, witness = dense_report(obj, (1, 2, 1), (2, 1, 2))
        assert witness is not None and not report.holds
        assert (report.residual, report.witness) == (residual, witness)


def test_array_comparisons_of_failing_objects_match_the_dense_difference(monkeypatch):
    # 32 rows: the words are compared on their arrays, and turned into rows only
    # when they differ
    kinds = value_kinds(monkeypatch)
    for obj in ybe_failures():
        assert not braid_relations_check(obj, 5)
        kinds.clear()
        pairs = (((1, 2, 1), (2, 1, 2)), ((3, 4, 3), (4, 3, 4)), ((1, 3), (3, 1)))
        for left, right in pairs:
            report = _compare_words(obj, 5, left, right, None)
            residual, witness = dense_report(obj, left, right, 5)
            assert (report.holds, report.residual, report.witness) == (
                witness is None, residual, witness), (left, right)
        # every step on arrays, each word one block
        assert len(kinds) == sum(len(obj._letters.blocks(w)) for pair in pairs for w in pair) == 6
        assert _compare_words(obj, 5, (1, 2, 1), (1, 2, 1, -3, 3), None).holds


def test_array_products_compare_across_contents_and_denominators():
    # w against w with e e^-1 inserted: the same matrix at another denominator;
    # against w e, another matrix.  At k = 3^9 the two sides of the last pair
    # carry the contents 3, of their block (-4, 3), and 7 * 3^19, of (-1, 1, 3).
    a = catalog_get("hietarinta:a", ParamBinding.of(k=3 ** 9, p=-3, q=7))
    rng = random.Random(7)
    for obj in [obj for _, obj, _ in int64_bound_objects()] + [a]:
        for _ in range(2):
            w = tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(5))
            e, i = rng.choice((1, -1)) * rng.randint(1, 4), rng.randint(0, 5)
            assert _compare_words(obj, 5, w, w[:i] + (e, -e) + w[i:], None).holds, w
        report = _compare_words(obj, 5, w, w + (e,), None)
        assert (report.residual, report.witness) == dense_report(obj, w, w + (e,), 5)
    left, right = (-4, 3, -1), (-4, -1, 1, 3, -1)
    assert [core._word_arrays(a, 32, word)[2] for word in (left, right)] == [3, 7 * 3 ** 19]
    assert _compare_words(a, 5, left, right, None).holds
    assert not _compare_words(a, 5, left, right + (1, 1), None).holds
    # P / 2 and its cube P / 8: the same keys and values, at denominators 2 and 8
    half = YBObject(2, 1, swap_matrix(2, 2).scale(Fraction(1, 2)))
    report = _compare_words(half, 5, (1,), (1, 1, 1), None)
    assert not report.holds
    assert (report.residual, report.witness) == dense_report(half, (1,), (1, 1, 1), 5)


def test_words_with_different_denominators_compare_exactly():
    # (1, 1) and (2,) carry the denominators d^2 and d: compared cross-multiplied
    for obj in ybe_failures() + [obj for _, obj in integer_path_objects()[:2]]:
        report = _compare_words(obj, 3, (1, 1), (2,), None)
        assert (report.residual, report.witness) == dense_report(obj, (1, 1), (2,))
        assert _compare_words(obj, 3, (1, -1, 2), (2,), None).holds
        assert _compare_words(obj, 3, (1, 2, -2), (1,), None).residual == 0


# -- products by blocks of letters against the dense oracle -------------------------


@functools.cache
def block_objects():
    """name -> (label, object) for random block products: slot width 2 (a
    window of 4 strands), among them the objects whose products pass 2^62
    and E_(0,3), whose square is 0; slot width 3 (a window of 3)."""
    G = GaussianRational
    (_, q), (_, qi), _, (_, q3), _ = integer_path_objects()
    qi3 = boxplus(qi, make_ybo(1, Matrix.from_rows([[G(Fraction(2, 3), Fraction(-1, 2))]])),
                  G(Fraction(3, 4), Fraction(1, 5)))
    nilpotent = YBObject(2, 1, Matrix.from_rows(
        [[1 if (r, c) == (0, 3) else 0 for c in range(4)] for r in range(4)]))
    (_, q_large, _), (_, qi_large, _), *_ = int64_bound_objects()
    return {"q": ("exact-q", q), "qi": ("exact-qi", qi), "q-large": ("exact-q", q_large),
            "qi-large": ("exact-qi", qi_large), "nilpotent": ("exact-q", nilpotent),
            "q-rank-3": ("exact-q", q3), "qi-rank-3": ("exact-qi", qi3)}


# (object, strands, fewest letters): 5-7 strands at slot width 2, 4 and 5 at width 3
BLOCK_CASES = ([("q", n, 1) for n in (5, 6, 7)] + [("qi", n, 1) for n in (5, 6, 7)]
               + [("q-large", 5, 5), ("qi-large", 5, 5), ("nilpotent", 5, 1), ("nilpotent", 6, 1)]
               + [(name, n, 1) for name in ("q-rank-3", "qi-rank-3") for n in (4, 5)])


def assert_blocks_fit_their_window(obj, n, word):
    """Each block holds at most s - 1 letters on at most s strands, s the widest
    window below ``_COO_ROWS`` rows (at least 2), and its table has q w^span rows."""
    w, letters = obj.slot_dim, obj._letters
    s = {2: 4, 3: 3}.get(w, 2)
    assert w ** s < core._COO_ROWS <= w ** (s + 1)
    blocks = letters.blocks(word)
    assert [e for block in blocks for e in block] == list(word)
    for block in blocks:
        span = max(map(abs, block)) - min(map(abs, block)) + 2
        assert len(block) <= s - 1
        assert span <= s and w ** span < core._COO_ROWS
        (_, _, _, table), g, content = letters.coo(block, letters.q * w ** n)
        largest = max(map(abs, table.tolist()), default=0)
        assert g == largest.bit_length() + (letters.q * w ** span).bit_length() and content > 0
    return blocks


@pytest.mark.parametrize("name,n,fewest", BLOCK_CASES,
                         ids=[f"{name}-{n}" for name, n, _ in BLOCK_CASES])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_block_products_match_the_dense_oracle(name, n, fewest, data):
    label, obj = block_objects()[name]
    signs = (1,) if name == "nilpotent" else (1, -1)       # E_(0,3) has no inverse
    gens = [s * i for i in range(1, n) for s in signs]
    word = tuple(data.draw(st.lists(st.sampled_from(gens), min_size=fewest, max_size=7)))
    top = n - 1 - max(map(abs, word))       # the same word against the last strand
    for letters in (word, tuple(e + top if e > 0 else e - top for e in word)):
        assert_blocks_fit_their_window(obj, n, letters)
        rows, D = _word_product(obj, n, letters)
        assert (rows, D) == row_loop_product(obj, n, letters), (label, letters)
        assert_same_image(label, rho(obj, BraidWord.of(n, letters)), dense_word(obj, n, letters))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_block_comparisons_of_failing_objects_match_the_dense_difference(data):
    obj = data.draw(st.sampled_from(ybe_failures()))
    gens = [g for i in range(1, 5) for g in (i, -i)]
    left, right = (tuple(data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=6)))
                   for _ in range(2))
    if data.draw(st.booleans()):            # the same matrix, through other blocks
        e, i = data.draw(st.sampled_from(gens)), data.draw(st.integers(0, len(left)))
        right = left[:i] + (e, -e) + left[i:]
    report = _compare_words(obj, 5, left, right, None)
    residual, witness = dense_report(obj, left, right, 5)
    assert (report.holds, report.residual, report.witness) == (witness is None, residual, witness)


def test_blocks_are_letters_alone_from_slot_width_4():
    # the half twist on 5 strands: runs of 3 letters at w = 2, 2 at w = 3, 1 at w = 4
    word = half_twist_word(5).letters
    for (_, obj), longest in zip(integer_path_objects()[3:], (2, 1)):
        assert max(map(len, assert_blocks_fit_their_window(obj, 5, word))) == longest
    _, qi = integer_path_objects()[1]
    assert qi._letters.blocks(word) == [(1, 2, 1), (3, 2, 1), (4, 3, 2), (1,)]
