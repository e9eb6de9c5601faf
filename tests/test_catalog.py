import hashlib
import itertools
from fractions import Fraction

import pytest

from ybx.catalog import (
    catalog_checksums,
    catalog_entry,
    catalog_get,
    catalog_ids,
    enumerate_permutation_solutions,
    glue_positions,
    involutive_class_count,
    jordan_template_matches,
    match2_family_list,
    partition_count,
    permutation_to_ybo,
    sample_entry_binding,
)
from ybx.constructions import ds_transform, is_automorphism
from ybx.core import YBObject, is_charge_conserving, is_unitary, is_ybe
from ybx.errors import ConstraintViolated, SizeCeiling, UnknownId, UnsupportedRank, YbxError
from ybx.expressions import ParamBinding
from ybx.structure import duality_verify
from ybx.tensor import Matrix, swap_matrix

# Transcription lock: these digests pin the catalog entries exactly.  A
# failure here means a matrix entry, parameter list, or constraint changed.
FROZEN_CHECKSUMS = {
    "hietarinta:slash": "c7dae90295e626b3316b2cf17c62cbebd36e2f0d861199f885a08847734321ca",
    "hietarinta:slash-ds": "1ea25dcb649edbc4afb8eac13fc97c729db0ae74238571de04fa049d7b718b81",
    "hietarinta:slash-glue-1": "f9d31bfe75d55f674497d02ae8b50e589bd52a85ae60f60007c6754e23fceff8",
    "hietarinta:slash-glue-2": "c79bc29021c5525789581d3a86ec03528e7b7e4fef967ec043f600a3ac1d096f",
    "hietarinta:slash-glue-3": "66a19e408f1a93ac4f9aff46207f1c9fd002ad23b973d63e9faa76649a78da47",
    "hietarinta:a": "d680f83bcaa250c3751a7bfcb6ce43455c6af4312ca78900a46d1b5cf4098b8d",
    "hietarinta:a-glue": "a5de956b763acb36f992d81c338a4e30b3b88e1d20071deb9b81e66236e9f946",
    "hietarinta:f": "ca59db4422cd2323449e8939c4c8b478bfba4c1c61e7b342d295284eb7139941",
    "hietarinta:ising": "04f03941b312853bd4d374bcd35cc2af0bb77dd5bd90cb1780144abcc2a8c9c5",
    "hietarinta:eight-vertex": "c7e8ccc11fc1b6ba6e0281036a27631e2a6b4b95c0d73eef19ab6094d3a58c16",
    "match2:F0": "719df5a07161885dc88405efc881c8f46d602788b333bf78ed158c9dc4cceaf4",
    "match2:F/": "b77c8204b510dcb73ce5b53239c72ea0dd3abd45d5de8958f2491c741fdf2e04",
    "grouptype:single-g": "44f7a16c62a14a73d5a923a6fca78cdd726deaf029523e104c0ccaf2ffa2bcce",
    "perm:flip": "14635947433afe91e4df7fea12eaa38b1d0728484731bfac4563f44b6208d62c",
}


def test_checksum_lock():
    assert catalog_checksums() == FROZEN_CHECKSUMS


def test_fourteen_entries_and_aliases():
    ids = catalog_ids()
    assert len(ids) == 14
    assert catalog_entry("match2:Ff") is catalog_entry("hietarinta:f")
    assert catalog_entry("match2:Fa") is catalog_entry("hietarinta:a")
    with pytest.raises(UnknownId):
        catalog_entry("nope:missing")


def test_every_entry_ybe_at_five_bindings():
    for entry_id in catalog_ids():
        for seed in range(5):
            obj = catalog_get(entry_id, sample_entry_binding(entry_id, seed))
            assert obj.verified
            report = is_ybe(obj)
            assert report.holds and report.residual == 0


def test_constraint_violations_raise():
    with pytest.raises(ConstraintViolated):
        catalog_get("hietarinta:slash", ParamBinding.of(k=0, q=1, p=1, s=1))
    with pytest.raises(ConstraintViolated):
        catalog_get("hietarinta:slash", ParamBinding.of(k=1, q=1, p=1))  # unbound s
    with pytest.raises(ConstraintViolated):
        catalog_get("match2:F/", ParamBinding.of(alpha=1, beta=1, gamma=1, chi=0))


def test_jordan_templates_match_everywhere():
    for entry_id in catalog_ids():
        for seed in range(3):
            binding = sample_entry_binding(entry_id, 10 + seed)
            assert jordan_template_matches(entry_id, binding), (entry_id, binding.values)


def test_jordan_template_refused_off_its_generic_locus():
    # slash-glue-2 has one 3-block for k only where k (p + q)^2 != 0; at
    # p + q = 0 the blocks are [2, 1], so the template must not be returned
    from ybx.catalog import jordan_template_eval
    from ybx.spectral import jordan_structure

    binding = ParamBinding.of(k=Fraction(3, 4), q=-2, p=2, s=3)
    obj = catalog_get("hietarinta:slash-glue-2", binding)
    assert sorted(list(b) for _, b in jordan_structure(obj.R)) == [[1], [2, 1]]
    with pytest.raises(YbxError, match="k\\*\\(p\\+q\\)\\^2"):
        jordan_template_eval("hietarinta:slash-glue-2", binding)
    with pytest.raises(YbxError):
        jordan_template_matches("hietarinta:slash-glue-2", binding)
    generic = ParamBinding.of(k=Fraction(3, 4), q=-1, p=2, s=3)
    assert jordan_template_matches("hietarinta:slash-glue-2", generic)


def test_fslash_at_ones_is_flip():
    obj = catalog_get("match2:F/", ParamBinding.of(alpha=1, beta=1, gamma=1, chi=1))
    assert obj.R.eq(swap_matrix(2, 2))


def test_slash_sampled_values_example():
    obj = catalog_get("hietarinta:slash", ParamBinding.of(k=1, q=2, p=3, s=4))
    assert obj.R.data[0][0] == 1
    assert obj.R.data[1][2] == 3
    assert obj.R.data[2][1] == 2
    assert obj.R.data[3][3] == 4


def test_ising_unitary_normalization():
    obj = catalog_get("hietarinta:ising")
    assert not is_unitary(obj.R)
    unit = catalog_get("hietarinta:ising", unitary=True)
    assert is_unitary(unit.R, tol=1e-9)
    with pytest.raises(ConstraintViolated):
        catalog_get("perm:flip", unitary=True)


def test_glue_taxonomy():
    for entry_id in catalog_ids():
        if "glue" not in entry_id:
            continue
        binding = sample_entry_binding(entry_id, 21)
        assert glue_positions(entry_id, binding), entry_id


def test_ds_cross_check_to_second_family():
    # the k = s slash point maps onto the second family under an antidiagonal
    k, c, p, q = Fraction(3), Fraction(2), Fraction(5), Fraction(7)
    slash = catalog_get("hietarinta:slash", ParamBinding.of(k=k, p=c, q=c, s=k))
    Q = Matrix.from_rows([[0, p], [q, 0]])
    assert is_automorphism(slash, Q)
    image = ds_transform(slash, Q)
    target = catalog_get("hietarinta:slash-ds",
                         ParamBinding.of(k=k, p=c * p / q, q=c * q / p))
    assert image.R.eq(target.R)


def test_match2_family_list():
    fams = match2_family_list()
    assert [f[0] for f in fams] == ["F0", "Ff", "Fa", "F/"]
    assert fams[1][2] is catalog_entry("hietarinta:f")
    assert fams[2][2] is catalog_entry("hietarinta:a")
    for name, tableau, entry in fams:
        binding = sample_entry_binding(entry.id, 31)
        obj = catalog_get(entry.id, binding)
        assert is_charge_conserving(obj.R, 2)


def test_fa_spectrum_shape():
    binding = sample_entry_binding("match2:Fa", 7)
    from ybx.spectral import spectrum

    obj = catalog_get("match2:Fa", binding)
    spec = dict(spectrum(obj.R))
    k, p, q = binding["k"], binding["p"], binding["q"]
    assert spec[k * k] == 2 and spec[-p * q] == 2


def test_partition_counts():
    assert [partition_count(n) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert involutive_class_count(0) == 1
    assert involutive_class_count(4) == 20
    # N = 8 value derived from the partition-function oracle
    expected = sum(partition_count(k) * partition_count(8 - k) for k in range(9))
    assert involutive_class_count(8) == expected == 185
    assert [involutive_class_count(N) for N in range(13)] == [
        1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481, 752, 1165]


def test_involutive_counts_past_the_ceiling_are_refused_before_the_table(monkeypatch):
    import ybx.catalog as catalog

    def no_table(n):
        raise AssertionError("partition table built past the ceiling")

    monkeypatch.setattr(catalog, "_partition_counts", no_table)
    for N in (catalog._MAX_PARTITION_N + 1, 10 ** 8):
        with pytest.raises(SizeCeiling, match="ceiling"):
            involutive_class_count(N)


def test_enumeration_rank2_golden():
    result = enumerate_permutation_solutions(2)
    counts = result.counts
    # golden values from the first verified exhaustive run over all 24
    # candidates; the 2 non-degenerate involutive classes match the known
    # set-theoretic classification at |X| = 2
    assert counts["solutions"] == 5
    assert counts["classes"] == 5
    assert counts["nondegenerate"] == 4
    assert counts["involutive"] == 3
    assert counts["nondegenerate_involutive_classes"] == 2
    identity = tuple(range(4))
    flip = (0, 2, 1, 3)
    assert identity in result.solutions and flip in result.solutions
    for p in result.solutions:
        obj = permutation_to_ybo(p, 2)
        assert obj.verified
        Q = Matrix.from_rows([[1], [0], [0], [1]])
        assert duality_verify(obj, obj, Q, Q.transpose())


def test_enumeration_rejects_large_rank():
    with pytest.raises(UnsupportedRank):
        enumerate_permutation_solutions(4)


def test_enumeration_rank2_matches_is_ybe_over_all_permutations():
    # independent reference: every permutation matrix on 4 points through the
    # exact Yang-Baxter check of the representation layer
    reference = [p for p in itertools.permutations(range(4))
                 if is_ybe(YBObject(2, 1, Matrix.permutation(list(p)))).holds]
    assert enumerate_permutation_solutions(2).solutions == reference


# Frozen from the exhaustive search over all 9! permutations that the
# backtracking search replaced: the N = 3 solutions and classes, in order.
N3_SOLUTIONS_SHA256 = "c915479fd5e296b58df26194e9443583dc3b6b07df5d234ff20587ffbce9d433"
N3_CLASSES_SHA256 = "cbd4688d0c5cd18a499f4890fa10fe3503014530488c5ee065f5995541b5342d"


def test_enumeration_rank3_frozen_digests():
    result = enumerate_permutation_solutions(3)
    assert hashlib.sha256(repr(result.solutions).encode()).hexdigest() == N3_SOLUTIONS_SHA256
    assert hashlib.sha256(repr(result.classes).encode()).hexdigest() == N3_CLASSES_SHA256


def _braid_holds(p, N: int) -> bool:
    # points are pairs (x, y) at index x + N*y; on a triple (a, b, c), p x 1 replaces
    # (a, b) and 1 x p replaces (b, c)
    def low(a, b, c):
        v = p[a + N * b]
        return v % N, v // N, c

    def high(a, b, c):
        v = p[b + N * c]
        return a, v % N, v // N

    return all(low(*high(*low(*t))) == high(*low(*high(*t)))
               for t in itertools.product(range(N), repeat=3))


def test_enumeration_rank3_is_complete_near_every_solution():
    # composed here, without catalog code: every solution satisfies the braid relation
    # on all 27 triples, and a transposition neighbour of a solution that satisfies it
    # is itself listed, so no branch next to a real solution was cut wrongly
    solutions = enumerate_permutation_solutions(3).solutions
    listed = set(solutions)
    assert len(listed) == len(solutions) == 73
    for p in solutions:
        assert sorted(p) == list(range(9)) and _braid_holds(p, 3)
        for i, j in itertools.combinations(range(9), 2):
            q = list(p)
            q[i], q[j] = q[j], q[i]
            assert tuple(q) in listed or not _braid_holds(q, 3)


def _relabeled(p, pi, N: int):
    # the point (x, y) at index x + N*y goes to (pi[x], pi[y]), and p to its conjugate by
    # that map: the image of i goes to the image of p[i]
    def move(i):
        return pi[i % N] + N * pi[i // N]

    q = [None] * (N * N)
    for i, v in enumerate(p):
        q[move(i)] = move(v)
    return tuple(q)


@pytest.mark.parametrize("N", [2, 3])
def test_enumeration_classes_are_least_members_of_disjoint_orbits(N):
    # relabeled here, without catalog code: each class is the least member of its orbit,
    # the orbits of the classes are pairwise disjoint, and they cover the solutions
    result = enumerate_permutation_solutions(N)
    orbits = [{_relabeled(p, pi, N) for pi in itertools.permutations(range(N))}
              for p in result.classes]
    for p, orbit in zip(result.classes, orbits):
        assert p == min(orbit)
    union = set().union(*orbits)
    assert sum(len(orbit) for orbit in orbits) == len(union)
    assert sorted(union) == result.solutions
    assert result.classes == sorted(result.classes)
