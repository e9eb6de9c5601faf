from fractions import Fraction

import pytest

from conftest import random_invertible, sampled_catalog_object
from ybx.braid import BraidWord
from ybx.catalog import catalog_get
from ybx.constructions import (
    boxplus,
    cable,
    ds_certificates_check,
    ds_transform,
    farr_obj,
    flip_conj,
    inverse_obj,
    is_automorphism,
    lash,
    phi_q,
    scale_obj,
    transpose_obj,
)
from ybx.core import YBObject, is_group_type, make_ybo, rho
from ybx.errors import NotAnAutomorphism, SizeCeiling, YbxError, ZeroMu
from ybx.expressions import ParamBinding
from ybx.spectral import eig_to_complex, spectrum
from ybx.structure import intertwiner_space, segre_eigenvectors
from ybx.tensor import Matrix, kron, swap_matrix


def ff_case(x):
    return make_ybo(2, Matrix.from_rows([
        [1, 0, 0, 0],
        [0, 1 + x, -x, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1]]))


def test_cable_identity():
    obj = YBObject(2, 1, Matrix.identity(4))
    for k in (1, 2):
        out = cable(obj, k)
        assert out.R.eq(Matrix.identity(4 ** k))


def test_cable_is_the_crossing_word_image():
    obj = ff_case(Fraction(2))
    out = cable(obj, 2)
    manual = rho(obj, BraidWord.of(4, [2, 1, 3, 2]))
    assert out.R.eq(manual)
    assert out.level == 2 and out.N == 2 and out.verified


def test_cable_composition():
    # level-4 output: compare matrices without the (4096-dim) re-verification
    obj = ff_case(Fraction(3))
    twice = cable(cable(obj, 2), 2, verify=False)
    once = cable(obj, 4, verify=False)
    assert twice.R.eq(once.R)


def test_cable_spectrum_template():
    for xval in (Fraction(2), Fraction(3), Fraction(-2)):
        out = cable(ff_case(xval), 2)
        spec = {v: m for v, m in spectrum(out.R)}
        expected = {Fraction(1): 5, -xval * xval: 3, -xval: 4,
                    -xval ** 3: 1, xval: 3}
        assert spec == expected


def test_size_ceiling_before_allocation():
    obj = sampled_catalog_object("hietarinta:a", 1)
    with pytest.raises(SizeCeiling):
        cable(obj, 6, verify=False)              # 2^12 rows
    assert cable(obj, 3, verify=False).R.rows == 64
    with pytest.raises(SizeCeiling):
        cable(obj, 4)                            # verifying needs 2^12 rows
    big = YBObject(6, 1, Matrix.identity(36))
    assert lash(big, obj, verify=False).N == 12
    with pytest.raises(SizeCeiling):
        lash(big, obj)                           # verifying needs 12^3 rows
    with pytest.raises(SizeCeiling):
        intertwiner_space(obj, obj, 11)          # 2^11 rows, 2^22 unknowns


def test_lash_unit():
    unit = YBObject(1, 1, Matrix.identity(1))
    B = sampled_catalog_object("hietarinta:a", 1)
    assert lash(unit, B).R.eq(B.R)
    assert lash(B, unit).R.eq(B.R)


def test_lash_spectrum_is_products():
    A = sampled_catalog_object("match2:F/", 2)
    B = sampled_catalog_object("match2:F/", 3)
    out = lash(A, B)
    lhs = sorted(
        (round(eig_to_complex(v).real, 6), round(eig_to_complex(v).imag, 6))
        for v, m in spectrum(out.R) for _ in range(m))
    products = []
    for va, ma in spectrum(A.R):
        for vb, mb in spectrum(B.R):
            z = eig_to_complex(va) * eig_to_complex(vb)
            products.extend([(round(z.real, 6), round(z.imag, 6))] * (ma * mb))
    assert lhs == sorted(products)


def test_lash_group_type_closure(rng):
    from ybx.core import group_type_build

    gA = random_invertible(rng, 2)
    gB = random_invertible(rng, 2)
    A = group_type_build([gA, gA], verify=True)
    B = group_type_build([gB, gB], verify=True)
    out = lash(A, B)
    assert is_group_type(out.R, 4)


def test_lash_associativity():
    objs = [sampled_catalog_object("match2:F/", s) for s in (4, 5, 6)]
    lhs = lash(lash(objs[0], objs[1]), objs[2])
    rhs = lash(objs[0], lash(objs[1], objs[2]))
    assert lhs.R.eq(rhs.R)


def test_lash_braided_commutativity():
    A = sampled_catalog_object("hietarinta:slash", 7)
    B = sampled_catalog_object("match2:F/", 8)
    P = swap_matrix(A.N, B.N)
    PP = kron(P, P)
    lhs = PP.mul(lash(A, B).R)
    rhs = lash(B, A).R.mul(PP)
    assert lhs.eq(rhs)


def test_boxplus_rank1_blocks():
    a, b, mu = Fraction(3), Fraction(5), Fraction(7)
    A = YBObject(1, 1, Matrix.from_rows([[a]]))
    B = YBObject(1, 1, Matrix.from_rows([[b]]))
    out = boxplus(A, B, mu)
    expected = Matrix.from_rows([
        [a, 0, 0, 0],
        [0, 0, mu, 0],
        [0, mu, 0, 0],
        [0, 0, 0, b]])
    assert out.R.eq(expected)
    from ybx.core import is_charge_conserving

    assert is_charge_conserving(out.R, 2)


def test_boxplus_involutive_closure():
    from ybx.core import is_involutive
    from ybx.equivalence import weighted_flip

    A = make_ybo(2, weighted_flip(2, [Fraction(1), Fraction(-1)]))
    B = make_ybo(1, Matrix.from_rows([[Fraction(-1)]]))
    assert is_involutive(A.R) and is_involutive(B.R)
    out = boxplus(A, B, Fraction(1))
    assert is_involutive(out.R) and out.verified
    # the involutive class is closed under lashing as well
    C = make_ybo(2, weighted_flip(2, [Fraction(-1), Fraction(1)]))
    lashed = lash(A, C)
    assert is_involutive(lashed.R) and lashed.verified


def test_boxplus_random_verified(rng):
    A = sampled_catalog_object("hietarinta:a", 11)
    B = sampled_catalog_object("match2:F/", 12)
    for mu in (Fraction(1), Fraction(2), Fraction(-1, 3)):
        out = boxplus(A, B, mu)
        assert out.verified and out.N == 4
    with pytest.raises(ZeroMu):
        boxplus(A, B, Fraction(0))


def test_ds_transform_identity():
    obj = sampled_catalog_object("hietarinta:f", 13)
    out = ds_transform(obj, Matrix.identity(2))
    assert out.R.eq(obj.R)


def test_ds_transform_diagonal_on_fslash(rng):
    obj = sampled_catalog_object("match2:F/", 14)
    Q = Matrix.diagonal([Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9))])
    assert is_automorphism(obj, Q)
    out = ds_transform(obj, Q)
    assert out.verified


def test_is_automorphism_honours_tol():
    # Q (x) Q commutes with the flip for every Q; only the rank test decides
    flip = YBObject(2, 1, swap_matrix(2, 2))
    Q = Matrix.from_numpy([[1.0, 0.0], [0.0, 1e-7j]])
    assert is_automorphism(flip, Q)
    assert is_automorphism(flip, Q, tol=1e-9)
    assert not is_automorphism(flip, Q, tol=1e-6)


def test_ds_transform_requires_automorphism():
    obj = sampled_catalog_object("hietarinta:slash", 15)  # generic p != q
    Q = Matrix.from_rows([[0, 3], [5, 0]])
    with pytest.raises(NotAnAutomorphism):
        ds_transform(obj, Q)


def test_ds_slash_to_second_family():
    # slash with k = s and p = q = c admits every antidiagonal automorphism;
    # the transform lands in the second family at (k, cp/q, cq/p)
    k, c, p, q = Fraction(2), Fraction(5), Fraction(3), Fraction(7)
    slash = catalog_get("hietarinta:slash", ParamBinding.of(k=k, p=c, q=c, s=k))
    Q = Matrix.from_rows([[0, p], [q, 0]])
    assert is_automorphism(slash, Q)
    out = ds_transform(slash, Q)
    target = catalog_get("hietarinta:slash-ds",
                         ParamBinding.of(k=k, p=c * p / q, q=c * q / p))
    assert out.R.eq(target.R)
    assert ds_certificates_check(slash, Q, 4)


def test_ds_remark_composition(rng):
    # two-slot conjugation by a pair of automorphisms collapses to a
    # one-sided transform by their difference:
    #   (Q (x) Q') R (Q (x) Q')^-1 = (QQ'^-1 (x) I) R (QQ'^-1 (x) I)^-1
    obj = sampled_catalog_object("match2:F/", 16)
    Q = Matrix.diagonal([Fraction(2), Fraction(3)])
    Qp = Matrix.diagonal([Fraction(5), Fraction(7)])
    lhs = kron(Q, Qp).mul(obj.R).mul(kron(Q.inverse(), Qp.inverse()))
    rhs = ds_transform(obj, Q.mul(Qp.inverse())).R
    assert lhs.eq(rhs)
    # equivalently, conjugation by (Q (x) Q'^-1) is the transform by QQ'
    lhs2 = kron(Q, Qp.inverse()).mul(obj.R).mul(kron(Q.inverse(), Qp))
    rhs2 = ds_transform(obj, Q.mul(Qp)).R
    assert lhs2.eq(rhs2)


def test_ds_certificates_generic_diagonal():
    obj = sampled_catalog_object("match2:F/", 17)
    Q = Matrix.diagonal([Fraction(2), Fraction(5)])
    assert ds_certificates_check(obj, Q, 4)
    assert ds_certificates_check(obj, Q, 2)
    # n = 2 is the first braid group: a smaller n_max would certify nothing
    for n_max in (1, 0, -2):
        with pytest.raises(YbxError, match="n_max must be at least 2"):
            ds_certificates_check(obj, Q, n_max)


def test_phi_q_and_flip():
    obj = sampled_catalog_object("hietarinta:eight-vertex", 18)
    assert phi_q(obj, Matrix.identity(2)).R.eq(obj.R)
    assert flip_conj(flip_conj(obj)).R.eq(obj.R)


def test_transpose_moves_segre_side():
    R = Matrix.from_rows([
        [5, 0, 0, 0],
        [0, 3, 2, 0],
        [0, 5, 0, 0],
        [0, 5, 2, -2]])
    obj = make_ybo(2, R)
    right = segre_eigenvectors(obj, side="right")
    left = segre_eigenvectors(obj, side="left")
    lams_right = {eig_to_complex(l) for _, l in right.pairs}
    assert complex(-2) in lams_right
    assert complex(-2) not in {eig_to_complex(l) for _, l in left.pairs}
    flipped = transpose_obj(obj)
    left_t = segre_eigenvectors(flipped, side="left")
    assert complex(-2) in {eig_to_complex(l) for _, l in left_t.pairs}


def test_farr_obj():
    obj = sampled_catalog_object("hietarinta:a", 19)
    out = farr_obj(obj)
    assert out.verified
    assert farr_obj(out).R.eq(obj.R)


def test_closure_50_cases(rng):
    ids = ["hietarinta:slash", "hietarinta:a", "hietarinta:f", "match2:F/",
           "hietarinta:eight-vertex"]
    count = 0
    for seed in range(10):
        obj = sampledobj = sampled_catalog_object(ids[seed % len(ids)], 100 + seed)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for out in (scale_obj(obj, lam), inverse_obj(obj), transpose_obj(obj),
                    flip_conj(obj), phi_q(obj, random_invertible(rng, 2))):
            assert out.verified
            count += 1
    assert count == 50
