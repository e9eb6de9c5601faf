"""represent: exact braid representation and Yang-Baxter verification.

Dense generator images and stored zeros in Matrix.mul and kron cost the most
here; elimination and numpy barely run.  Inputs: three catalog families at
seeded bindings (two exact-q, one exact-qi), half-twist words, their
conjugates by a seeded letter and the inverses of those on 4..7 strands,
braid relations on 6 strands, 2-cables of each family, the 3-cable of the
a-type family, and the printed 2-cable of the deformed flip at x = 2.

Most calls cost the same on every seed (the slash-glue-2 conjugate words
vary most, by about a third), and the median call of a pass falls among seven calls of
10-13 ref (rho of the a-type half twist and its conjugates on 6 strands, of
the F/ conjugate words on 5 strands, is_ybe of two 2-cables).  The braid
relations are checked on 6 strands, not 5, to keep it there: on 5 they put
two more calls below the median, which then fell in the gap between 8 and
10 ref and spread call_p50_ref by 8% over ten seeds instead of 4%.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import oracle
from harness import Op, signed_arrangement
from oracle import expect

MAGNITUDES = (F(2), F(3), F(1, 2), F(3, 2), F(2, 3))
GAUSSIAN_PARTS = (F(1), F(2), F(1, 2), F(3, 2))     # real and imaginary parts

STRANDS = (4, 5, 6, 7)


def _family_bindings(ybx, rng):
    G = ybx.GaussianRational

    def gaussian_fslash():
        v = signed_arrangement(rng, ("alpha", "chi"), MAGNITUDES)
        parts = signed_arrangement(rng, "abcd", GAUSSIAN_PARTS)
        return dict(v, beta=G(parts["a"], parts["b"]), gamma=G(parts["c"], parts["d"]))

    return [
        ("hietarinta:a", lambda: signed_arrangement(rng, "kpq", MAGNITUDES)),
        ("hietarinta:slash-glue-2", lambda: signed_arrangement(rng, "kqps", MAGNITUDES)),
        ("match2:F/", gaussian_fslash),
    ]


def _seeded_word(ybx, rng, n):
    """The half twist conjugated by a seeded letter g: g Delta g^-1.  Its image
    differs from seed to seed, while its cost does not: a word of seeded
    letters fills in at a seeded pace, and its rho cost varied by up to half
    between seeds, which moved the median call of a pass."""
    g = rng.choice((1, -1)) * rng.randint(1, n - 1)
    return ybx.BraidWord.of(n, [g, *ybx.half_twist_word(n).letters, -g])


def deformed_flip(ybx, x):
    return ybx.make_ybo(2, ybx.Matrix.from_rows([
        [1, 0, 0, 0],
        [0, 1 + x, -x, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1]]))


def printed_cable_16(x):
    """The printed 16x16 two-cable of the deformed flip (y = x + 1)."""
    y = x + 1
    rows = [[0] * 16 for _ in range(16)]
    entries = {
        0: {0: 1}, 1: {1: y, 2: -x * y, 4: x ** 2}, 2: {1: y, 2: -x * y, 8: x ** 2},
        3: {3: y ** 2 * (1 - x), 5: -x * y, 6: x ** 2 * y, 9: x ** 2 * y, 10: -x ** 3 * y,
            12: x ** 4},
        4: {1: 1}, 5: {3: y, 5: -x}, 6: {3: y, 9: -x}, 7: {7: y, 11: -x * y, 13: x ** 2},
        8: {2: 1}, 9: {3: y, 6: -x}, 10: {3: y, 10: -x}, 11: {7: y, 11: -x * y, 14: x ** 2},
        12: {3: 1}, 13: {7: 1}, 14: {11: 1}, 15: {15: 1},
    }
    for r, cols in entries.items():
        for c, v in cols.items():
            rows[r][c] = v
    return [[F(v) for v in row] for row in rows]


def setup(ybx, seed: int) -> dict:
    rng = random.Random(seed)
    families = []
    for fid, draw in _family_bindings(ybx, rng):
        while True:
            try:
                obj = ybx.catalog_get(fid, ybx.ParamBinding(draw()))
                break
            except ybx.YbxError:     # a constraint vanished: draw again
                continue
        words = {n: _seeded_word(ybx, rng, n) for n in STRANDS}
        families.append((fid, obj, words))
    return {"families": families, "flip": deformed_flip(ybx, F(2))}


def _same_matrix(a, b):
    return a.rows == b.rows and a.data == b.data


def _same_report(a, b):
    return (a.holds, a.residual) == (b.holds, b.residual)


def ops(ybx, inputs: dict) -> list:
    out = []
    for fid, obj, words in inputs["families"]:
        out.extend(_family_ops(ybx, fid, obj, words, cable3=fid == "hietarinta:a"))
    flip = inputs["flip"]
    printed = printed_cable_16(F(2))

    def check_printed(c):
        expect(c.level == 2 and c.R.data == printed, "2-cable differs from the printed matrix")

    out.append(Op("deformed-flip/cable2", lambda: ybx.cable(flip, 2), check_printed,
                  lambda a, b: _same_matrix(a.R, b.R)))
    return out


def _family_ops(ybx, fid, obj, words, cable3):
    R_np = oracle.to_numpy(obj.R)
    slot = obj.slot_dim
    seen = {}

    def check_rho(n, letters, key=None):
        def check(M):
            expect(oracle.np_close(oracle.to_numpy(M), oracle.np_rho(R_np, slot, n, letters)),
                   f"rho on {n} strands differs from the numpy product")
            if key is not None:
                seen[key] = M
        return check

    def check_inverse(n, letters):
        numeric = check_rho(n, letters)

        def check(M):
            numeric(M)
            expect(oracle.is_identity(oracle.matmul(seen[n].data, M.data)),
                   f"rho(w) rho(w^-1) is not exactly the identity on {n} strands")
        return check

    def check_true(v):
        expect(v is True, "braid relations reported to fail")

    def check_cable(k):
        word = ybx.cabled_crossing_word(k)

        def check(c):
            expect(c.level == k, "cable has the wrong level")
            expect(oracle.np_close(oracle.to_numpy(c.R),
                                   oracle.np_rho(R_np, slot, 2 * k, word.letters)),
                   f"{k}-cable differs from the numpy image of the cabled crossing")
            seen[f"cable{k}"] = c
        return check

    def check_exact_ybe(k):
        def check(report):
            expect(report.holds and report.residual == 0,
                   f"YBE residual {report.residual} on the {k}-cable is not exactly 0")
        return check

    ops = []
    for n in STRANDS:
        ht = ybx.half_twist_word(n)
        ops.append(Op(f"{fid}/rho-half-twist-{n}", lambda ht=ht: ybx.rho(obj, ht),
                      check_rho(n, ht.letters), _same_matrix))
    for n, w in words.items():
        winv = w.inverse()
        ops.append(Op(f"{fid}/rho-word-{n}", lambda w=w: ybx.rho(obj, w),
                      check_rho(n, w.letters, key=n), _same_matrix))
        ops.append(Op(f"{fid}/rho-word-inverse-{n}", lambda w=winv: ybx.rho(obj, w),
                      check_inverse(n, winv.letters), _same_matrix))
    ops.append(Op(f"{fid}/braid-relations-6", lambda: ybx.braid_relations_check(obj, 6),
                  check_true, lambda a, b: a == b))
    for k in ((2, 3) if cable3 else (2,)):
        ops.append(Op(f"{fid}/cable-{k}", lambda k=k: ybx.cable(obj, k, verify=False),
                      check_cable(k), lambda a, b: _same_matrix(a.R, b.R)))
        ops.append(Op(f"{fid}/is_ybe-cable-{k}", lambda k=k: ybx.is_ybe(seen[f"cable{k}"]),
                      check_exact_ybe(k), _same_report))
    return ops
