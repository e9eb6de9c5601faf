"""Scaling curves for single ybx calls, in raw seconds and in `ref` units.

    python3 perfbench/curves.py

Times each call REPEATS times, as one-call passes of the benchmark's
runner (so `ref` is sampled and applied as in a benchmark run), and prints
the median seconds and the median in `ref` units.  Rows:
rho of the half twist on hietarinta:slash for n = 4..8, is_ybe on the
3-cable of the deformed flip, p_equivalent(hietarinta:a, itself) at p = 2, 3,
enumerate_permutation_solutions for N = 2, 3 on one process, and the
negative witness search on the 9x9 pair.
"""

from __future__ import annotations

from steady import steady_process

steady_process()

import sys  # noqa: E402
from fractions import Fraction as F  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import w_represent  # noqa: E402
import w_search  # noqa: E402
import ybx  # noqa: E402

REPEATS = 3


def rows():
    slash = ybx.catalog_get("hietarinta:slash", ybx.ParamBinding.of(k=2, q=3, p=F(1, 2), s=-3))
    for n in range(4, 9):
        yield f"rho(half_twist_word({n})) hietarinta:slash", \
            lambda n=n: ybx.rho(slash, ybx.half_twist_word(n))
    cable3 = ybx.cable(w_represent.deformed_flip(ybx, F(2)), 3, verify=False)
    yield "is_ybe(3-cable of the deformed flip, 64x64)", lambda: ybx.is_ybe(cable3)
    a = ybx.catalog_get("hietarinta:a", ybx.ParamBinding.of(k=2, p=3, q=F(1, 2)))
    for p in (2, 3):
        yield f"p_equivalent(hietarinta:a, itself, p={p})", lambda p=p: ybx.p_equivalent(a, a, p)
    for N in (2, 3):
        yield f"enumerate_permutation_solutions({N}), one process", \
            lambda N=N: ybx.enumerate_permutation_solutions(N)
    R, S = (ybx.YBObject(3, 1, ybx.Matrix.from_numpy(M)) for M in w_search.gaussian_pair())
    yield "local_witness_search(9x9 pair, full), negative", \
        lambda: ybx.local_witness_search(R, S, strategy="full", seed=w_search.SEARCH_SEED)


def main() -> int:
    print(f"{'call':58s} {'median s':>10s} {'median ref':>11s}")
    for label, call in rows():
        runner = harness.Runner([harness.Op(label, call, lambda out: None)])
        summary = harness.end_to_end([runner.run_pass() for _ in range(REPEATS)])
        print(f"{label:58s} {summary['pass_s']:10.4f} {summary['pass_ref']:11.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
