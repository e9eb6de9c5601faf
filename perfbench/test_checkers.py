"""Tests of the benchmark itself: each workload's checker rejects a wrong
output.  Run from the repository root with

    python3 -m pytest perfbench/test_checkers.py

(tier-1 collects tests/ only, so these stay out of it).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import w_cli  # noqa: E402
import w_decide  # noqa: E402
import w_represent  # noqa: E402
import w_search  # noqa: E402
import ybx  # noqa: E402
import ybx.cli  # noqa: E402,F401
from harness import OperationFailed  # noqa: E402
from oracle import WrongOutput  # noqa: E402

SEED = 3


def _ops(workload):
    return {op.name: op for op in workload.ops(ybx, workload.setup(ybx, SEED))}


def _perturbed(M, r=0, c=0, delta=F(1, 7)):
    data = [list(row) for row in M.data]
    data[r][c] = data[r][c] + delta
    return ybx.Matrix(M.rows, M.cols, M.backend, data)


# -- represent ----------------------------------------------------------------------


def test_represent_rejects_perturbed_rho():
    ops = _ops(w_represent)
    op = ops["hietarinta:a/rho-half-twist-5"]
    good = op.run()
    op.check(good)
    with pytest.raises(WrongOutput):
        op.check(_perturbed(good, 3, 5))


def test_represent_rejects_inverse_that_is_not_exact():
    ops = _ops(w_represent)
    forward = ops["hietarinta:a/rho-word-4"]
    forward.check(forward.run())
    inverse = ops["hietarinta:a/rho-word-inverse-4"]
    good = inverse.run()
    inverse.check(good)
    with pytest.raises(WrongOutput):   # below the float tolerance, not exact
        inverse.check(_perturbed(good, 0, 0, F(1, 10 ** 15)))


def test_represent_rejects_nonzero_residual_and_wrong_printed_cable():
    ops = _ops(w_represent)
    cable = ops["hietarinta:a/cable-2"]
    cable.check(cable.run())
    report = ops["hietarinta:a/is_ybe-cable-2"].run()
    bad = type(report)(holds=True, residual=1e-30, witness=None)
    with pytest.raises(WrongOutput):
        ops["hietarinta:a/is_ybe-cable-2"].check(bad)
    printed = ops["deformed-flip/cable2"]
    good = printed.run()
    printed.check(good)
    with pytest.raises(WrongOutput):
        printed.check(ybx.YBObject(2, 2, _perturbed(good.R, 3, 12)))


# -- decide --------------------------------------------------------------------------


def test_decide_rejects_perturbed_intertwiner():
    ops = _ops(w_decide)
    op = ops["p_equivalent/hietarinta:a~twin"]
    cert = op.run()
    op.check(cert)
    cert.intertwiners[3] = _perturbed(cert.intertwiners[3], 2, 2)
    with pytest.raises(WrongOutput):
        op.check(cert)


def test_decide_rejects_wrong_verdicts_and_jordan_data():
    ops = _ops(w_decide)
    distinct = ops["p_equivalent/hietarinta:a~hietarinta:f"]
    cert = distinct.run()
    distinct.check(cert)
    cert.verdict = "equivalent"
    with pytest.raises(WrongOutput):
        distinct.check(cert)
    jordan = ops["jordan_structure/hietarinta:f"]
    data = jordan.run()
    jordan.check(data)
    with pytest.raises(WrongOutput):
        jordan.check([(v, [2, 1] if len(b) == 3 else b) for v, b in data])


def test_decide_rejects_bad_endomorphism_and_missing_witness():
    ops = _ops(w_decide)
    end = ops["end_search/commutant/hietarinta:a"]
    result = end.run()
    end.check(result)
    result.elements.append(type(result.elements[0])(
        ybx.Matrix.from_rows([[1, 1], [0, 1]]), 2))
    with pytest.raises(WrongOutput):
        end.check(result)
    witness = ops["local_witness_search/diagonal/hietarinta:a"]
    witness.check(witness.run())
    with pytest.raises(WrongOutput):
        witness.check(None)


# -- search --------------------------------------------------------------------------


def test_search_rejects_none_perturbed_witness_and_found_negative():
    ops = _ops(w_search)
    name = "local_witness_search/full/grouptype:single-g#4~twin"
    Q = ops[name].run()
    ops[name].check(Q)
    with pytest.raises(WrongOutput):
        ops[name].check(None)
    with pytest.raises(WrongOutput):
        ops[name].check(ybx.Matrix.from_numpy(oracle.to_numpy(Q) + 1e-3))
    with pytest.raises(WrongOutput):
        ops["local_witness_search/full/gaussian-pair"].check(ybx.Matrix.from_numpy(np.eye(3)))
    missed = ops["local_witness_search/full/hietarinta:a-glue~twin(fixed)"]
    with pytest.raises(OperationFailed):
        missed.check(None)
    with pytest.raises(WrongOutput):
        missed.check(ybx.Matrix.from_numpy(np.eye(2)))
    peq = ops["p_equivalent/ising~case-a"]
    cert = peq.run()
    peq.check(cert)
    cert.failed_n = 2
    with pytest.raises(WrongOutput):
        peq.check(cert)


# -- cli -----------------------------------------------------------------------------


def _edit_json(result, edit):
    code, stdout, stderr, tb = result
    report = json.loads(stdout)
    edit(report)
    return code, json.dumps(report), stderr, tb


def test_cli_rejects_wrong_counts_and_exit_codes():
    ops = _ops(w_cli)
    enum = ops["enum-perm/2"]
    good = enum.run()
    enum.check(good)
    with pytest.raises(WrongOutput):
        enum.check(_edit_json(good, lambda r: r["counts"].update(classes=4)))
    with pytest.raises(WrongOutput):
        enum.check(_edit_json(good, lambda r: r["counts"].update(
            nondegenerate_involutive_classes=3)))
    count = ops["count-involutive/4"]
    good = count.run()
    count.check(good)
    with pytest.raises(WrongOutput):
        count.check(_edit_json(good, lambda r: r.update(count=21)))
    equiv = ops["equiv/hietarinta-a.json~hietarinta-f.json"]
    good = equiv.run()
    equiv.check(good)
    with pytest.raises(WrongOutput):
        equiv.check((0,) + good[1:])


def test_cli_malformed_inputs_fail_unless_exit_3_with_message():
    op = _ops(w_cli)["malformed/negative-samples"]
    with pytest.raises(OperationFailed):
        op.check(op.run())                      # exits 0 today
    op.check((3, "", "error: --samples must be positive\n", None))
    with pytest.raises(OperationFailed):
        op.check((3, "", "", None))             # no message
    with pytest.raises(OperationFailed):
        op.check((None, "", "", "Traceback ..."))


# -- harness and tracer ----------------------------------------------------------------


def test_runner_counts_failures_and_wrong_outputs():
    def wrong(_):
        raise WrongOutput("no")

    def boom():
        raise RuntimeError("boom")

    runner = harness.Runner([harness.Op("ok", lambda: 1, lambda v: None),
                             harness.Op("wrong", lambda: 1, wrong),
                             harness.Op("raises", boom, lambda v: None)])
    runner.run_pass()
    runner.run_pass()
    o = runner.outcome
    assert (o.attempted, o.failed, len(o.wrong)) == (6, 2, 2)


def test_traced_counts_repeat_and_match_benchmark_json():
    ops = [op for op in _ops(w_decide).values() if op.name.startswith("p_equivalent/")]
    counts = []
    for _ in range(2):
        metrics, _raw = tracer.traced_run(ybx, harness.Runner(ops), 0.0)
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["equivalence.p_equivalent.calls"] == len(ops)
    assert counts[0]["equivalence.intertwiner_dims.sum"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert all(m["unit"] == metrics[m["name"]]["unit"] for m in spec["per_layer"])
