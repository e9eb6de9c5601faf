"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ybx checkout (the package is imported from src/).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run.  A copy of the result with
raw seconds and any failure messages goes to perfbench/results/.
"""

from steady import steady_process

steady_process()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
WORKLOADS = ("represent", "decide", "search", "cli")   # module w_<name> each


def _setup_times(workload: str, seed: int) -> list:
    """SETUP_REPEATS set-ups, one at a time, each in a fresh process
    (setup_probe.py) timed from just before it starts until its inputs are
    ready, so that every import is paid in every repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        probe = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                               cwd=ROOT, capture_output=True, text=True, timeout=120)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up failed in a fresh process:\n{probe.stderr}")
        times.append(float(probe.stdout.split()[-1]) - start)
    return times


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ybx" / "__init__.py").is_file() or not (ROOT / "data").is_dir():
        print(f"error: no ybx source tree (src/ybx, data/) next to {HERE.name}/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = importlib.import_module(f"w_{args.workload}")

    import harness
    import ybx

    runner = harness.Runner(workload.ops(ybx, workload.setup(ybx, args.seed)))
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    if args.trace:
        import tracer

        metrics, detail["trace"] = tracer.traced_run(ybx, runner, args.seconds)
    else:
        detail["setup_s"] = setup_times = _setup_times(args.workload, args.seed)
        records = harness.passes_for(runner, args.seconds)
        summary = harness.end_to_end(records)
        detail["passes"] = [{"starts": r.starts, "calls_s": r.calls, "refs": r.refs}
                            for r in records]
        detail["summary"] = summary
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "pass_ref": _metric(summary["pass_ref"], "ref"),
            "call_p50_ref": _metric(summary["call_p50_ref"], "ref"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MB"),
        }
    outcome = runner.outcome
    result = {"correct": not outcome.wrong, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    detail.update(wrong=outcome.wrong, failures=outcome.failures, result=result)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str))
    for message in outcome.wrong[:10]:
        print(f"wrong: {message}", file=sys.stderr)
    for name, message in outcome.failures.items():
        print(f"failed: {name}: {message.splitlines()[0]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
