"""One set-up in a fresh process, timed by run.py.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports ybx, makes the workload's inputs from SEED exactly as a benchmark run
does, and prints time.monotonic() once they are ready.  run.py reads the
clock just before it starts this process, so the difference is the set-up
time from process start, interpreter start-up and every import included.
"""

from steady import steady_process

steady_process()

import importlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

workload = importlib.import_module(f"w_{sys.argv[1]}")

import ybx  # noqa: E402

workload.setup(ybx, int(sys.argv[2]))
print(time.monotonic())
