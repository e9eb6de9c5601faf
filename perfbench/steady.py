"""Process settings that keep a benchmark process steady.  Call
`steady_process()` before numpy is first imported."""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def steady_process() -> None:
    """One BLAS/OpenMP thread, and this process pinned to one CPU.

    The CPUs of a shared host can differ in speed by a factor of 1.7 from
    minute to minute, and a process that migrates between them mid-run mixes
    two speeds into the ratio of each call to `ref`.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
