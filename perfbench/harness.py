"""Timing core: the reference loop, the pass loop and the summary figures.

The host this benchmark was written on changes speed by up to a factor of
two within seconds (process CPU time moves with wall time, so it is not
scheduling noise).  Raw seconds of two identical runs can then differ by far
more than any change worth detecting, so every timed call is divided by
`ref`: the wall time of one run of `reference_loop`, a fixed piece of
Fraction and dict arithmetic that uses no ybx or numpy code, timed in the
same process between the calls.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

from oracle import WrongOutput

clock = time.perf_counter


def reference_loop() -> int:
    """One unit of `ref`: about 2 ms of Fraction and dict arithmetic."""
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(1, 300):
        y = Fraction(i % 17 + 1, i % 13 + 2)
        x = (x * y + Fraction(1, i % 11 + 1)) / (y + 1)
        k = i % 23
        acc[k] = acc.get(k, 0) + x.numerator % 101
        if x.denominator > 10 ** 12:
            x = Fraction(x.numerator % 97 + 1, x.denominator % 89 + 1)
    return sum(acc.values())


def signed_arrangement(rng, names, magnitudes) -> dict:
    """Seeded values for `names`: the fixed `magnitudes` in a seeded order with
    seeded signs.  Outputs differ from seed to seed while the cost of exact
    arithmetic on the values (their bit lengths) stays the same."""
    mags = list(magnitudes)
    rng.shuffle(mags)
    return {name: m * rng.choice((1, -1)) for name, m in zip(names, mags)}


@dataclass
class Op:
    """One timed call.  `run` makes the call and returns its output; `check`
    raises WrongOutput for a wrong output, or OperationFailed when the call
    did not do what the program promises (the operation failed)."""

    name: str
    run: object
    check: object
    same: object = None     # cheap equality used on later passes, if given


class OperationFailed(Exception):
    """The operation did not complete as the program promises."""


# The host's speed toggles between two levels (a factor of about 1.7) every
# second or so.  A ref run right after each call samples the speed a short
# call ran at: without it (and with a 0.25 s window), over five seeds,
# call_p50_ref spread by 13% on cli and 10% on search instead of 2-6%.  A
# long call (the 10 s negative witness search) runs through both levels, so
# during a pass an interval timer also runs the reference loop every
# REF_INTERVAL_S, inside whatever call is running, and that time is taken
# out of the call's time.  Each call is then divided by the trimmed mean of
# the ref samples taken during it and within REF_WINDOW_S of it; a wider
# window (0.25 s) mixes in the other speed level and spread call_p50_ref by
# 5.7% on search and 7.7% on cli, against 2.8% and 4.2% with this one, over
# the same five runs of each.
REF_INTERVAL_S = 0.1
REF_WINDOW_S = 0.1
REF_TRIM = 0.1      # share of samples dropped at each end (interrupt spikes)


class RefSampler:
    """Runs the reference loop from SIGALRM every REF_INTERVAL_S while
    active, recording (end time, seconds) samples and the total time taken."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self) -> None:
        nested = self.spent         # an alarm may land inside this run
        t0 = clock()
        reference_loop()
        t1 = clock()
        d = t1 - t0 - (self.spent - nested)
        self.samples.append((t1, d))
        self.spent += d

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class PassRecord:
    starts: list = field(default_factory=list)  # clock() at the start of each op
    calls: list = field(default_factory=list)   # seconds per op, in op order
    refs: list = field(default_factory=list)    # (clock() at its end, seconds) per ref run


def trimmed_mean(values) -> float:
    values = sorted(values)
    k = int(len(values) * REF_TRIM)
    kept = values[k:len(values) - k]
    return sum(kept) / len(kept)


def in_ref(records: list) -> list:
    """Each call of each pass in units of the ref samples around it in time."""
    samples = sorted(x for r in records for x in r.refs)
    times = [t for t, _ in samples]
    out = []
    for r in records:
        row = []
        for start, c in zip(r.starts, r.calls):
            lo = bisect.bisect_left(times, start - REF_WINDOW_S)
            hi = bisect.bisect_right(times, start + c + REF_WINDOW_S)
            row.append(c / trimmed_mean(d for _, d in samples[lo:hi]))
        out.append(row)
    return out


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)      # messages of wrong outputs
    failures: dict = field(default_factory=dict)   # op name -> first failure message


class Runner:
    """Runs whole passes over a fixed op list and judges every output."""

    def __init__(self, ops):
        self.ops = ops
        self.outcome = Outcome()
        self._first = {}

    def run_pass(self, wrap=None) -> PassRecord:
        """One pass; `wrap(op)` may return a replacement callable (tracing),
        in which case no ref samples are taken, so that the per-layer times
        hold no reference loop.

        The cyclic garbage collector is off inside a pass and runs between
        passes: a collection that happens to fall into a timed call or a ref
        run costs in proportion to the whole heap, not to that call's work.
        """
        gc.collect()
        gc.disable()
        try:
            if wrap is not None:
                return self._pass(wrap, None)
            with RefSampler() as sampler:
                return self._pass(None, sampler)
        finally:
            gc.enable()

    def _pass(self, wrap, sampler) -> PassRecord:
        rec = PassRecord()
        for op in self.ops:
            call = wrap(op) if wrap else op.run
            error = None
            spent = sampler.spent if sampler else 0.0
            t0 = clock()
            try:
                out = call()
            except Exception:   # the benchmark boundary: record and go on
                error = traceback.format_exc(limit=3)
                out = None
            t1 = clock()
            rec.starts.append(t0)
            rec.calls.append(t1 - t0 - ((sampler.spent - spent) if sampler else 0.0))
            if sampler:
                sampler.sample()
            self._judge(op, out, error)
        if sampler:
            rec.refs = sampler.samples
        return rec

    def _judge(self, op: Op, out, error) -> None:
        o = self.outcome
        o.attempted += 1
        try:
            if error is not None:
                raise OperationFailed(f"raised:\n{error}")
            first = self._first.get(op.name)
            if first is not None and op.same is not None and op.same(out, first):
                return
            op.check(out)
            if op.same is not None:
                self._first[op.name] = out
        except OperationFailed as exc:
            o.failed += 1
            o.failures.setdefault(op.name, str(exc))
        except WrongOutput as exc:
            o.wrong.append(f"{op.name}: {exc}")


def passes_for(runner: Runner, seconds: float) -> list:
    """Whole passes until `seconds` have elapsed; at least one."""
    start = clock()
    records = [runner.run_pass()]
    while clock() - start < seconds:
        records.append(runner.run_pass())
    return records


def end_to_end(records: list) -> dict:
    """pass_ref: median over passes of the pass time in ref units.
    call_p50_ref: median over ops of each op's median over passes, so that
    the jitter of single short calls does not decide which call is the
    median one.  ref_s and pass_s are the raw seconds beside them."""
    normalized = in_ref(records)
    return {
        "pass_ref": statistics.median(sum(p) for p in normalized),
        "call_p50_ref": statistics.median(statistics.median(op) for op in zip(*normalized)),
        "ref_s": trimmed_mean(d for r in records for _, d in r.refs),
        "pass_s": statistics.median(sum(r.calls) for r in records),
    }
