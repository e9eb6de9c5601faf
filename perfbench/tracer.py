"""Per-layer tracing from outside the program.

The traced run replaces public functions of the ybx modules (and
numpy.linalg.svd) with wrappers that count calls and measure self time, and
counts Fraction and GaussianRational arithmetic.  Nothing in ybx is edited:
every module-level name bound to a traced function is rebound for the run
and restored afterwards.

A layer's self time is the time inside its calls minus the time inside
traced calls they make, including the wrappers' own bookkeeping, so that
bookkeeping shows up as overhead of the run rather than as work of a layer.
Re-entrant calls within one layer (Matrix.inverse calling solve_right) count
once, at the outermost entry.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from fractions import Fraction

import harness

clock = time.perf_counter


def _nnz(M) -> int:
    return sum(1 for row in M.data for v in row if v)


def _mul_extra(st, args, kwargs, result):
    A, B = args[0], args[1]
    st["scanned"] = st.get("scanned", 0) + A.rows * A.cols + B.rows * B.cols
    st["nonzero"] = st.get("nonzero", 0) + _nnz(A) + _nnz(B)


def _cells(key):
    def extra(st, args, kwargs, result):
        st[key] = st.get(key, 0) + result.rows * result.cols
    return extra


def _elim_extra(st, args, kwargs, result):
    M = args[0]
    st["unknowns"] = st.get("unknowns", 0) + M.cols
    st["scanned"] = st.get("scanned", 0) + M.rows * M.cols
    st["nonzero"] = st.get("nonzero", 0) + _nnz(M)


def _pequiv_extra(st, args, kwargs, result):
    st["dims_sum"] = st.get("dims_sum", 0) + sum(result.dims.values())


# layer -> (owner path, attribute names, extra counter)
TARGETS = {
    "tensor.mul": ("ybx.tensor.Matrix", ("mul",), _mul_extra),
    "tensor.kron": ("ybx.tensor", ("kron",), _cells("out_cells")),
    "tensor.elim": ("ybx.tensor.Matrix",
                    ("rref", "rank", "nullspace", "solve_right", "inverse", "det"), _elim_extra),
    "core.generator_image": ("ybx.core", ("generator_image",), _cells("cells")),
    "core.rho": ("ybx.core", ("rho",), None),
    "core.is_ybe": ("ybx.core", ("is_ybe",), None),
    "core.braid_relations_check": ("ybx.core", ("braid_relations_check",), None),
    "constructions.cable": ("ybx.constructions", ("cable",), None),
    "spectral.char_poly": ("ybx.spectral", ("char_poly",), None),
    "spectral.spectrum": ("ybx.spectral", ("spectrum",), None),
    "spectral.jordan_structure": ("ybx.spectral", ("jordan_structure",), None),
    "structure.rank1_symmetric_elements": ("ybx.structure", ("rank1_symmetric_elements",), None),
    "structure.end_search": ("ybx.structure", ("end_search",), None),
    "equivalence.p_equivalent": ("ybx.equivalence", ("p_equivalent",), _pequiv_extra),
    "equivalence.local_witness_search": ("ybx.equivalence", ("local_witness_search",), None),
    "equivalence.x_symmetry_check": ("ybx.equivalence", ("x_symmetry_check",), None),
    "catalog.catalog_get": ("ybx.catalog", ("catalog_get",), None),
    "catalog.enumerate_permutation_solutions": (
        "ybx.catalog", ("enumerate_permutation_solutions",), None),
    "expressions.eval_expr": ("ybx.expressions", ("eval_expr",), None),
    "cli.main": ("ybx.cli", ("main",), None),
    "numpy.linalg.svd": ("numpy.linalg", ("svd",), None),
}

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__", "__pow__")


def _resolve(path: str):
    """A module, or a class given as module.Class."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    def __init__(self):
        self.stats = {name: {"calls": 0, "self_s": 0.0} for name in TARGETS}
        self.scalar_ops = {"scalars.fraction.ops": 0, "scalars.gaussian.ops": 0}
        self.stack = []            # [layer, child seconds] per open traced call
        self._patches = []         # (owner, attribute, original)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer, fn, extra):
        stack, st = self.stack, self.stats[layer]

        def traced(*args, **kwargs):
            outer = all(frame[0] != layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                st["self_s"] += (t1 - t0) - frame[1]
                if outer:
                    st["calls"] += 1
                    if extra is not None and result is not None:
                        extra(st, args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - t0

        return traced

    def _count(self, key, fn):
        counts, stack = self.scalar_ops, self.stack

        def counted(*args):
            if stack:
                counts[key] += 1
            return fn(*args)

        return counted

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, ybx) -> None:
        owners = {path: _resolve(path) for path, _, _ in TARGETS.values()}
        modules = [m for name, m in sys.modules.items()
                   if (name == "ybx" or name.startswith("ybx.")) and m is not None]
        for layer, (path, attrs, extra) in TARGETS.items():
            owner = owners[path]
            for attr in attrs:
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original, extra)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapper)
                    continue
                # rebind every module-level name bound to the function
                for m in modules + [owner]:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, name, wrapper)
        for attr in FRACTION_OPS:
            self._set(Fraction, attr, self._count("scalars.fraction.ops", Fraction.__dict__[attr]))
        gaussian = ybx.scalars.GaussianRational
        for attr in FRACTION_OPS:
            if attr in gaussian.__dict__:
                self._set(gaussian, attr,
                          self._count("scalars.gaussian.ops", gaussian.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def root(self, op):
        """The op's call as a root span, so scalar arithmetic made anywhere
        inside it is counted and its children's time is subtracted."""
        stack = self.stack

        def call():
            frame = ["workload", 0.0]
            stack.append(frame)
            try:
                return op.run()
            finally:
                stack.pop()
        return call


# Per-layer metrics beyond calls and self_s: layer -> {quantity: unit}.
EXTRA_UNITS = {
    "tensor.mul": {"nnz_frac": "ratio"},
    "tensor.kron": {"out_cells": "count"},
    "tensor.elim": {"unknowns": "count", "nnz_frac": "ratio"},
    "core.generator_image": {"cells": "count"},
}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in TARGETS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        for quantity, unit in EXTRA_UNITS.get(layer, {}).items():
            units[f"{layer}.{quantity}"] = unit
    units["equivalence.intertwiner_dims.sum"] = "count"
    units["scalars.fraction.ops"] = "count"
    units["scalars.gaussian.ops"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


def traced_run(ybx, runner: harness.Runner, seconds: float):
    """Alternate untraced and traced passes for `seconds`; returns the
    per-layer metrics (per traced pass) and the raw figures."""
    tracer = Tracer()
    plain, traced = [], []
    start = clock()
    while True:
        plain.append(runner.run_pass())
        tracer.install(ybx)
        try:
            traced.append(runner.run_pass(wrap=tracer.root))
        finally:
            tracer.uninstall()
        if clock() - start >= seconds:
            break
    n = len(traced)
    values = {}
    for layer, st in tracer.stats.items():
        values[f"{layer}.calls"] = st["calls"] / n
        values[f"{layer}.self_s"] = st["self_s"] / n
        for quantity in EXTRA_UNITS.get(layer, {}):
            if quantity == "nnz_frac":
                values[f"{layer}.nnz_frac"] = (st.get("nonzero", 0) / st["scanned"]
                                               if st.get("scanned") else 0.0)
            else:
                values[f"{layer}.{quantity}"] = st.get(quantity, 0) / n
    values["equivalence.intertwiner_dims.sum"] = (
        tracer.stats["equivalence.p_equivalent"].get("dims_sum", 0) / n)
    for key, count in tracer.scalar_ops.items():
        values[key] = count / n
    # Raw seconds: traced passes take no ref samples, since a ref run inside
    # a traced call would be counted as that layer's work.  Plain and traced
    # passes alternate, so host drift mostly cancels.
    plain_s = statistics.median(sum(r.calls) for r in plain)
    traced_s = statistics.median(sum(r.calls) for r in traced)
    values["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    units = metric_units()
    raw = {"plain_pass_s": [sum(r.calls) for r in plain],
           "traced_pass_s": [sum(r.calls) for r in traced],
           "stats": tracer.stats, "scalar_ops": tracer.scalar_ops}
    return {k: {"value": values[k], "unit": units[k]} for k in units}, raw
