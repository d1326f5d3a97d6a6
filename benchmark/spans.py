"""Spans recorded around rmtlab's public functions in the traced run.

Each function in LAYERS is wrapped once and the wrapper is swapped in
for every attribute of every loaded rmtlab module that holds the
original, so calls made through names other modules imported (for
example scenarios.cached_recurrence or cli.solve_support) are recorded
too.  A span holds its name, start, end, parent and whether it raised;
spans live in flat arrays while the run lasts and are written once at
the end.  Counts are taken at the same boundaries, from the arguments
and results of the wrapped call.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from contextlib import contextmanager
from importlib import import_module

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _quadrature_counts(add, args, kwargs, rule):
    # provenance reads "panels=P order=M depth=D nodes=N dropped=K ..."
    prov = dict(item.split("=", 1) for item in rule.provenance.split())
    kept = int(prov["nodes"])
    # every node is evaluated once in the rule and the doubled-order
    # mass check evaluates 2 * order more per panel
    evaluated = kept + int(prov["dropped"]) + 2 * int(prov["panels"]) * int(prov["order"])
    add("nodes", kept)
    add("evaluated", evaluated)


def _recurrence_counts(add, args, kwargs, rec):
    npts = _arg(args, kwargs, 0, "q").nodes.size
    m = _arg(args, kwargs, 1, "m_max")
    # two re-orthogonalization passes of 2 mat-vecs against j+1 vectors
    add("flops", 8.0 * npts * m * (m + 1) / 2)
    add("vector_mb", (m + 1) * npts * 8 / 1e6, peak=True)


def _kernel_matrix_counts(add, args, kwargs, out):
    n = _arg(args, kwargs, 1, "p").n
    add("point_steps", out.shape[0] * n + out.shape[1] * n)


def _kernel_diag_counts(add, args, kwargs, out):
    add("point_steps", np.size(out) * _arg(args, kwargs, 1, "p").n)


def _chain_counts(add, args, kwargs, result):
    state = result[1]
    add("proposals", state.propose_count)
    add("accepted", state.accept_count)


def _bytes_written(add, args, kwargs, out):
    add("bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


# (module, function, span name or None for "<module>.<function>", counter)
LAYERS = (
    ("orthopoly", "build_quadrature", None, _quadrature_counts),
    ("orthopoly", "stieltjes_recurrence", None, _recurrence_counts),
    ("orthopoly", "cached_recurrence", None, None),
    ("orthopoly", "gram_check", None, None),
    ("kernel", "kernel_matrix", None, _kernel_matrix_counts),
    ("kernel", "kernel_diag", None, _kernel_diag_counts),
    ("kernel", "projection_residual", None, None),
    ("kernel", "trace_check", None, None),
    ("kernel", "scaled_kernel_grid", None, None),
    ("kernel", "convergence_scan", None, None),
    ("specfun", "airy_ai", None, None),
    ("specfun", "bessel_j", None, None),
    ("equilibrium", "solve_support", None, None),
    ("equilibrium", "check_variational", None, None),
    ("equilibrium", "example_curve", None, None),
    ("classify", "find_critical_points", None, None),
    ("classify", "extract_model_data", None, None),
    ("sampler", "mcmc_chain", None, _chain_counts),
    ("potential", "log_weight", None, None),
    ("io", "write_csv", None, _bytes_written),
    ("io", "write_json", None, _bytes_written),
    ("cli", "cmd_validate", "cli.validate", None),
    ("cli", "cmd_equilibrium", "cli.equilibrium", None),
    ("cli", "cmd_classify", "cli.classify", None),
    ("cli", "cmd_kernel", "cli.kernel", None),
    ("cli", "cmd_converge", "cli.converge", None),
    ("cli", "cmd_sample", "cli.sample", None),
)

ROOT_SPAN = "bench.pass"


class Tracer:
    """Span store for one run; spans nest through a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.failed.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, failed: bool = False) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[i] = 1

    @contextmanager
    def span(self, name: str):
        i = self.open(self._id(name))
        try:
            yield
        except BaseException:
            self.close(i, failed=True)
            raise
        self.close(i)

    def add(self, key: str, value: float, peak: bool = False) -> None:
        old = self.counts.get(key, 0.0)
        self.counts[key] = max(old, value) if peak else old + value

    def wrap(self, name: str, fn, counter):
        nid = self._id(name)

        def add(quantity, value, peak=False):
            self.add(f"{name}.{quantity}", value, peak)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(i, failed=True)
                raise
            self.close(i)
            if counter is not None:
                counter(add, args, kwargs, out)
            return out

        return traced

    def by_name(self) -> dict[str, tuple[int, float, int, float]]:
        """name -> (calls, self seconds, calls that raised, total seconds).

        Self time is a span's duration minus the durations of its
        children; calls are sequential, so children never overlap.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        errors = np.bincount(name, weights=np.frombuffer(self.failed, dtype=np.int8),
                             minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        return {nm: (int(calls[i]), float(self_s[i]), int(errors[i]), float(total[i]))
                for i, nm in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            failed=np.frombuffer(self.failed, dtype=np.int8))


@contextmanager
def installed(tracer: Tracer):
    """Swap the traced wrappers into every loaded rmtlab module.

    The benchmark's workloads module imports some of the functions by
    name as well, so it is patched alongside.
    """
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k in ("rmtlab", "workloads") or k.startswith("rmtlab."))]
    patched = []
    for mod, fn_name, span_name, counter in LAYERS:
        orig = getattr(import_module(f"rmtlab.{mod}"), fn_name)
        wrapped = tracer.wrap(span_name or f"{mod}.{fn_name}", orig, counter)
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapped)
                    patched.append((m, attr, orig))
    try:
        yield
    finally:
        for m, attr, orig in patched:
            setattr(m, attr, orig)


def _fn(mod: str, fn: str, quantities: tuple[str, ...]):
    return [f"{mod}.{fn}.{q}" for q in quantities]


# Per-layer metric names in the order they are reported; every traced
# run reports all of them, with 0 for layers its workload does not use.
PER_LAYER = (
    _fn("orthopoly", "stieltjes_recurrence", ("calls", "self_s", "errors", "flops", "vector_mb"))
    + _fn("orthopoly", "build_quadrature", ("calls", "self_s", "nodes", "kept_ratio"))
    + _fn("orthopoly", "gram_check", ("self_s",))
    + _fn("kernel", "kernel_matrix", ("calls", "self_s", "point_steps"))
    + _fn("kernel", "kernel_diag", ("calls", "self_s", "point_steps"))
    + [f"kernel.{f}.self_s" for f in ("projection_residual", "trace_check",
                                      "scaled_kernel_grid", "convergence_scan")]
    + _fn("specfun", "airy_ai", ("calls", "self_s"))
    + _fn("specfun", "bessel_j", ("calls", "self_s"))
    + [m for f in ("solve_support", "check_variational", "example_curve")
       for m in _fn("equilibrium", f, ("calls", "self_s", "errors"))]
    + [f"classify.{f}.self_s" for f in ("find_critical_points", "extract_model_data")]
    + _fn("sampler", "mcmc_chain", ("self_s", "proposals", "us_per_proposal", "acceptance"))
    + _fn("potential", "log_weight", ("calls", "self_s"))
    + _fn("io", "write_csv", ("calls", "self_s", "bytes"))
    + _fn("io", "write_json", ("calls", "self_s", "bytes"))
    + [f"cli.{c}.self_s" for c in ("validate", "equilibrium", "classify", "kernel",
                                   "converge", "sample")]
    + ["trace.overhead_frac"]
    + [f"scan_s.{s}" for s in ("gue-bulk", "gue-edge", "quartic-merge",
                               "mp-hard-edge", "mp-two-charge")]
)

UNITS = {"calls": "count", "self_s": "s", "errors": "count", "flops": "flop",
         "vector_mb": "MB", "nodes": "count", "kept_ratio": "ratio",
         "point_steps": "count", "proposals": "count", "us_per_proposal": "us",
         "acceptance": "ratio", "bytes": "B", "overhead_frac": "ratio"}


def unit(metric: str) -> str:
    return "s" if metric.startswith("scan_s.") else UNITS[metric.rsplit(".", 1)[1]]


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass values of the span-derived metrics in PER_LAYER."""
    stats = tracer.by_name()
    counts = tracer.counts
    out = {}
    for metric in PER_LAYER:
        span, quantity = metric.rsplit(".", 1)
        calls, self_s, errors, total = stats.get(span, (0, 0.0, 0, 0.0))
        if quantity == "calls":
            out[metric] = calls / passes
        elif quantity == "self_s":
            out[metric] = self_s / passes
        elif quantity == "errors":
            out[metric] = errors / passes
        elif quantity == "kept_ratio":
            evaluated = counts.get(f"{span}.evaluated", 0.0)
            out[metric] = counts.get(f"{span}.nodes", 0.0) / evaluated if evaluated else 0.0
        elif quantity == "vector_mb":
            out[metric] = counts.get(f"{span}.vector_mb", 0.0)
        elif quantity == "us_per_proposal":
            # inclusive time: the log_weight calls are part of a proposal
            proposals = counts.get(f"{span}.proposals", 0.0)
            out[metric] = 1e6 * total / proposals if proposals else 0.0
        elif quantity == "acceptance":
            proposals = counts.get(f"{span}.proposals", 0.0)
            out[metric] = counts.get(f"{span}.accepted", 0.0) / proposals if proposals else 0.0
        elif span in ("trace", "scan_s"):
            continue   # the runner fills these in from pass timings
        else:
            out[metric] = counts.get(metric, 0.0) / passes
    return out
