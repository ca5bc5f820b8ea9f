"""Per-layer tracing from outside the program: spans around fibquiver's
public functions, installed by rebinding module globals.

A span records its name, start, end, parent span and job id. Spans live in
flat arrays while the benchmark runs and are written out at the end. A
layer's self time is its spans' durations minus the part their child spans
cover. Functions that other modules import by name are rebound at every
binding site (module globals and dict-valued registries such as
suites.SUITES), or the calls made through those names would be missed.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

# (span name, module, function names). One name may cover several functions.
SPANS = (
    ("fibcore.fib", "fibcore", ("fib",)),
    ("fibcore.classify_pair", "fibcore", ("classify_pair",)),
    ("fibcore.enumerate_pairs", "fibcore", ("enumerate_pairs",)),
    ("profiles.u_step", "profiles", ("u_step",)),
    ("profiles.radial_step", "profiles", ("radial_step",)),
    ("profiles.sums", "profiles", ("u_sums", "radial_sums")),
    ("profiles.partition_report", "profiles", ("partition_report",)),
    ("profiles.expand_compress", "profiles",
     ("expand_radial", "expand_biradial", "compress_radial", "compress_biradial", "compress_signed_classes")),
    ("reflect.big_sigma", "reflect", ("big_sigma",)),
    ("reflect.vec", "reflect", ("s_vec_at", "r_vec_at")),
    ("catident.check", "catident", ("check_prop41", "check_cor42", "check_cor43")),
    ("suites.run", "suites", ("run_prop41", "run_cor42", "run_cor43", "run_oracle", "run_sums", "run_three_term", "run_pairs")),
    ("oeis.run_check", "oeis", ("run_check",)),
    ("cli.build_parser", "cli", ("build_parser",)),
    ("cli.payload", "cli",
     ("payload_fib", "payload_classify", "payload_pairs", "payload_utable", "payload_partition",
      "payload_svec", "payload_rvec", "payload_verify", "payload_oeis")),
    ("cli.emit", "cli", ("emit",)),
)

# Called too often for a span each; counted only.
COUNTED = (("tree.calls", "tree", ("neighbors", "distance")),)

JOB_SPAN = "job"

# The per-layer metrics a traced run reports, with their units.
LAYER_METRICS = {
    "fibcore.fib.calls": "count",
    "fibcore.fib.self_s": "s",
    "fibcore.fib.max_index": "index",
    "fibcore.classify_pair.calls": "count",
    "fibcore.classify_pair.self_s": "s",
    "fibcore.classify_pair.pair_frac": "frac",
    "fibcore.enumerate_pairs.self_s": "s",
    "profiles.u_step.calls": "count",
    "profiles.u_step.self_s": "s",
    "profiles.radial_step.calls": "count",
    "profiles.radial_step.self_s": "s",
    "profiles.sums.self_s": "s",
    "profiles.partition_report.self_s": "s",
    "profiles.cells": "count",
    "profiles.max_bits": "bits",
    "profiles.expand_compress.self_s": "s",
    "reflect.big_sigma.calls": "count",
    "reflect.big_sigma.self_s": "s",
    "reflect.vec.self_s": "s",
    "reflect.support_peak": "vertices",
    "reflect.cap": "steps",
    "tree.calls": "count",
    "catident.check.calls": "count",
    "catident.check.self_s": "s",
    "suites.run.calls": "count",
    "suites.run.self_s": "s",
    "suites.run.checked": "count",
    "oeis.run_check.self_s": "s",
    "oeis.records": "count",
    "cli.build_parser.self_s": "s",
    "cli.payload.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.out_bytes": "B",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """Span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_id = array("i")
        self.open: list[int] = []
        self.job = -1
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.open[-1] if self.open else -1)
        self.job_id.append(self.job)
        self.end.append(0.0)
        self.open.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.open.pop()

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, n: int) -> None:
        if n > self.maxima.get(key, 0):
            self.maxima[key] = n

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name."""
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (self.end[i] - self.start[i]) - covered[i]
        return calls, self_s

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV, one row per span."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,name,start,end,parent,job\n")
            for i in range(len(self.start)):
                f.write(f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},{self.parent[i]},{self.job_id[i]}\n")


def _observe(tracer: Tracer, name: str, args, kwargs, result) -> None:
    """Counters read at a span's boundary, from its arguments and result."""
    if name == "fibcore.fib":
        tracer.peak("fibcore.fib.max_index", abs(args[0]))
    elif name == "fibcore.classify_pair":
        tracer.add("fibcore.classify_pair.accepted", result.kind != "NotAPair")
    elif name in ("profiles.u_step", "profiles.radial_step"):
        tracer.add("profiles.cells", len(result.values))
        tracer.peak("profiles.max_bits", max(result.values).bit_length())
    elif name == "reflect.big_sigma":
        tracer.peak("reflect.support_peak", len(result.items()))
    elif name == "reflect.vec":
        tracer.peak("reflect.cap", kwargs.get("cap", sys.modules["fibquiver.reflect"].ORACLE_CAP))
    elif name == "suites.run":
        tracer.add("suites.run.checked", result.checked)
    elif name == "oeis.run_check":
        tracer.add("oeis.records", result.checked)
    elif name == "cli.emit":
        tracer.add("cli.out_bytes", len(result))  # every format is ASCII-only


def _spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
            _observe(tracer, name, args, kwargs, result)
            return result
        finally:
            tracer.finish(i)

    return traced


def _counted(tracer: Tracer, key: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return counted


class Installed:
    """Rebinds every binding site of the traced functions; undo() restores."""

    def __init__(self, tracer: Tracer):
        self.undo_log: list[tuple[dict, str, object]] = []
        modules = [m for n, m in sys.modules.items() if n == "fibquiver" or n.startswith("fibquiver.")]
        replace: dict[int, Callable] = {}
        for name, module, funcs in SPANS:
            for f in funcs:
                fn = getattr(sys.modules[f"fibquiver.{module}"], f)
                replace[id(fn)] = _spanned(tracer, name, fn)
        for key, module, funcs in COUNTED:
            tracer.counts.setdefault(key, 0)
            for f in funcs:
                fn = getattr(sys.modules[f"fibquiver.{module}"], f)
                replace[id(fn)] = _counted(tracer, key, fn)
        for m in modules:
            space = vars(m)
            self._rebind(space, replace)
            for value in list(space.values()):
                if isinstance(value, dict) and value is not space:
                    self._rebind(value, replace)

    def _rebind(self, space: dict, replace: dict[int, Callable]) -> None:
        for k, v in list(space.items()):
            new: Optional[Callable] = replace.get(id(v))
            if new is not None:
                self.undo_log.append((space, k, v))
                space[k] = new

    def undo(self) -> None:
        for space, k, v in reversed(self.undo_log):
            space[k] = v
        self.undo_log.clear()


def layer_metrics(tracer: Tracer, passes: int, overhead_frac: float) -> dict[str, float]:
    """LAYER_METRICS for one pass of the job list: counts and self times are
    averaged over the traced passes, maxima and ratios are not. A layer the
    workload never calls reads 0."""
    calls, self_s = tracer.self_times()
    found: dict[str, float] = {"trace.overhead_frac": overhead_frac, **tracer.maxima}
    for name, _, _ in SPANS:
        found[f"{name}.calls"] = calls.get(name, 0) / passes
        found[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
    for key, n in tracer.counts.items():
        found[key] = n / passes
    classified = calls.get("fibcore.classify_pair", 0)
    accepted = tracer.counts.get("fibcore.classify_pair.accepted", 0)
    found["fibcore.classify_pair.pair_frac"] = accepted / classified if classified else 0.0
    return {key: found.get(key, 0) for key in LAYER_METRICS}
