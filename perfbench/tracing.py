"""Span tracing of stochmap's public functions, installed from outside.

`Tracer.install` replaces each listed function in every ``stochmap`` module
namespace that binds it, so calls made inside the package are seen as well
as calls made by the benchmark.  Each call becomes a span with a parent; a
span's self time is its duration minus the time of its child spans.  Counts
that need no timing (field and basis constructions, sampled points, bytes
written) are taken at the same boundaries.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# every module of the package, so that each namespace binding a traced
# function is loaded before the bindings are replaced
PACKAGE_MODULES = ("grid", "calculus", "noise", "maps", "forms", "invariants", "models",
                   "convergence", "config", "fldio", "runner_support", "runner", "verify", "cli")

# (module, function) pairs whose calls become spans
TRACED = (
    ("models", "tsw_spde_step"),
    ("models", "tsw_deterministic_rhs"),
    ("models", "advection_diffusion_rhs"),
    ("models", "two_step_forecast"),
    ("maps", "make_increment"),
    ("maps", "inverse_increment"),
    ("maps", "forward_map"),
    ("noise", "sample_increments"),
    ("noise", "ito_drift_correction"),
    ("forms", "perturb_0form"),
    ("forms", "perturb_nform"),
    ("forms", "perturb_1form"),
    ("forms", "pushforward_nvector"),
    ("forms", "oracle_remap"),
    ("calculus", "derivative"),
    ("calculus", "sample_at"),
    ("invariants", "tsw_invariants"),
    ("fldio", "write_field"),
)
# set-up functions: spans too, reported per run
SETUP = (
    ("config", "load_config"),
    ("runner_support", "build_basis"),
)
CONSTRUCTED = (("grid", "ScalarField"), ("noise", "NoiseBasis"))


class Tracer:
    def __init__(self):
        self.recording = False
        self.keep_spans = False
        self.spans: list[tuple[int, int, str, int, int]] = []   # id, parent, name, start, end (ns)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []                            # [id, name, start, child ns]
        self._next_id = 1

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])
        self._next_id += 1

    def end(self) -> None:
        stop = time.perf_counter_ns()
        span_id, name, start, child = self._stack.pop()
        duration = stop - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if self.keep_spans:
            self.spans.append((span_id, parent, name, start, stop))

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.counts.clear()

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        for name in PACKAGE_MODULES:
            importlib.import_module(f"stochmap.{name}")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "stochmap" or name.startswith("stochmap."))]
        for mod_name, fn_name in TRACED + SETUP:
            original = getattr(sys.modules[f"stochmap.{mod_name}"], fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapped)
        for mod_name, cls_name in CONSTRUCTED:
            cls = getattr(sys.modules[f"stochmap.{mod_name}"], cls_name)
            self._count_constructions(f"{mod_name}.{cls_name}.constructions", cls)

    def _wrap(self, name: str, fn):
        tracer = self
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if measure is not None:
                key, amount = measure(args, kwargs)
                tracer.counts[key] += amount
            return result

        return wrapper

    def _count_constructions(self, key: str, cls) -> None:
        tracer = self
        original = cls.__post_init__

        def __post_init__(obj):
            if tracer.recording:
                tracer.counts[key] += 1
            original(obj)

        cls.__post_init__ = __post_init__

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(str(x) for x in span) + "\n")


def _sample_at_points(args, kwargs):
    field = args[0] if args else kwargs["f"]
    points = args[1] if len(args) > 1 else kwargs["points"]
    return "calculus.sample_at.points", int(np.size(points)) // field.grid.dim


def _write_field_bytes(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return "fldio.write_field.bytes", os.path.getsize(path)


_MEASURES = {
    "calculus.sample_at": _sample_at_points,
    "fldio.write_field": _write_field_bytes,
}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for mod_name, fn_name in TRACED:
        units[f"{mod_name}.{fn_name}.calls"] = "1/increment"
        units[f"{mod_name}.{fn_name}.self_ms"] = "ms/increment"
    units["runner_support.build_basis.calls"] = "1/increment"
    units["timed_call.self_ms"] = "ms/increment"
    units["grid.ScalarField.constructions"] = "1/increment"
    units["noise.NoiseBasis.constructions"] = "1/increment"
    units["calculus.sample_at.points"] = "points/increment"
    units["fldio.write_field.bytes"] = "B/run"
    for mod_name, fn_name in SETUP:
        units[f"{mod_name}.{fn_name}.self_ms"] = "ms/run"
    units["traced.increments_per_s"] = "1/s"
    return units
