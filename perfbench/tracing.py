"""Per-layer tracing from outside the package.

``Tracer.install`` wraps every public function of each layer module, and
every name another package module imported it under, so calls between
layers pass through the wrappers (``mechanisms.indirect_allocate``,
``equilibrium.run_mechanism``, ``scenarios.is_nash`` and so on).  No
file under ``src/`` changes.

Each wrapped call is a span (name, start, end, parent span, op id) kept
in memory in flat arrays.  The per-agent leaf functions, above all
``QualityModel.q`` (about a million calls per 40 game-mechanism pairs),
are aggregated per (kind or name, parent) into call counts and time
instead.  A layer's self time is its spans' time minus the time of the
calls made inside them.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from collections import Counter, defaultdict

import price_display_auctions as pkg
from price_display_auctions import (
    allocation,
    cli,
    equilibrium,
    mechanisms,
    model,
    quality,
    scenarios,
    serialization,
)

LAYERS = (quality, model, allocation, mechanisms, equilibrium, scenarios,
          serialization, cli)
# Per-agent leaf functions: aggregated, not spans.
AGGREGATED = {"quality.q", "model.declared_value", "model.true_value"}
# Wrapped names the per-layer metrics read; a missing one is an error.
REQUIRED = (
    "quality.q", "quality.standalone_price", "quality.audit_quality",
    "model.declared_welfare", "model.true_welfare",
    "allocation.indirect_allocate", "allocation.direct_allocate",
    "mechanisms.run_mechanism", "mechanisms.run_direct_vcg",
    "mechanisms.run_indirect_vcg", "mechanisms.run_indirect_gsp",
    "mechanisms.run_indirect_vcg_star",
    "equilibrium.efficiency_report", "equilibrium.enumerate_pure_nash",
    "equilibrium.is_nash",
    "scenarios.reproduce", "serialization.load_instance", "cli.main",
)
MECHANISM_RUNS = ("mechanisms.run_direct_vcg", "mechanisms.run_indirect_vcg",
                  "mechanisms.run_indirect_gsp",
                  "mechanisms.run_indirect_vcg_star")
SPAN_METRICS = ("quality.audit_quality", "quality.standalone_price",
                "allocation.indirect_allocate", "allocation.direct_allocate",
                *MECHANISM_RUNS, "model.declared_welfare", "model.true_welfare",
                "equilibrium.efficiency_report",
                "equilibrium.enumerate_pure_nash", "equilibrium.is_nash",
                "scenarios.reproduce", "serialization.load_instance",
                "cli.main")
QUALITY_KINDS = ("only-min", "price-threshold", "psi-hyperbola",
                 "smooth-decay", "tabulated")
LAYER_NAMES = tuple(m.__name__.rsplit(".", 1)[1] for m in LAYERS)


def _space_size(args, kwargs):
    return ("equilibrium.profiles", _argument(
        equilibrium.enumerate_pure_nash, "space", args, kwargs).size)


def _file_size(args, kwargs):
    path = _argument(serialization.load_instance, "path", args, kwargs)
    return "serialization.bytes_read", os.path.getsize(path)


def _argument(fn, name, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


# Counters read from a call's arguments, before the call.
HOOKS = {"equilibrium.enumerate_pure_nash": _space_size,
         "serialization.load_instance": _file_size}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Open calls: [name id, span index or -1, child time].
        self._stack: list[list] = []
        self.reset()

    def reset(self):
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.calls = Counter()        # name id -> calls
        self.self_time = defaultdict(float)
        self.leaf = defaultdict(lambda: [0, 0.0])  # (label, parent id) -> [calls, s]
        self.errors = Counter()       # layer -> exceptions leaving it
        self.counts = Counter()       # hook counters

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # ----------------------------------------------------------- wrapping

    def _wrap(self, name, fn, label=None):
        """``label(args)`` names the aggregation bucket of a leaf call."""
        nid = self._id(name)
        layer = name.split(".")[0]
        aggregated = name in AGGREGATED
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if hook is not None:
                key, amount = hook(args, kwargs)
                self.counts[key] += amount
            parent = stack[-1] if stack else None
            span = -1
            if not aggregated:
                span = len(self.span_name)
                self.span_name.append(nid)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                self.span_parent.append(parent[1] if parent else -1)
                self.span_op.append(self.op)
            frame = [nid, span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if parent is None or self.names[parent[0]].split(".")[0] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[2] += elapsed
                self.calls[nid] += 1
                self.self_time[nid] += elapsed - frame[2]
                if aggregated:
                    cell = self.leaf[(label(args) if label else name,
                                      parent[0] if parent else -1)]
                    cell[0] += 1
                    cell[1] += elapsed
                else:
                    self.span_start[span] = start
                    self.span_end[span] = end

        return wrapper

    def install(self):
        """Wrap every public function of every layer and rebind each name
        it is imported under anywhere in the package.  Raises if a name the
        metrics need is missing, or if an unwrapped binding remains."""
        modules = [pkg] + [m for m in vars(pkg).values()
                           if inspect.ismodule(m)
                           and m.__name__.startswith(pkg.__name__ + ".")]
        originals = {}
        for layer, short in zip(LAYERS, LAYER_NAMES):
            for attr, obj in list(vars(layer).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == layer.__name__):
                    originals[obj] = self._wrap(f"{short}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(module, attr, originals[obj])
        leftover = [f"{m.__name__}.{a}" for m in modules
                    for a, o in vars(m).items()
                    if inspect.isfunction(o) and o in originals]
        if leftover:
            raise RuntimeError(f"unwrapped bindings remain: {leftover}")

        base = quality.QualityModel
        if "q" not in vars(base):
            raise RuntimeError("QualityModel.q is missing")
        overriding = [c.__name__ for c in _subclasses(base) if "q" in vars(c)]
        if overriding:
            raise RuntimeError(f"QualityModel.q is overridden by {overriding}; "
                               "the tracer wraps only the base method")
        base.q = self._wrap("quality.q", base.q, label=lambda a: a[0].kind)
        for cls in [base] + _subclasses(base):
            if "standalone_price" in vars(cls):
                cls.standalone_price = self._wrap("quality.standalone_price",
                                                  vars(cls)["standalone_price"])
        missing = [n for n in REQUIRED if n not in self._ids]
        if missing:
            raise RuntimeError(f"traced names missing from the package: {missing}")

    # ------------------------------------------------------------ results

    def metrics(self):
        """Per-layer metrics of everything recorded since the last reset."""
        ids = self._ids
        out = {}
        for name in SPAN_METRICS:
            out[f"{name}.calls"] = self.calls[ids[name]]
            out[f"{name}.self_s"] = self.self_time[ids[name]]
        q = ids["quality.q"]
        out["quality.q.calls"] = self.calls[q]
        out["quality.q.self_s"] = self.self_time[q]
        for kind in QUALITY_KINDS:
            out[f"quality.q.calls.{kind}"] = sum(
                c for (label, _), (c, _) in self.leaf.items() if label == kind)
        layer_of = [n.split(".")[0] for n in self.names]
        for layer in LAYER_NAMES:
            out[f"{layer}.self_s"] = sum(
                t for nid, t in self.self_time.items() if layer_of[nid] == layer)
            out[f"{layer}.errors"] = self.errors[layer]

        run_ids = {ids[n] for n in MECHANISM_RUNS}
        mechanism_ids = run_ids | {ids["mechanisms.run_mechanism"]}
        allocator_calls = mechanism_runs = 0
        names, parents = self.span_name, self.span_parent
        for i, nid in enumerate(names):
            parent = parents[i]
            if parent < 0:
                continue
            pid = names[parent]
            if layer_of[nid] == "allocation" and pid in run_ids:
                allocator_calls += 1
            if nid in mechanism_ids and layer_of[pid] == "equilibrium":
                mechanism_runs += 1
        runs = sum(self.calls[i] for i in run_ids)
        out["mechanisms.allocator_calls"] = allocator_calls
        out["mechanisms.runs"] = runs
        out["mechanisms.allocations_per_run"] = (allocator_calls / runs
                                                 if runs else 0.0)
        profiles = self.counts["equilibrium.profiles"]
        out["equilibrium.profiles"] = profiles
        out["equilibrium.mechanism_runs"] = mechanism_runs
        out["equilibrium.runs_per_profile"] = (mechanism_runs / profiles
                                               if profiles else 0.0)
        out["serialization.bytes_read"] = self.counts["serialization.bytes_read"]
        return out

    def write(self, path):
        """Spans as tab-separated lines, then the aggregated leaf calls."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i, nid in enumerate(self.span_name):
                fh.write(f"{i}\t{self.names[nid]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t"
                         f"{self.span_op[i]}\n")
            fh.write("leaf\tlabel\tparent\tcalls\ttime_s\n")
            for (label, parent), (calls, secs) in sorted(self.leaf.items()):
                pname = self.names[parent] if parent >= 0 else "-"
                fh.write(f"leaf\t{label}\t{pname}\t{calls}\t{secs:.9f}\n")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out
