"""Span tracing of the ftstack layers, installed from outside the package.

``Tracer.install`` replaces the public functions and methods of each layer
module (plus the few private ones a metric needs) with timing wrappers, and
rebinds every module-level reference to them: ``policy`` and ``harness``
import functions by name, and ``harness`` dispatches trials through a dict.
Each call records a span: request id, name, span id, the parent span,
start, end, self time (duration minus the time its child spans cover) and
call-specific counts. Spans stay in memory until the run writes
them out. Calls made in worker processes (``run_scenario`` with ``jobs`` above
one) are not seen; the benchmark runs every request with one job.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import weakref
from collections import defaultdict
from enum import Enum
from time import perf_counter
from typing import NamedTuple

import numpy as np

LAYERS = ("spatial", "estimation", "sensor", "surfaces", "world", "policy", "scenario", "harness")

# private callables traced besides each layer's public surface, for the metrics below
PRIVATE = {
    "spatial": ("Wrench.__post_init__",),
    "world": ("World._contact_at",),
}

DESCEND = "world.World.descend_until_contact"
SAMPLE = "sensor.ForceTorqueSensor.sample"


class Span(NamedTuple):
    request: int        # request id within the traced phase; -1 outside requests
    name: str           # layer.function or layer.Class.method
    sid: int
    parent: int | None  # sid of the enclosing span
    start: float        # perf_counter seconds
    end: float
    self_s: float       # duration minus the time covered by child spans
    extra: dict | None  # call-specific counts


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[list] = []   # open spans: [sid, child_seconds]
        self._next = 0
        self._patches: list[tuple] = []
        self._raster_filled = weakref.WeakKeyDictionary()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        """``before(args, kwargs)`` returns (args, kwargs, state) for the call;
        ``after(state, args, kwargs, result, exc)`` returns the span's counts."""
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            sid = tracer._next
            tracer._next += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                end = perf_counter()
                stack.pop()
                extra = after(state, args, kwargs, result, exc) if after is not None else None
                if stack:
                    # the wrapper's own work is tracer overhead, kept out of the parent's self time
                    stack[-1][1] += perf_counter() - entered
                tracer.spans.append(Span(tracer.request, name, sid, parent,
                                         start, end, end - start - frame[1], extra))

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, name: str):
        return {
            DESCEND: (self._descend_before, self._descend_after),
            "surfaces.HeightField.stamp_disk": (self._stamp_before, self._stamp_after),
            "surfaces.HeightField.stamp_square": (self._stamp_before, self._stamp_after),
            "surfaces.HeightField.height": (None, self._raster_height_after),
            "estimation.estimate_contact": (None, _degenerate_after),
        }.get(name, (None, _points_after if name.endswith(".height") else None))

    def install(self) -> None:
        """Wrap every layer; restore with ``uninstall``."""
        from ftstack.world import World

        self._descend_sig = inspect.signature(World.descend_until_contact)
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ftstack.{layer}")
            private = PRIVATE.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_") or attr in private):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj, *self._hooks(f"{layer}.{attr}"))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, Enum)):
                    self._wrap_class(layer, obj, private)
        # rebind references taken at import: from-imports and the harness dispatch tables
        for mod in [m for n, m in sys.modules.items() if n == "ftstack" or n.startswith("ftstack.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._patch_item(obj, key, wrapped[value])

    def _wrap_class(self, layer: str, cls, private) -> None:
        for attr, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if attr.startswith("_") and qual not in private:
                continue
            name = f"{layer}.{qual}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__, *self._hooks(name)))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, *self._hooks(name)))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw, *self._hooks(name))
            else:
                continue  # properties and class constants
            self._patch(cls, attr, new)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append(("attr", owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _patch_item(self, table: dict, key, new) -> None:
        self._patches.append(("item", table, key, table[key]))
        table[key] = new

    def uninstall(self) -> None:
        for kind, owner, key, original in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._patches.clear()

    # -- call-specific counts ---------------------------------------------

    def _descend_before(self, args, kwargs):
        bound = self._descend_sig.bind(*args, **kwargs)
        on_step = bound.arguments.get("on_step")
        steps = [0]
        if on_step is not None:
            def counted(wrench, _inner=on_step):
                steps[0] += 1
                return _inner(wrench)
            bound.arguments["on_step"] = counted
        return bound.args, bound.kwargs, (bound, steps, on_step is not None)

    @staticmethod
    def _descend_after(state, args, kwargs, result, exc):
        bound, steps, tapped = state
        if tapped or result is None:
            return {"steps": steps[0], "tapped": tapped}
        # untapped descent: the loop count follows from the approach and stop heights
        world = bound.arguments["self"]
        travel = float(bound.arguments["start_tip_z"]) - float(result[1])
        n = int(np.ceil(travel / world.params.descent_step - 1e-9))
        return {"steps": n + 1, "tapped": False}

    @staticmethod
    def _stamp_before(args, kwargs):
        return args, kwargs, args[0].values.copy()

    def _stamp_after(self, before, args, kwargs, result, exc):
        raster = args[0]
        self._raster_filled[raster] = True
        return {"scanned": int(raster.values.size),
                "written": int(np.count_nonzero(raster.values != before))}

    def _raster_height_after(self, state, args, kwargs, result, exc):
        raster = args[0]
        filled = self._raster_filled.get(raster)
        if filled is None:
            filled = bool(np.isfinite(raster.values).any())
            self._raster_filled[raster] = filled
        return {"points": int(np.size(result)) if result is not None else 0,
                "empty": not filled}


def _points_after(state, args, kwargs, result, exc):
    return {"points": int(np.size(result)) if result is not None else 0}


def _degenerate_after(state, args, kwargs, result, exc):
    return {"degenerate": type(exc).__name__ == "DegenerateNormalForce"}


# -- metrics ------------------------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Summary:
    """Per-layer metrics from the spans of ``requests`` traced requests."""

    def __init__(self, spans: list, requests: int):
        # spans outside any request (request id -1) are set-up work, such as scenario loading
        self.requests = max(requests, 1)
        self.spans = [s for s in spans if s.request >= 0]
        self.by_name = defaultdict(list)
        self.setup_by_name = defaultdict(list)
        self.by_id = {}
        for span in spans:
            (self.by_name if span.request >= 0 else self.setup_by_name)[span.name].append(span)
            self.by_id[span.sid] = span

    def named(self, *names) -> list:
        return [s for n in names for s in self.by_name.get(n, ())]

    def count(self, *names) -> int:
        return len(self.named(*names))

    def per_request(self, value: float) -> float:
        return value / self.requests

    def has_ancestor(self, span, name: str) -> bool:
        p = self.by_id.get(span.parent)
        while p is not None:
            if p.name == name:
                return True
            p = self.by_id.get(p.parent)
        return False

    def boundary_heights(self) -> list:
        """Height queries entering the surfaces layer from another layer."""
        out = []
        for s in self.spans:
            if _layer(s.name) == "surfaces" and s.name.endswith(".height"):
                p = self.by_id.get(s.parent)
                if p is None or _layer(p.name) != "surfaces":
                    out.append(s)
        return out

    def per_request_counts(self, name: str) -> dict:
        counts = defaultdict(int)
        for s in self.by_name.get(name, ()):
            counts[s.request] += 1
        return counts

    def layer_self_ms(self, layer: str) -> float:
        return self.per_request(1e3 * sum(s.self_s for s in self.spans if _layer(s.name) == layer))

    def metrics(self) -> dict:
        """Metric name to (value, unit); a layer a workload never calls reads 0."""
        m = {}
        descends = self.named(DESCEND)
        placements = self.count("policy.run_placement")
        in_loop = sum(1 for s in descends if self.has_ancestor(s, "policy.run_placement"))
        m["policy.presses_per_placement"] = (_ratio(in_loop, placements), "ratio")
        m["policy.run_placement_ms"] = (_mean_ms(self.named("policy.run_placement")), "ms/call")
        m["policy.calibrate_ms"] = (_mean_ms(self.named("policy.calibrate_for_held")), "ms/call")

        steps = [s.extra["steps"] for s in descends]
        silent = [s.extra["steps"] for s in descends if not s.extra["tapped"]]
        m["world.descend_ms"] = (_mean_ms(descends, self_time=True), "ms/call")
        m["world.descent_steps"] = (_ratio(sum(steps), len(steps)), "steps/call")
        m["world.silent_descent_steps"] = (_ratio(sum(silent), len(silent)), "steps/call")
        wrist = self.named("world.World.true_wrist_wrench")
        m["world.wrist_wrench_calls"] = (self.per_request(len(wrist)), "calls/request")
        m["world.wrist_wrench_ms"] = (_mean_ms(wrist), "ms/call")
        m["world.release_ms"] = (_mean_ms(self.named("world.World.release")), "ms/call")
        m["world.stable_check_ms"] = (_mean_ms(self.named("world.World.stable_if_released")),
                                      "ms/call")
        contact_at = self.named("world.World._contact_at")
        m["world.contact_at_per_descent"] = (_ratio(len(contact_at), len(descends)), "ratio")
        m["world.contact_at_ms"] = (_mean_ms(contact_at), "ms/call")

        heights = self.boundary_heights()
        m["surfaces.height_calls"] = (self.per_request(len(heights)), "calls/request")
        m["surfaces.height_points"] = (
            _ratio(sum(s.extra["points"] for s in heights), len(heights)), "points/call")
        m["surfaces.height_ms"] = (_mean_ms(heights), "ms/call")
        m["surfaces.normal_ms"] = (_mean_ms(self.named("surfaces.LayeredSurface.normal")),
                                   "ms/call")
        stamps = self.named("surfaces.HeightField.stamp_disk", "surfaces.HeightField.stamp_square")
        scanned = sum(s.extra["scanned"] for s in stamps)
        m["surfaces.stamp_ms"] = (_mean_ms(stamps), "ms/call")
        m["surfaces.stamp_cells_scanned"] = (_ratio(scanned, len(stamps)), "cells/call")
        m["surfaces.stamp_useful_share"] = (
            _ratio(sum(s.extra["written"] for s in stamps), scanned), "ratio")
        empty = [s for s in self.named("surfaces.HeightField.height") if s.extra["empty"]]
        m["surfaces.empty_raster_ms"] = (self.per_request(_total_ms(empty)), "ms/request")

        samples = self.named(SAMPLE)
        m["sensor.samples"] = (self.per_request(len(samples)), "calls/request")
        m["sensor.sample_ms"] = (_mean_ms(samples), "ms/call")
        m["sensor.average_ms"] = (
            _mean_ms(self.named("sensor.ForceTorqueSensor.settle_and_average")), "ms/call")

        transforms = self.named("spatial.transform_wrench")
        m["spatial.transform_wrench_calls"] = (self.per_request(len(transforms)), "calls/request")
        m["spatial.transform_wrench_ms"] = (_mean_ms(transforms), "ms/call")
        builds = self.named("spatial.Wrench.__post_init__")
        m["spatial.wrench_builds"] = (self.per_request(len(builds)), "calls/request")
        m["spatial.wrench_build_ms"] = (self.per_request(_total_ms(builds)), "ms/request")

        estimates = self.named("estimation.estimate_contact")
        m["estimation.estimate_calls"] = (self.per_request(len(estimates)), "calls/request")
        m["estimation.estimate_ms"] = (_mean_ms(estimates), "ms/call")
        m["estimation.degenerate_presses"] = (
            self.per_request(sum(1 for s in estimates if s.extra["degenerate"])), "calls/request")

        m["scenario.load_ms"] = (_mean_ms(self.setup_by_name.get("scenario.load_scenario", [])),
                                 "ms/call")
        m["scenario.build_world_ms"] = (_mean_ms(self.named("scenario.build_world")), "ms/call")
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = (self.layer_self_ms(layer), "ms/request")
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _total_ms(spans) -> float:
    return 1e3 * sum(s.end - s.start for s in spans)


def _mean_ms(spans, self_time=False) -> float:
    if not spans:
        return 0.0
    if self_time:
        return 1e3 * sum(s.self_s for s in spans) / len(spans)
    return _total_ms(spans) / len(spans)
