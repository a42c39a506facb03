"""In-memory spans and the wrappers that record them around each layer's
public functions.

A span is ``{id, parent, name, start, end, attrs}``. Calls made
thousands of times per plan (the analysis engine's ``on_batch`` /
``on_events``, trace recording) are folded into one *aggregate* child
span per parent and name: its ``end - start`` is the summed call time
and ``calls`` the call count, so self time stays exact without storing
a record per call.

A layer's self time is its span's duration minus the durations of its
direct children (children nest strictly inside their parent, one
thread, so they never overlap).

:func:`install` patches the layer boundaries for one traced process.
Nothing under ``src/`` knows about it.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._aggregates: dict[tuple[int, str], dict] = {}
        self.counters: dict[str, float] = {}

    # -- spans -------------------------------------------------------------

    @property
    def current(self) -> dict | None:
        return self._stack[-1] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self.current
        record = {"id": len(self.spans) + 1,
                  "parent": parent["id"] if parent else None,
                  "name": name, "start": time.perf_counter(), "end": None,
                  "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add_call(self, name: str, start: float, end: float) -> None:
        """Fold one short call into the current span's aggregate child."""
        parent = self.current
        key = (parent["id"] if parent else 0, name)
        agg = self._aggregates.get(key)
        if agg is None:
            agg = {"id": len(self.spans) + 1,
                   "parent": parent["id"] if parent else None,
                   "name": name, "start": start, "end": start,
                   "attrs": {}, "calls": 0}
            self.spans.append(agg)
            self._aggregates[key] = agg
        agg["end"] += end - start
        agg["calls"] += 1

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def self_times(spans: list[dict]) -> dict[int, float]:
    """``{span id: duration minus direct children's durations}``."""
    child_total: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] = (
                child_total.get(span["parent"], 0.0)
                + span["end"] - span["start"])
    return {span["id"]: span["end"] - span["start"]
            - child_total.get(span["id"], 0.0) for span in spans}


# -- layer wrappers ----------------------------------------------------------

class _EngineProxy:
    """Times the fused analysis engine's consuming calls; forwards every
    other attribute (``accepts_events``, ``preferred_batch_size`` ...)."""

    def __init__(self, engine, tracer: Tracer):
        self._engine = engine
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def on_batch(self, *args):
        start = time.perf_counter()
        try:
            return self._engine.on_batch(*args)
        finally:
            self._tracer.add_call("analysis", start, time.perf_counter())

    def on_events(self, *args):
        start = time.perf_counter()
        try:
            return self._engine.on_events(*args)
        finally:
            self._tracer.add_call("analysis", start, time.perf_counter())

    def results(self):
        start = time.perf_counter()
        try:
            result = self._engine.results()
        finally:
            self._tracer.add_call("analysis", start, time.perf_counter())
        self._tracer.count("analysis.calls")
        self._tracer.count("analysis.retired", result.path.total)
        return result


def _wrap(owner, attr: str, make):
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(make(original)))
    return original


def install(tracer: Tracer) -> list:
    """Patch every traced boundary; returns undo records for
    :func:`uninstall`."""
    from repro.analysis.config import AnalysisConfig
    from repro.harness import executor as executor_mod
    from repro.harness.cache import BlockStore, ResultCache, TraceStore
    from repro.sim.trace import TraceWriter
    from repro.workloads import base as workload_base

    undo = []

    def patch(owner, attr, make):
        undo.append((owner, attr, _wrap(owner, attr, make)))

    def spanned(name, **fixed):
        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.span(name, **fixed):
                    return original(*args, **kwargs)
            return wrapper
        return make

    patch(executor_mod.Executor, "run", spanned("executor.run"))

    def make_plan(original):
        def execute_plan(plan, *args, **kwargs):
            with tracer.span("plan", isa=plan.isa, workload=plan.workload,
                             plan=plan.describe()):
                return original(plan, *args, **kwargs)
        return execute_plan
    patch(executor_mod, "execute_plan", make_plan)

    def make_compile(original):
        def compile(self, *args, **kwargs):
            tracer.count("compiler.calls")
            with tracer.span("compiler"):
                return original(self, *args, **kwargs)
        return compile
    patch(workload_base.Workload, "compile", make_compile)

    def make_run_image(original):
        def run_image(image, isa, *args, **kwargs):
            with tracer.span("sim", isa=isa.name) as span:
                result, machine = original(image, isa, *args, **kwargs)
            span["attrs"]["guest_insts"] = result.instructions
            for key, value in (result.translation or {}).items():
                if key != "max_block":
                    tracer.count(f"translation.{key}", value)
            return result, machine
        return run_image
    patch(workload_base, "run_image", make_run_image)

    def make_build_engine(original):
        def build_engine(self, *args, **kwargs):
            return _EngineProxy(original(self, *args, **kwargs), tracer)
        return build_engine
    patch(AnalysisConfig, "build_engine", make_build_engine)

    def make_record(original):
        def on_batch(self, *args):
            start = time.perf_counter()
            try:
                return original(self, *args)
            finally:
                tracer.add_call("cache.trace_record", start,
                                time.perf_counter())
        return on_batch
    patch(TraceWriter, "on_batch", make_record)

    for cls, level in ((ResultCache, "result"), (TraceStore, "trace"),
                       (BlockStore, "block")):
        for op in ("get", "put"):
            patch(cls, op, _cache_op(tracer, f"cache.{level}.{op}", op))
    return undo


def _cache_op(tracer: Tracer, name: str, op: str):
    def make(original):
        def wrapper(self, *args, **kwargs):
            with tracer.span(name) as span:
                value = original(self, *args, **kwargs)
            if op == "get":
                span["attrs"]["hit"] = value is not None
            return value
        return wrapper
    return make


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
