"""One matrix pass in a fresh process: plan, execute, render, digest.

Run by ``run.py`` as ``python3 perfbench/matrix_pass.py SPEC OUT``.
``SPEC`` is a JSON file::

    {"scale": 0.2, "windows": [...], "workloads": [...],
     "order": [plan indices], "jobs": 2, "cache_dir": "...",
     "trace": false, "spans_out": null, "setup_only": false,
     "spawned_at": <time.monotonic() of the parent>}

The pass times ``Executor.run`` plus ``render_suite_artifacts`` (the
``repro-isa-compare run`` path) and writes ``OUT``: set-up, wall and
CPU time with the monotonic stamps that bound them, per-plan events,
the digest of every ``ConfigResult`` document and rendered artifact,
peak RSS, and — with ``trace`` — the span summary of :mod:`spans`.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402


def _first_dispatch(bus) -> list[float]:
    """Subscribe a recorder of the first ``PlanStarted`` stamp; the
    rest of the event stream is counted by ``TimingCollector``."""
    from repro.harness.events import PlanStarted

    first: list[float] = []

    def on_event(event):
        if isinstance(event, PlanStarted) and not first:
            first.append(event.when)

    bus.subscribe(on_event)
    return first


def _cpu_s() -> float:
    """CPU seconds used by this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(spec: dict) -> dict:
    from repro.harness import EventBus, Executor, ResultCache, plan_suite
    from repro.harness.events import TimingCollector
    from repro.harness.executor import SuiteExecutionError
    from repro.harness.plan import suite_params_doc
    from repro.serve.app import assemble_suite, render_suite_artifacts

    tracer = undo = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
        undo = spans.install(tracer)

    scale = float(spec["scale"])
    windows = tuple(spec["windows"])
    workloads = tuple(spec["workloads"])
    plans = plan_suite(scale, workloads=workloads, windowed=True,
                       window_sizes=windows)
    plans = [plans[i] for i in spec["order"]]
    params = suite_params_doc(scale, workloads=workloads, windowed=True,
                              window_sizes=windows)
    bus = EventBus()
    collector = TimingCollector()
    bus.subscribe(collector)
    first = _first_dispatch(bus)
    # persistent: the pool workers outlive run() until close(), so
    # their peak RSS can be read before they exit
    executor = Executor(jobs=spec["jobs"], cache=ResultCache(spec["cache_dir"]),
                        events=bus, persistent=True)
    # CLOCK_MONOTONIC is system-wide, so the parent's stamp is
    # comparable and set-up includes interpreter start.
    ready_at = time.monotonic()
    out: dict = {"setup_s": ready_at - spec["spawned_at"],
                 "ready_at": ready_at, "plans": len(plans), "error": None}
    if spec.get("setup_only"):
        return out

    cpu_started = _cpu_s()
    started = time.perf_counter()
    mono_started = time.monotonic()
    try:
        results = executor.run(plans)
        artifacts = render_suite_artifacts(assemble_suite(params, results),
                                           windowed=True)
    except SuiteExecutionError as err:
        out["error"] = str(err)
        results, artifacts = {}, {}
    finally:
        peaks = common.session_peak_rss_mb({os.getsid(0)})
        executor.close()
    out["wall_s"] = time.perf_counter() - started
    out["cpu_s"] = _cpu_s() - cpu_started
    out["timed_from"], out["timed_to"] = mono_started, time.monotonic()

    if tracer is not None:
        import spans

        spans.uninstall(undo)
        out["layers"] = summarize(tracer)
        if spec.get("spans_out"):
            pathlib.Path(spec["spans_out"]).write_text(json.dumps(
                {"spans": tracer.spans, "counters": tracer.counters}))

    out["results"] = {
        common.config_key(p.workload, p.isa, p.profile, scale, windows):
            common.digest_doc(r.to_dict()) for p, r in results.items()}
    out["path_lengths"] = {
        common.config_key(p.workload, p.isa, p.profile, scale, windows):
            r.path_length for p, r in results.items()}
    out["fresh_insts"] = sum(r.path_length for p, r in results.items()
                             if p in collector.plan_seconds)
    out["artifacts"] = {name: common.digest_text(text)
                        for name, text in artifacts.items()}
    out["events"] = dict(
        collector.summary(),
        busy_s=sum(collector.plan_seconds.values()),
        first_dispatch_s=first[0] - mono_started if first else 0.0)
    # the pass process and its pool workers, each at its own peak
    out["peak_rss_mb"] = sorted(peaks.values())
    out["max_rss_mb"] = sum(peaks.values())
    return out


#: Cache span name -> the per-layer metric its self time adds to.
#: Trace recording (a sink beside the engine) is trace-level write work.
CACHE_METRICS = {
    "cache.result.get": "cache.get_s", "cache.result.put": "cache.put_s",
    "cache.trace.get": "cache.trace_get_s",
    "cache.trace.put": "cache.trace_put_s",
    "cache.trace_record": "cache.trace_put_s",
    "cache.block.get": "cache.block_get_s",
    "cache.block.put": "cache.block_put_s",
}


def summarize(tracer) -> dict:
    """Per-layer self times and counts from one traced pass."""
    import spans

    own = spans.self_times(tracer.spans)
    layers: dict[str, float] = dict(tracer.counters)

    def add(key, value):
        layers[key] = layers.get(key, 0.0) + value

    for span in tracer.spans:
        name, sid, attrs = span["name"], span["id"], span["attrs"]
        if name == "compiler":
            add("compiler.self_s", own[sid])
        elif name == "sim":
            add(f"sim.{attrs['isa']}.self_s", own[sid])
            add(f"sim.{attrs['isa']}.guest_insts", attrs.get("guest_insts", 0))
        elif name == "analysis":
            add("analysis.self_s", own[sid])
        elif name in CACHE_METRICS:
            add(CACHE_METRICS[name], own[sid])
            if name == "cache.result.get":
                add("cache.hits" if attrs["hit"] else "cache.misses", 1)
            elif name == "cache.trace.get" and attrs["hit"]:
                add("cache.trace_hits", 1)
        elif name in ("plan", "executor.run"):
            add("executor.self_s", own[sid])
        if name == "plan":
            duration = span["end"] - span["start"]
            add("trace.plan_s", duration)
            add(f"trace.plan_s.{attrs['isa']}", duration)
    layers["trace.root_s"] = sum(s["end"] - s["start"] for s in tracer.spans
                                 if s["parent"] is None)
    layers["trace.spans"] = len(tracer.spans)
    return layers


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(pathlib.Path(argv[0]).read_text())
    out = run_pass(spec)
    pathlib.Path(argv[1]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
