"""The reproduction pipeline's benchmark: one command per workload.

    python3 perfbench/run.py --workload matrix-cold --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` and ``layers.json``):

* ``matrix-cold`` — the paper's 5 × 2 × 2 matrix on an empty cache in
  fresh processes, ``Executor(jobs=nproc)``, rendered; the seed
  permutes plan order.
* ``reanalyze-windows`` — prime a cache with the matrix (set-up), then
  rerun it with seed-drawn window sets and render.
* ``serve-dist`` — a ``serve --dist-port`` daemon with two
  ``worker --jobs 1`` nodes; ``nproc`` closed-loop clients submit
  single-workload suites and fetch their artifacts.

``--trace 0`` prints the end-to-end metrics, measured untraced, with
every time converted to a reference host speed by the probe of
:mod:`speed`, which runs beside the workload for the whole invocation.
``--trace 1`` prints the per-layer metrics of a separate traced run.
Every output is checked against ``reference.json``; a mismatch counts
as a failed operation and the command exits 1. The last stdout line is
the result JSON; the line before it is the run's provenance, also kept
with the full record under ``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402
import speed  # noqa: E402

PASS_TIMEOUT = 170.0
#: ``--seconds`` buys ``round(seconds / this)`` timed passes: one matrix
#: pass and one reanalysis pass at ``--seconds 10``. A matrix pass
#: takes 16-21 s on a shared 2-core host, and a reanalysis pass 8-10 s
#: after 17-20 s of priming. At reference speed a pass's CPU time
#: varies by about 2% from pass to pass.
PASS_S = 10.0
#: Extra set-up samples of matrix-cold: pass processes that stop where
#: timing would begin. ``setup_s`` is the median over them and the
#: timed passes.
SETUP_PROBES = 3


class Run:
    """One benchmark invocation: its inputs, scratch dir and tallies."""

    def __init__(self, args, reference: dict):
        self.args = args
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.reference = reference
        self.nproc = common.nproc()
        self.work = common.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = common.child_env(self.work)
        self.records = common.WORK / "records"
        self.records.mkdir(parents=True, exist_ok=True)
        self.tag = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                    f"{int(time.time())}")
        self.started = time.monotonic()
        self.attempted = 0
        #: Wrong or missing outputs: each makes the run incorrect.
        self.failures: list[str] = []
        #: Submissions the serve daemon turned away: failed operations
        #: whose outputs, once admitted on retry, are still checked.
        self.rejected = 0
        self.record: dict = {}
        self._dirs = 0
        #: The host speed probe, running for the whole invocation.
        self.probe: speed.Probe | None = None

    def calibrated(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured in ``[start, end]`` (monotonic stamps),
        converted to the probe's reference speed."""
        return seconds * self.probe.factor(start, end)

    def pass_row(self, out: dict) -> dict:
        """A pass's times, raw and at reference speed."""
        ready = out["ready_at"]
        row = {"raw_setup_s": out["setup_s"],
               "setup_s": self.calibrated(out["setup_s"],
                                          ready - out["setup_s"], ready)}
        if "timed_from" in out:
            factor = self.probe.factor(out["timed_from"], out["timed_to"])
            row.update(speed_factor=factor, raw_wall_s=out["wall_s"],
                       raw_cpu_s=out["cpu_s"], wall_s=out["wall_s"] * factor,
                       cpu_s=out["cpu_s"] * factor,
                       max_rss_mb=out["max_rss_mb"],
                       peak_rss_mb=out["peak_rss_mb"],
                       fresh_insts=out["fresh_insts"])
        return row

    def fresh_dir(self, name: str) -> pathlib.Path:
        self._dirs += 1
        path = self.work / f"{name}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    # -- matrix passes -------------------------------------------------------

    def matrix_pass(self, *, windows, order, jobs, cache_dir,
                    trace=False, setup_only=False) -> dict:
        """Run one pass in a fresh process and gate its outputs. With
        ``setup_only`` the process stops where timing would begin, and
        only its ``setup_s`` is measured."""
        workloads, scale = self.args.workloads, self.args.scale
        box = self.fresh_dir("pass")
        cmd = [common.python(), str(common.BENCH_DIR / "matrix_pass.py"),
               str(box / "spec.json"), str(box / "out.json")]
        spec = {"scale": scale, "windows": list(windows),
                "workloads": list(workloads), "order": list(order),
                "jobs": jobs, "cache_dir": str(cache_dir), "trace": trace,
                "spans_out": str(self.records / f"{self.tag}-spans.json")
                if trace else None,
                "setup_only": setup_only, "spawned_at": time.monotonic()}
        (box / "spec.json").write_text(json.dumps(spec))
        proc = common.run_child(cmd, env=self.env, timeout=PASS_TIMEOUT)
        n_plans = 4 * len(workloads)
        self.attempted += 1 if setup_only else n_plans
        if proc.returncode != 0:
            self.failures.append(f"pass exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-400:]}")
            raise PassError(self.failures[-1])
        out = json.loads((box / "out.json").read_text())
        if setup_only:
            return out
        if out["error"]:
            self.failures.append(out["error"])
        self.gate_configs(out["results"], n_plans, scale, windows, workloads)
        self.gate_suite(out["artifacts"], workloads, scale, windows)
        return out

    # -- correctness gate ----------------------------------------------------

    def gate_configs(self, digests: dict, expected: int, scale, windows,
                     workloads) -> None:
        """Every ConfigResult document must match its reference digest."""
        configs = self.reference["configs"]
        seen = 0
        for key, digest in sorted(digests.items()):
            seen += 1
            want = configs.get(key, {}).get("digest")
            if digest != want:
                self.failures.append(f"config {key}: digest {digest[:12]} "
                                     f"!= reference {str(want)[:12]}")
        if seen < expected:
            self.failures.append(
                f"{expected - seen} configs missing from "
                f"{common.suite_key(workloads, scale, windows)}")

    def gate_suite(self, digests: dict, workloads, scale, windows) -> None:
        """Every rendered artifact must match its reference digest."""
        key = common.suite_key(workloads, scale, windows)
        want = self.reference["suites"].get(key)
        self.attempted += len(want or {}) or 1
        if want is None:
            self.failures.append(f"no reference artifacts for {key}")
            return
        for name, digest in sorted(want.items()):
            if digests.get(name) != digest:
                self.failures.append(f"artifact {name} of {key} differs "
                                     f"from its reference")


class PassError(RuntimeError):
    """A pass process failed; recorded in ``Run.failures``."""


# -- workload: matrix-cold -----------------------------------------------------

def _pass_metrics(run: Run, passes: list[dict]) -> dict:
    """End-to-end metrics over a run's timed passes (medians at the
    reference speed); the per-pass figures go to the record."""
    rows = [run.pass_row(p) for p in passes]
    run.record["passes"] = rows
    run.record["wall_s"] = common.median(r["wall_s"] for r in rows)
    return {
        "setup_s": common.median(r["setup_s"] for r in rows),
        "cpu_s": common.median(r["cpu_s"] for r in rows),
        "guest_ips": common.median(r["fresh_insts"] / r["cpu_s"]
                                   for r in rows),
        "max_rss_mb": common.median(r["max_rss_mb"] for r in rows),
    }


def _timed_passes(run: Run, cache_for, windows_for,
                  max_passes: int = 60) -> list[dict]:
    """``--seconds / PASS_S`` passes (at least one): a fixed count, so
    every run of a workload takes its medians over as many samples."""
    n = 4 * len(run.args.workloads)
    count = min(max_passes, max(1, round(run.seconds / PASS_S)))
    return [run.matrix_pass(windows=windows_for(i),
                            order=common.plan_order(run.seed, i, n),
                            jobs=run.nproc, cache_dir=cache_for(i))
            for i in range(count)]


def matrix_cold(run: Run) -> dict:
    windows = common.PAPER_WINDOWS
    if not run.trace:
        passes = _timed_passes(run, lambda i: run.fresh_dir("cache"),
                               lambda i: windows)
        n = 4 * len(run.args.workloads)
        probes = [run.pass_row(run.matrix_pass(
            windows=windows, order=common.plan_order(run.seed, 0, n),
            jobs=run.nproc, cache_dir=run.fresh_dir("cache"),
            setup_only=True)) for _ in range(SETUP_PROBES)]
        metrics = _pass_metrics(run, passes)
        metrics["setup_s"] = common.median(
            [r["setup_s"] for r in run.record["passes"] + probes])
        run.record["setup_probes"] = probes
        return metrics
    return _traced(run, windows, lambda: run.fresh_dir("cache"))


def _traced(run: Run, windows, make_cache) -> dict:
    """Pooled, serial and traced-serial passes over the same plans."""
    n = 4 * len(run.args.workloads)
    order = common.plan_order(run.seed, 0, n)
    pooled = run.matrix_pass(windows=windows, order=order, jobs=run.nproc,
                             cache_dir=make_cache())
    serial = run.matrix_pass(windows=windows, order=order, jobs=1,
                             cache_dir=make_cache())
    traced_cache = make_cache()
    traced = run.matrix_pass(windows=windows, order=order, jobs=1,
                             cache_dir=traced_cache, trace=True)
    layers = traced["layers"]
    events = pooled["events"]
    # walls at reference speed, so the differences and ratios between
    # passes are not the host's drift between them
    walls = {name: run.pass_row(out)["wall_s"] for name, out in (
        ("pooled", pooled), ("serial", serial), ("traced", traced))}
    busy = events["busy_s"]
    metrics = {
        "compiler.calls": layers.get("compiler.calls", 0),
        "compiler.self_s": layers.get("compiler.self_s", 0.0),
        "sim.blocks": layers.get("translation.blocks", 0),
        "sim.block_insts": layers.get("translation.block_instructions", 0),
        "sim.inlined_insts": layers.get(
            "translation.inlined_instructions", 0),
        "sim.interp_insts": layers.get(
            "translation.interp_instructions", 0),
        "sim.demoted_blocks": layers.get("translation.demoted_blocks", 0),
        "analysis.self_s": layers.get("analysis.self_s", 0.0),
        "analysis.calls": layers.get("analysis.calls", 0),
        "analysis.retired": layers.get("analysis.retired", 0),
        "cache.disk_bytes": _disk_bytes(traced_cache),
        "cache.corruptions": traced["events"]["corruptions"]
        + events["corruptions"],
        "executor.self_s": layers.get("executor.self_s", 0.0),
        "executor.plans_run": events["executed"],
        "executor.plan_busy_s": busy,
        "executor.idle_s": run.nproc * pooled["wall_s"] - busy,
        "executor.first_dispatch_s": events["first_dispatch_s"],
        "executor.parallel_efficiency": walls["serial"]
        / (run.nproc * walls["pooled"]),
        "executor.retries": events["retries"],
        "executor.workers_recycled": events["workers_recycled"],
        "warm.image_hits": events["warm"].get("image_hits", 0),
        "warm.block_store_hits": events["warm"].get("block_store_hits", 0),
        "trace.overhead_s": walls["traced"] - walls["serial"],
    }
    for key in ("get_s", "put_s", "hits", "misses", "trace_hits",
                "trace_get_s", "trace_put_s", "block_get_s", "block_put_s"):
        metrics[f"cache.{key}"] = layers.get(f"cache.{key}", 0)
    for isa in ("aarch64", "rv64"):
        self_s = layers.get(f"sim.{isa}.self_s", 0.0)
        insts = layers.get(f"sim.{isa}.guest_insts", 0)
        metrics[f"sim.{isa}.self_s"] = self_s
        metrics[f"sim.{isa}.guest_insts"] = insts
        metrics[f"sim.{isa}.ips"] = insts / self_s if self_s else 0.0
        plan_s = layers.get("trace.plan_s", 0.0)
        metrics[f"share.plan_time.{isa}"] = (
            layers.get(f"trace.plan_s.{isa}", 0.0) / plan_s if plan_s else 0.0)
    analysis_s = metrics["analysis.self_s"]
    metrics["analysis.ips"] = (metrics["analysis.retired"] / analysis_s
                               if analysis_s else 0.0)
    metrics.update(_shares(pooled))
    run.record["traced_layers"] = layers
    run.record["walls"] = walls
    run.record["accounting"] = _accounting(layers)
    return metrics


def _shares(out: dict) -> dict:
    """How the pass's plans were served: result hit, replay or fresh."""
    events = out["events"]
    total = out["plans"] or 1
    replays = events["trace_hits"]
    return {"share.result_hits": events["cache_hits"] / total,
            "share.trace_replays": replays / total,
            "share.fresh_sims": (events["executed"] - replays) / total}


def _accounting(layers: dict) -> dict:
    """The traced run's time by layer, and what the layers account for."""
    parts = {key: layers.get(key, 0.0) for key in (
        "compiler.self_s", "sim.aarch64.self_s", "sim.rv64.self_s",
        "analysis.self_s", "executor.self_s")}
    parts["cache_s"] = sum(layers.get(f"cache.{k}", 0.0) for k in (
        "get_s", "put_s", "trace_get_s", "trace_put_s", "block_get_s",
        "block_put_s"))
    return {"layers": parts, "sum_s": sum(parts.values()),
            "root_s": layers.get("trace.root_s", 0.0),
            "plan_s": layers.get("trace.plan_s", 0.0)}


def _disk_bytes(path: pathlib.Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# -- workload: reanalyze-windows -----------------------------------------------

def reanalyze_windows(run: Run) -> dict:
    n = 4 * len(run.args.workloads)
    primed = run.fresh_dir("cache")
    run.matrix_pass(windows=common.PAPER_WINDOWS,
                    order=common.plan_order(run.seed, 0, n),
                    jobs=run.nproc, cache_dir=primed)
    primed_at = time.monotonic()
    prime_s = run.calibrated(primed_at - run.started, run.started, primed_at)
    draws = common.reanalysis_windows(run.seed)
    run.record["prime_s"] = prime_s
    run.record["raw_prime_s"] = primed_at - run.started
    if run.trace:
        def copy():
            target = run.fresh_dir("cache")
            shutil.copytree(primed, target, dirs_exist_ok=True)
            return target
        return _traced(run, draws[0], copy)
    # each pass draws a window set no earlier pass used
    passes = _timed_passes(run, lambda i: primed,
                           lambda i: draws[i], max_passes=len(draws))
    metrics = _pass_metrics(run, passes)
    metrics["setup_s"] += prime_s
    run.record["windows_used"] = [common.windows_key(w)
                                  for w in draws[:len(passes)]]
    run.record["shares"] = [_shares(p) for p in passes]
    return metrics


# -- command line ---------------------------------------------------------------

def serve_dist(run: Run) -> dict:
    sys.path.insert(0, str(common.SRC))
    import serve_dist as serve

    return serve.measure(run)


WORKLOADS = {
    "matrix-cold": matrix_cold,
    "reanalyze-windows": reanalyze_windows,
    "serve-dist": serve_dist,
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the reproduction pipeline end to end.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Small-input knobs for the self-tests; runs use the defaults.
    parser.add_argument("--scale", type=float, default=common.MATRIX_SCALE,
                        help=argparse.SUPPRESS)
    parser.add_argument("--workloads", default=",".join(common.WORKLOADS),
                        help=argparse.SUPPRESS)
    parser.add_argument("--serve-scales", default=",".join(
        str(s) for s in common.SERVE_SCALES), help=argparse.SUPPRESS)
    parser.add_argument("--reference", type=pathlib.Path,
                        default=common.REFERENCE, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.workloads = tuple(args.workloads.split(","))
    args.serve_scales = tuple(float(s) for s in args.serve_scales.split(","))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {common.SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        reference = json.loads(args.reference.read_text())
        benchmark = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        print(f"error: cannot read the reference digests or "
              f"BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    run = Run(args, reference)
    prov = common.provenance(
        args.seed, args.workload, run.trace, seconds=args.seconds,
        scale=args.scale, serve_scales=list(args.serve_scales),
        windows={"paper": list(common.PAPER_WINDOWS),
                 "alternatives": [list(w) for w in common.ALT_WINDOWS]})
    run.probe = speed.Probe(common.python(), run.env, run.work / "speed.txt")
    try:
        values = WORKLOADS[args.workload](run)
    except (RuntimeError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        values = None
    finally:
        run.probe.stop()
        shutil.rmtree(run.work, ignore_errors=True)
    failed = len(run.failures) + run.rejected
    attempted = max(run.attempted, failed, 1)
    catalogue = benchmark["per_layer" if run.trace else "end_to_end"]
    metrics = {}
    if values is not None:
        values["ok_frac"] = 1.0 - failed / attempted
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                               "unit": m["unit"]}
                   for m in catalogue}
    result = {"correct": values is not None and not run.failures,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    prov["failed_frac"] = failed / attempted
    if "wall_s" in run.record:
        prov["wall_s"] = run.record["wall_s"]
    if "jobs" in run.record:
        prov["jobs"] = run.record["jobs"]
    prov["failures"] = run.failures[:20]
    (run.records / f"{run.tag}.json").write_text(json.dumps(
        {"provenance": prov, "record": run.record, "result": result},
        indent=1, sort_keys=True, default=str))
    for line in run.failures[:20]:
        print(f"FAILED: {line}", file=sys.stderr)
    if values is None:
        return 1
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
