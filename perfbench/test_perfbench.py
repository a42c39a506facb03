"""Self-tests of the benchmark itself, on tiny inputs (the ``stream``
workload at scale 0.05). Not part of tier-1; run with::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import spans  # noqa: E402

TINY = ["--scale", "0.05", "--serve-scales", "0.05", "--workloads", "stream"]


def _benchmark_json() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory) -> pathlib.Path:
    out = tmp_path_factory.mktemp("ref") / "reference.json"
    subprocess.run(
        [sys.executable, str(BENCH / "make_reference.py"), "--scale", "0.05",
         "--workloads", "stream", "--out", str(out)],
        check=True, cwd=common.ROOT, env=common.child_env(
            tmp_path_factory.mktemp("env")), timeout=300)
    return out


def _run(workload: str, reference: pathlib.Path, *, trace: int = 0,
         seed: int = 1, seconds: float = 4, cwd=None):
    script = (cwd or common.ROOT) / "perfbench" / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--reference", str(reference), *TINY],
        capture_output=True, text=True, cwd=cwd or common.ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def test_layer_map_matches_benchmark_json():
    doc = _benchmark_json()
    layers = json.loads((BENCH / "layers.json").read_text())
    mapped = [name for group in layers["groups"] for name in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in doc["per_layer"])
    assert set(layers["workloads"]) == {w["name"] for w in doc["workloads"]}


@pytest.mark.parametrize("workload", ["matrix-cold", "reanalyze-windows",
                                      "serve-dist"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tiny_reference, workload, trace):
    proc, result = _run(workload, tiny_reference, trace=trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = _benchmark_json()
    catalogue = doc["per_layer"] if trace else doc["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in catalogue}
    for metric in catalogue:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
    if not trace:
        for metric in catalogue:
            assert result["metrics"][metric["name"]]["value"] > 0, metric


@pytest.mark.parametrize("workload", ["matrix-cold", "serve-dist"])
def test_altered_digest_fails(tiny_reference, tmp_path, workload):
    # One config and one artifact altered in every window set, so
    # whatever the run draws meets an altered digest.
    reference = json.loads(tiny_reference.read_text())
    for key, entry in reference["configs"].items():
        if "/rv64/gcc12@" in key:
            entry["digest"] = "0" * 64
    for artifacts in reference["suites"].values():
        artifacts["kernelCounts.txt"] = "0" * 64
    altered = tmp_path / "reference.json"
    altered.write_text(json.dumps(reference))
    proc, result = _run(workload, altered)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_serve_rejections_and_lost_jobs_count_as_failed(tmp_path):
    sys.path.insert(0, str(common.SRC))
    import serve_dist

    run = types.SimpleNamespace(attempted=0, failures=[], rejected=0,
                                reference={"configs": {}, "suites": {}})
    session = types.SimpleNamespace(cache=tmp_path)
    job = common.serve_jobs(1, 1)[0]
    loop = {"jobs": 3, "wall_s": 1.0, "records": [
        {"slot": 0, "job": job, "state": "error", "error": "refused",
         "rejected": 2}]}
    serve_dist.check(run, session, loop)
    # three jobs plus two rejected submissions were attempted; the
    # errored job and the two jobs without a record failed
    assert run.attempted == 5
    assert run.rejected == 2
    assert len(run.failures) == 3


def test_seed_determinism():
    assert common.plan_order(7, 0, 20) == common.plan_order(7, 0, 20)
    assert common.plan_order(7, 0, 20) != common.plan_order(8, 0, 20)
    assert common.plan_order(7, 0, 20) != common.plan_order(7, 1, 20)
    assert common.serve_jobs(7) == common.serve_jobs(7)
    assert common.serve_jobs(7) != common.serve_jobs(8)
    assert common.reanalysis_windows(7) == common.reanalysis_windows(7)
    assert common.reanalysis_windows(7) != common.reanalysis_windows(8)
    assert common.PAPER_WINDOWS not in common.reanalysis_windows(7)
    jobs = common.serve_jobs(7)
    repeats = sum(1 for i, job in enumerate(jobs) if job in jobs[:i])
    assert repeats >= len(jobs) // common.SERVE_REPEAT_EVERY


def _check_span_tree(all_spans):
    own = spans.self_times(all_spans)
    children: dict = {}
    for span in all_spans:
        assert span["end"] >= span["start"]
        assert own[span["id"]] >= -1e-9, span
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    by_id = {span["id"]: span for span in all_spans}
    for parent, kids in children.items():
        total = sum(k["end"] - k["start"] for k in kids)
        assert total <= by_id[parent]["end"] - by_id[parent]["start"] + 1e-9


def test_span_self_times_synthetic():
    tracer = spans.Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            tracer.add_call("hot", 0.0, 0.0)
        with tracer.span("b"):
            pass
    _check_span_tree(tracer.spans)
    assert [s["name"] for s in tracer.spans] == ["root", "a", "hot", "b"]


def test_span_self_times_traced_pass(tmp_path):
    import matrix_pass

    spans_out = tmp_path / "spans.json"
    sys.path.insert(0, str(common.SRC))
    out = matrix_pass.run_pass({
        "scale": 0.05, "windows": list(common.PAPER_WINDOWS),
        "workloads": ["stream"], "order": [3, 1, 0, 2], "jobs": 1,
        "cache_dir": str(tmp_path / "cache"), "trace": True,
        "spans_out": str(spans_out), "spawned_at": 0.0})
    recorded = json.loads(spans_out.read_text())["spans"]
    _check_span_tree(recorded)
    names = {span["name"] for span in recorded}
    assert {"executor.run", "plan", "compiler", "sim", "analysis"} <= names
    layers = out["layers"]
    keys = {"compiler.self_s", "sim.aarch64.self_s", "sim.rv64.self_s",
            "analysis.self_s", "executor.self_s",
            *matrix_pass.CACHE_METRICS.values()}
    accounted = sum(layers.get(key, 0.0) for key in keys)
    assert accounted == pytest.approx(layers["trace.root_s"], rel=1e-6)


def test_refuses_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_speed_probe_samples_and_stops(tmp_path):
    import speed

    probe = speed.Probe(sys.executable, common.child_env(tmp_path),
                        tmp_path / "speed.txt")
    try:
        started = time.monotonic()
        time.sleep(1.0)
        ended = time.monotonic()
        factor = probe.factor(started, ended)
    finally:
        probe.stop()
    assert probe.proc.returncode == 0
    samples = probe.samples()
    assert len(samples) >= 10
    assert all(dt > 0 for _, dt in samples)
    mean = sum(dt for _, dt in samples) / len(samples)
    # the factor over the whole run is the reference over the mean
    assert probe.factor(samples[0][0], samples[-1][0]) == pytest.approx(
        speed.REFERENCE_S / mean)
    assert factor > 0
