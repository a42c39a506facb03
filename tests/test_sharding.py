"""Sharded execution tests: byte-identity with serial runs, rendered
artifact identity, plan/fingerprint semantics, executor integration, and
degrade-never-fail recovery at the ``shard`` fault site.

The whole point of intra-run sharding (PR 7) is that it is *invisible*
in results — ``shards`` is an execution strategy like ``translate``, so
every test here ultimately reduces to "the sharded run produced exactly
the bytes the serial run did".
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import AnalysisConfig
from repro.common.errors import ExperimentError
from repro.harness import faults, sharding
from repro.harness.events import EventBus, PlanShardStats
from repro.harness.executor import Executor
from repro.harness.experiments import (
    SCALED_MODELS,
    run_config,
    run_figure1,
    run_figure2,
    run_suite,
    run_table1,
    run_table2,
)
from repro.harness.faults import FaultPlan, FaultSpec
from repro.harness.plan import ExperimentPlan, plan_suite
from repro.harness.sharding import (
    MAX_AUTO_SHARDS,
    resolve_shards,
    run_sharded_config,
)
from repro.sim.config import load_core_model
from repro.workloads.stream import Stream, StreamParams

WL = Stream(StreamParams(n=4200, ntimes=1))
CFG = AnalysisConfig(windowed=True, window_sizes=(4, 16))
BUDGET = 50_000_000


def result_bytes(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def model_for(isa: str):
    return load_core_model(SCALED_MODELS[isa])


@pytest.fixture(scope="module")
def compiled():
    return WL.compile("rv64", "gcc12")


@pytest.fixture(scope="module")
def serial():
    return run_config(WL, "rv64", "gcc12", analysis=CFG)


@pytest.fixture
def clean_faults():
    yield
    faults.uninstall()


class TestByteIdentity:
    def test_run_config_sharded_equals_serial(self, serial):
        sharded = run_config(WL, "rv64", "gcc12", analysis=CFG, shards=3)
        assert sharded.shard_stats is not None
        assert sharded.shard_stats["shards"] >= 1
        assert result_bytes(sharded) == result_bytes(serial)

    def test_serial_result_carries_no_shard_stats(self, serial):
        assert serial.shard_stats is None
        assert "shard_stats" not in serial.to_dict()

    def test_direct_in_process_slicing(self, compiled, serial):
        result, stats = run_sharded_config(
            WL, "rv64", "gcc12", compiled, CFG, model_for("rv64"),
            BUDGET, 4, checkpoint_interval=2048, parallel=False)
        assert not stats.parallel
        assert stats.shards == 4
        assert stats.checkpoints > 4
        assert result_bytes(result) == result_bytes(serial)

    def test_single_slice_degenerate(self, compiled, serial):
        """One shard still goes through snapshot + restore + slice."""
        result, stats = run_sharded_config(
            WL, "rv64", "gcc12", compiled, CFG, model_for("rv64"),
            BUDGET, 1, parallel=False)
        assert stats.shards == 1
        assert result_bytes(result) == result_bytes(serial)

    def test_more_shards_than_checkpoints(self, compiled, serial):
        """Requesting absurdly many shards degrades to the checkpoints
        that exist — never to an error."""
        result, stats = run_sharded_config(
            WL, "rv64", "gcc12", compiled, CFG, model_for("rv64"),
            BUDGET, 64, checkpoint_interval=4096, parallel=False)
        assert stats.shards <= 64
        assert result_bytes(result) == result_bytes(serial)

    def test_parallel_workers_equal_serial(self, compiled, serial,
                                           monkeypatch):
        """Fork real shard workers (cpu gate bypassed): snapshot out,
        state doc back, rebase merge — still byte-identical."""
        monkeypatch.setattr(sharding, "available_cpus", lambda: 4)
        result, stats = run_sharded_config(
            WL, "rv64", "gcc12", compiled, CFG, model_for("rv64"),
            BUDGET, 2, checkpoint_interval=4096)
        assert stats.parallel
        assert result_bytes(result) == result_bytes(serial)

    def test_probe_engine_rejected(self):
        with pytest.raises(ExperimentError, match="fused"):
            run_config(WL, "rv64", "gcc12",
                       analysis=AnalysisConfig(engine="probes"), shards=2)


class TestRenderedArtifacts:
    """Acceptance: the paper artifacts render byte-identically from a
    sharded suite and a serial one."""

    @pytest.fixture(scope="class")
    def suites(self):
        kwargs = dict(workloads=("stream",), windowed=True,
                      window_sizes=(4, 16))
        return (run_suite(scale=0.0004, **kwargs),
                run_suite(scale=0.0004, shards=2, **kwargs))

    def test_figure1(self, suites):
        a, b = suites
        assert run_figure1(suite=a).render() == run_figure1(suite=b).render()

    def test_tables(self, suites):
        a, b = suites
        assert run_table1(suite=a).render() == run_table1(suite=b).render()
        assert run_table2(suite=a).render() == run_table2(suite=b).render()

    def test_figure2(self, suites):
        a, b = suites
        fa = run_figure2(suite=a, window_sizes=(4, 16))
        fb = run_figure2(suite=b, window_sizes=(4, 16))
        assert fa.render() == fb.render()

    def test_suite_docs_identical(self, suites):
        a, b = suites
        assert set(a.configs) == set(b.configs)
        for key, config in a.configs.items():
            assert result_bytes(config) == result_bytes(b.configs[key])


class TestResolveShards:
    def test_auto_caps_at_max(self):
        assert resolve_shards(0, cores=32) == MAX_AUTO_SHARDS

    def test_auto_follows_cores(self):
        assert resolve_shards(0, cores=3) == 3

    def test_auto_single_core(self):
        assert resolve_shards(0, cores=1) == 1

    def test_explicit_passthrough(self):
        assert resolve_shards(5, cores=1) == 5

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_shards(-1)


class TestPlanSemantics:
    def plan(self, **overrides):
        base = dict(workload="stream", isa="rv64", profile="gcc12",
                    scale=0.0004, windowed=False)
        base.update(overrides)
        return ExperimentPlan(**base)

    def test_fingerprint_ignores_shards(self):
        a, b = self.plan(shards=1), self.plan(shards=4)
        assert a.fingerprint() == b.fingerprint()
        assert a.trace_fingerprint() == b.trace_fingerprint()

    def test_to_dict_round_trips_shards(self):
        plan = self.plan(shards=4)
        doc = plan.to_dict()
        assert doc["shards"] == 4
        assert ExperimentPlan.from_dict(doc).shards == 4

    def test_v2_docs_mean_serial(self):
        doc = self.plan().to_dict()
        doc["v"] = 2
        doc.pop("shards")
        assert ExperimentPlan.from_dict(doc).shards == 1

    def test_negative_shards_rejected(self):
        with pytest.raises(ExperimentError):
            self.plan(shards=-2)

    def test_plan_suite_threads_shards(self):
        plans = plan_suite(0.0004, workloads=("stream",), shards=2)
        assert plans and all(plan.shards == 2 for plan in plans)


class TestExecutorIntegration:
    def test_emits_shard_stats_event(self):
        bus = EventBus()
        seen: list = []
        bus.subscribe(seen.append)
        plan = ExperimentPlan(workload="stream", isa="rv64",
                              profile="gcc12", scale=0.0004,
                              windowed=False, shards=2)
        Executor(jobs=2, events=bus).run([plan])
        stats_events = [e for e in seen if isinstance(e, PlanShardStats)]
        assert len(stats_events) == 1
        assert stats_events[0].stats["shards"] >= 1
        assert stats_events[0].stats["total_instructions"] > 0

    def test_sharded_equals_pooled_serial(self):
        kwargs = dict(workload="stream", isa="rv64", profile="gcc12",
                      scale=0.0004, windowed=False)
        serial_res = Executor(jobs=1).run(
            [ExperimentPlan(**kwargs)])
        sharded_res = Executor(jobs=1).run(
            [ExperimentPlan(shards=2, **kwargs)])
        a, = serial_res.values()
        b, = sharded_res.values()
        assert result_bytes(a) == result_bytes(b)

    def test_sharded_plan_skips_trace_recording(self, tmp_path):
        """A trace sink would force slices onto the slow per-retirement
        path, so sharded plans shard instead of recording — and still
        replay traces a serial run recorded (shared trace identity)."""
        from repro.harness.cache import ResultCache
        from repro.harness.executor import execute_plan

        kwargs = dict(workload="stream", isa="rv64", profile="gcc12",
                      scale=0.0004, windowed=True, window_sizes=(4, 16))
        store = ResultCache(tmp_path).traces
        sharded_plan = ExperimentPlan(shards=2, **kwargs)
        a = execute_plan(sharded_plan, store)
        assert a.shard_stats is not None
        assert store.get(sharded_plan.trace_fingerprint()) is None
        b = execute_plan(ExperimentPlan(**kwargs), store)
        assert store.get(sharded_plan.trace_fingerprint()) is not None
        assert result_bytes(a) == result_bytes(b)


class TestShardFaultSite:
    """Worker deaths and corrupt snapshots degrade; they never fail the
    plan, and the degraded result is still byte-identical."""

    def run_faulted(self, compiled, shards=2, retries=1):
        return run_sharded_config(
            WL, "rv64", "gcc12", compiled, CFG, model_for("rv64"),
            BUDGET, shards, checkpoint_interval=4096, retries=retries)

    def test_crash_once_recovers_by_retry(self, compiled, serial,
                                          monkeypatch, clean_faults):
        monkeypatch.setattr(sharding, "available_cpus", lambda: 4)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="shard", kind="crash", attempts=(1,)),
        ]))
        result, stats = self.run_faulted(compiled)
        assert stats.retries >= 1
        assert stats.fallbacks == 0
        assert result_bytes(result) == result_bytes(serial)

    def test_corrupt_snapshot_falls_back_in_process(self, compiled, serial,
                                                    monkeypatch,
                                                    clean_faults):
        """Every attempt ships a garbled snapshot (SnapshotError in the
        worker) — the slices fall back to in-process serial execution."""
        monkeypatch.setattr(sharding, "available_cpus", lambda: 4)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="shard", kind="garble"),
        ]))
        result, stats = self.run_faulted(compiled, retries=1)
        assert stats.fallbacks >= 1
        assert result_bytes(result) == result_bytes(serial)

    def test_persistent_crash_falls_back(self, compiled, serial,
                                         monkeypatch, clean_faults):
        monkeypatch.setattr(sharding, "available_cpus", lambda: 4)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="shard", kind="crash"),
        ]))
        result, stats = self.run_faulted(compiled, retries=1)
        assert stats.fallbacks >= 1
        assert result_bytes(result) == result_bytes(serial)

    def test_injected_error_falls_back(self, compiled, serial,
                                       monkeypatch, clean_faults):
        monkeypatch.setattr(sharding, "available_cpus", lambda: 4)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="shard", kind="error"),
        ]))
        result, stats = self.run_faulted(compiled, retries=0)
        assert stats.fallbacks >= 1
        assert result_bytes(result) == result_bytes(serial)
