"""Tests for trace record/replay: analyses offline must equal analyses live."""

import io

import pytest

from repro.analysis import (
    AnalysisConfig,
    CriticalPathProbe,
    InstructionMixProbe,
    PathLengthProbe,
    WindowedCPProbe,
)
from repro.common import SimulationError
from repro.sim.trace import Trace, TraceRecorderProbe, TraceWriter, read_trace
from repro.workloads import get_workload, run_workload
from repro.workloads.stream import Stream, StreamParams

WL = Stream(StreamParams(n=48, ntimes=1))


@pytest.fixture(scope="module")
def recorded():
    """One live run with a recorder AND live probes, for comparison."""
    recorder = TraceRecorderProbe()
    live_cp = CriticalPathProbe()
    live_mix = InstructionMixProbe()
    live_window = WindowedCPProbe(window_sizes=(16,))
    run = run_workload(WL, "rv64", "gcc12",
                       [recorder, live_cp, live_mix, live_window])
    blob = recorder.finish("rv64")
    return {
        "blob": blob,
        "run": run,
        "cp": live_cp.result(),
        "mix": live_mix.result(),
        "window": live_window.results()[16],
    }


class TestRoundTrip:
    def test_header(self, recorded):
        trace = read_trace(recorded["blob"])
        assert trace.isa_name == "rv64"
        assert len(trace) == recorded["run"].path_length

    def test_static_table_compact(self, recorded):
        trace = read_trace(recorded["blob"])
        # far fewer static entries than dynamic events (loops!)
        assert len(trace.instructions) < len(trace) / 4

    def test_replay_critical_path(self, recorded):
        trace = read_trace(recorded["blob"])
        probe = CriticalPathProbe()
        trace.replay([probe])
        assert probe.result().critical_path == recorded["cp"].critical_path
        assert probe.result().instructions == recorded["cp"].instructions

    def test_replay_mix(self, recorded):
        trace = read_trace(recorded["blob"])
        probe = InstructionMixProbe()
        trace.replay([probe])
        live = recorded["mix"]
        offline = probe.result()
        assert offline.by_mnemonic == live.by_mnemonic
        assert offline.branches == live.branches
        assert offline.loads == live.loads

    def test_replay_windowed(self, recorded):
        trace = read_trace(recorded["blob"])
        probe = WindowedCPProbe(window_sizes=(16,))
        trace.replay([probe])
        live = recorded["window"]
        offline = probe.results()[16]
        assert offline.count == live.count
        assert offline.total_cp == live.total_cp

    def test_replay_pathlength_with_regions(self, recorded):
        trace = read_trace(recorded["blob"])
        compiled = recorded["run"].compiled
        offline = PathLengthProbe(compiled.image.regions)
        trace.replay([offline])
        counts = offline.result()
        assert counts.total == len(trace)
        assert set(counts.per_region) >= {"copy", "scale", "add", "triad"}

    def test_file_sink(self, tmp_path, recorded):
        path = tmp_path / "run.rtrc"
        recorder = TraceRecorderProbe(path.open("wb"))
        run_workload(WL, "rv64", "gcc12", [recorder])
        recorder.finish("rv64")
        recorder.sink.close()
        trace = read_trace(path.read_bytes())
        assert len(trace) == recorded["run"].path_length


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(SimulationError):
            read_trace(b"NOPE" + b"\x00" * 32)

    def test_truncated(self, recorded):
        with pytest.raises((SimulationError, struct_error := Exception)):
            read_trace(recorded["blob"][: len(recorded["blob"]) // 2])

    def test_double_finish(self):
        recorder = TraceRecorderProbe()
        recorder.finish("rv64")
        with pytest.raises(SimulationError):
            recorder.finish("rv64")

    def test_replayed_instructions_cannot_execute(self, recorded):
        trace = read_trace(recorded["blob"])
        with pytest.raises(SimulationError):
            trace.instructions[0].execute(None)


class _PerRetirementSink:
    """A sink without ``accepts_events``: its presence keeps a translated
    run on the per-retirement batched path."""

    needs_memory = False

    def on_batch(self, *_args) -> None:
        pass


class TestEventPathRecording:
    @pytest.mark.parametrize("isa", ["rv64", "aarch64"])
    def test_trace_bytes_match_per_retirement_path(self, isa):
        workload = get_workload("minisweep", 0.02)
        compiled = workload.compile(isa, "gcc12")
        blobs = []
        summary_blocks = []
        for extra in ([], [_PerRetirementSink()]):
            cfg = AnalysisConfig(windowed=True, window_sizes=(4, 16))
            engine = cfg.build_engine(regions=compiled.image.regions)
            writer = TraceWriter(compiled.isa_name, compiled.image.regions)
            run = run_workload(workload, isa, "gcc12", compiled=compiled,
                               batch_sinks=[engine, writer, *extra])
            blobs.append(writer.finish())
            summary_blocks.append(
                (run.result.translation or {}).get("summary_blocks", 0))
        assert summary_blocks[0] > 0  # the default run took the event path
        assert summary_blocks[1] == 0  # the forced run did not
        assert blobs[0] == blobs[1]
