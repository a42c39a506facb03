"""Property tests for the translate-time block-summary layer.

The tentpole invariants, stated as tests:

* the translated event stream (pre-aggregated per-block deltas) drives
  the fused engine to *exactly* the legacy per-retire probes' results,
  on every workload and both ISAs — and the event path actually ran
  (``event_batches > 0``), so this is not the SoA fallback vouching for
  itself;
* ``AnalysisState.merge`` is exact and associative: splitting the event
  stream at *any* block boundary, analyzing the pieces independently
  (suffixes in relative mode), and merging reproduces the serial result
  byte-for-byte, over seeded-random kernelc programs (hypothesis-style)
  and a real workload;
* the typed :class:`AnalysisConfig` surface replaces the loose kwargs —
  legacy kwargs still work one release behind a ``DeprecationWarning``,
  mixing both surfaces is an error — and the versioned result/cache
  formats keep reading their previous layouts.
"""

from __future__ import annotations

import json
import random
import warnings

import pytest

from repro.analysis import (
    AnalysisConfig,
    AnalysisResult,
    AnalysisState,
    CriticalPathProbe,
    FusedAnalysisEngine,
    InstructionMixProbe,
    PathLengthProbe,
    WindowedCPProbe,
)
from repro.analysis.engine import _RelAcc
from repro.common.errors import ExperimentError
from repro.compiler import compile_source
from repro.harness.cache import ResultCache
from repro.harness.experiments import ConfigResult, run_config
from repro.harness.plan import ExperimentPlan
from repro.isa import get_isa
from repro.sim import run_image
from repro.sim.config import load_core_model
from repro.workloads import ALL_WORKLOADS, get_workload
from repro.workloads.stream import Stream, StreamParams

SCALE = 0.02
WINDOWS = (4, 16)

MODELS = {"aarch64": "tx2", "rv64": "tx2-riscv"}


def _model(isa_name: str):
    return load_core_model(MODELS[isa_name])


def _engine(compiled, *, windowed=True, relative=False):
    return FusedAnalysisEngine(
        regions=compiled.image.regions, model=_model(compiled.isa_name),
        windowed=windowed, window_sizes=WINDOWS, relative=relative,
    )


def _probe_result(compiled) -> dict:
    """The five legacy probes on the interpreter: the oracle."""
    isa = get_isa(compiled.isa_name)
    path = PathLengthProbe(compiled.image.regions)
    cp = CriticalPathProbe()
    scaled = CriticalPathProbe(_model(compiled.isa_name))
    mix = InstructionMixProbe()
    window = WindowedCPProbe(WINDOWS, 0.5)
    run_image(compiled.image, isa, [path, cp, scaled, mix, window],
              translate=False)
    return AnalysisResult(
        path=path.result(), cp=cp.result(), scaled_cp=scaled.result(),
        mix=mix.result(), windowed=window.results(),
    ).to_dict()


class _EventRecorder:
    """Capture the translated run's event stream so tests can re-feed it
    to engines in arbitrary splits (every batch ends on a block
    boundary, so batch indices *are* block-boundary split points)."""

    needs_memory = True
    accepts_events = True

    def __init__(self):
        self.table = None
        self.summaries = None
        self.batches: list[tuple] = []

    def on_events(self, table, summaries, events, count, indices,
                  read_ends, write_ends, reads, writes):
        self.table = table
        self.summaries = summaries
        self.batches.append((list(events), count, list(indices),
                             list(read_ends), list(write_ends),
                             list(reads), list(writes)))


def _record(compiled) -> _EventRecorder:
    recorder = _EventRecorder()
    run_image(compiled.image, get_isa(compiled.isa_name),
              batch_sinks=[recorder])
    assert recorder.batches, "translated run produced no event batches"
    return recorder


def _feed(engine, recorder, lo, hi) -> AnalysisState:
    for i in range(lo, hi):
        engine.on_events(recorder.table, recorder.summaries,
                         *recorder.batches[i])
    return engine.state()


def _serial_result(compiled) -> dict:
    engine = _engine(compiled)
    run_image(compiled.image, get_isa(compiled.isa_name),
              batch_sinks=[engine])
    assert engine.event_batches > 0, "event fast path did not run"
    return engine.results().to_dict()


# ----------------------------------------------- summary == probes, exact

@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_summary_events_match_probes_on_workload(name):
    workload = get_workload(name, SCALE)
    for isa in ("aarch64", "rv64"):
        compiled = workload.compile(isa, "gcc12")
        assert _serial_result(compiled) == _probe_result(compiled)


def test_translation_registers_summaries():
    compiled = get_workload("stream", SCALE).compile("rv64", "gcc12")
    engine = _engine(compiled, windowed=False)
    run, _machine = run_image(compiled.image, get_isa(compiled.isa_name),
                              batch_sinks=[engine])
    stats = run.translation
    assert stats is not None and stats["summary_blocks"] > 0
    assert engine.event_batches > 0


# ------------------------------------------------- split/merge properties

def _random_kernelc(seed: int) -> str:
    rng = random.Random(seed)
    n = rng.randrange(24, 80)
    lines = [
        f"global long ia[{n}];",
        f"global double da[{n}];",
        "global double out_d;",
        "global long out_l;",
        "func long main() {",
        "  long acc = 1;",
        "  double facc = 0.5;",
        f"  for (long i = 0; i < {n}; i = i + 1) {{",
        f"    ia[i] = i * {rng.randrange(1, 9)} + {rng.randrange(0, 5)};",
        f"    da[i] = 1.0 + i * {rng.choice(['0.25', '0.5', '1.5'])};",
        "  }",
    ]
    for _ in range(rng.randrange(2, 5)):
        stride = rng.choice([1, 2, 3])
        body = rng.choice([
            "acc = acc + ia[i] * {k};",
            "ia[i] = ia[i] + acc / (i + 1);",
            "facc = facc + da[i] * {f};",
            "da[i] = da[i] / (facc + 1.0) + {f};",
            "if (ia[i] > {k}) { acc = acc + 1; } else { facc = facc + da[i]; }",
        ])
        body = body.replace("{k}", str(rng.randrange(1, 7)))
        body = body.replace("{f}", rng.choice(["0.125", "2.0", "3.5"]))
        lines.append(
            f"  for (long i = 0; i < {n}; i = i + {stride}) {{ {body} }}"
        )
    lines += [
        "  out_l = acc;",
        "  out_d = facc;",
        "  return 0;",
        "}",
    ]
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(6))
def test_split_at_any_boundary_matches_serial(seed):
    # hypothesis-style: seeded random programs, every (sampled) split
    # point; an absolute prefix merged with a relative suffix must equal
    # the serial analysis exactly.
    isa = ("aarch64", "rv64")[seed % 2]
    compiled = compile_source(_random_kernelc(seed), isa, "gcc12")
    serial = _serial_result(compiled)
    recorder = _record(compiled)
    n = len(recorder.batches)
    splits = range(n + 1) if n <= 12 else (
        sorted({0, 1, n // 3, n // 2, 2 * n // 3, n - 1, n})
    )
    for split in splits:
        prefix = _feed(_engine(compiled), recorder, 0, split)
        suffix = _feed(_engine(compiled, relative=True), recorder, split, n)
        merged = prefix.merge(suffix)
        assert merged.results().to_dict() == serial, f"split {split}/{n}"


@pytest.mark.parametrize("seed", range(4))
def test_merge_is_associative(seed):
    isa = ("rv64", "aarch64")[seed % 2]
    compiled = compile_source(_random_kernelc(seed + 100), isa, "gcc12")
    serial = _serial_result(compiled)
    recorder = _record(compiled)
    n = len(recorder.batches)
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(n + 1), k=min(2, n + 1)))
    i = cuts[0]
    j = cuts[-1]
    state_a = _feed(_engine(compiled), recorder, 0, i)
    def state_b():
        return _feed(_engine(compiled, relative=True), recorder, i, j)
    def state_c():
        return _feed(_engine(compiled, relative=True), recorder, j, n)
    left = state_a.merge(state_b()).merge(state_c())
    right = state_a.merge(state_b().merge(state_c()))
    assert left.results().to_dict() == serial
    assert right.results().to_dict() == serial


def test_split_merge_on_real_workload():
    compiled = get_workload("stream", SCALE).compile("rv64", "gcc12")
    serial = _serial_result(compiled)
    recorder = _record(compiled)
    n = len(recorder.batches)
    for split in (n // 4, n // 2, (3 * n) // 4):
        prefix = _feed(_engine(compiled), recorder, 0, split)
        suffix = _feed(_engine(compiled, relative=True), recorder, split, n)
        assert prefix.merge(suffix).results().to_dict() == serial


def test_relative_state_has_no_absolute_results():
    compiled = compile_source(_random_kernelc(3), "rv64", "gcc12")
    recorder = _record(compiled)
    state = _feed(_engine(compiled, relative=True), recorder, 0,
                  len(recorder.batches))
    assert state.relative
    with pytest.raises(RuntimeError, match="relative"):
        state.results()


def test_relative_chain_updates_in_place_and_clones_stay_isolated():
    # A relative engine keeps a long register chain (STREAM's checksum
    # reductions over cells the slice has not seen written) as one
    # accumulator updated in place. A state taken mid-slice — every
    # merge clones — must not see the batches fed after it.
    compiled = Stream(StreamParams(n=600, ntimes=1)).compile("rv64", "gcc12")
    recorder = _record(compiled)
    n = len(recorder.batches)
    split, mid = n // 2, (5 * n) // 6
    prefix = _feed(_engine(compiled), recorder, 0, split)
    engine = _engine(compiled, relative=True)
    _feed(engine, recorder, split, mid)
    assert any(isinstance(v, _RelAcc) for v in engine._reg_p), \
        "no in-place chain accumulator at the clone point"
    early = AnalysisState(engine.clone())
    _feed(engine, recorder, mid, n)
    assert (prefix.merge(early).results().to_dict()
            == _feed(_engine(compiled), recorder, 0, mid).results().to_dict())
    assert (prefix.merge(engine.state()).results().to_dict()
            == _serial_result(compiled))


# ------------------------------------------------ typed config surface

def test_legacy_kwargs_warn():
    workload = get_workload("stream", SCALE)
    with pytest.warns(DeprecationWarning, match="AnalysisConfig"):
        run_config(workload, "rv64", "gcc12", windowed=True,
                   window_sizes=WINDOWS)


def test_analysis_config_does_not_warn():
    workload = get_workload("stream", SCALE)
    cfg = AnalysisConfig(windowed=True, window_sizes=WINDOWS)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = run_config(workload, "rv64", "gcc12", analysis=cfg)
    assert result.windowed is not None and set(result.windowed) == set(WINDOWS)


def test_mixing_surfaces_is_an_error():
    workload = get_workload("stream", SCALE)
    with pytest.raises(ExperimentError, match="not both"):
        run_config(workload, "rv64", "gcc12",
                   analysis=AnalysisConfig(), windowed=True)


def test_analysis_config_validates():
    with pytest.raises(ValueError, match="unknown analysis engine"):
        AnalysisConfig(engine="simd")
    with pytest.raises(ValueError, match="slide_fraction"):
        AnalysisConfig(slide_fraction=0.0)
    with pytest.raises(ValueError, match="fused"):
        AnalysisConfig(engine="probes", capture_trace=True)
    roundtrip = AnalysisConfig.from_dict(
        AnalysisConfig(windowed=True, keep_cps=True).to_dict())
    assert roundtrip == AnalysisConfig(windowed=True, keep_cps=True)


def test_check_invariants_runs_the_oracle():
    workload = get_workload("stream", SCALE)
    cfg = AnalysisConfig(windowed=True, window_sizes=WINDOWS,
                         check_invariants=True)
    result = run_config(workload, "rv64", "gcc12", analysis=cfg)
    assert result.path.total > 0


def test_probe_engine_honors_break_on_zero():
    workload = get_workload("stream", SCALE)
    a1 = run_config(workload, "rv64", "gcc12",
                    analysis=AnalysisConfig(engine="probes",
                                            break_on_zero=False))
    base = run_config(workload, "rv64", "gcc12",
                      analysis=AnalysisConfig(engine="probes"))
    assert a1.cp.critical_path >= base.cp.critical_path


# -------------------------------------------- versioned result formats

def test_config_result_roundtrip_and_v1_compat():
    workload = get_workload("stream", SCALE)
    result = run_config(workload, "rv64", "gcc12",
                        analysis=AnalysisConfig(windowed=True,
                                                window_sizes=WINDOWS))
    doc = result.to_dict()
    assert doc["v"] == 2 and doc["analysis"]["v"] == 1
    assert ConfigResult.from_dict(doc) == result

    # the pre-block-summary flat layout must keep parsing (old caches)
    analysis = doc["analysis"]
    v1 = {
        "v": 1,
        "workload": doc["workload"],
        "isa": doc["isa"],
        "profile": doc["profile"],
        "path": analysis["path"],
        "cp": analysis["cp"],
        "scaled_cp": analysis["scaled_cp"],
        "mix": analysis["mix"],
        "windowed": analysis["windowed"],
    }
    assert ConfigResult.from_dict(v1) == result


def test_cache_reads_previous_format(tmp_path):
    workload = get_workload("stream", SCALE)
    result = run_config(workload, "rv64", "gcc12",
                        analysis=AnalysisConfig())
    cache = ResultCache(tmp_path / "cache")
    plan = ExperimentPlan(workload="stream", isa="rv64", profile="gcc12",
                          scale=SCALE, windowed=False)
    path = cache.put(plan, result)
    doc = json.loads(path.read_text())
    assert doc["format"] == 3

    # rewrite the envelope as the previous on-disk format: still a
    # valid entry, must load (not quarantine) on read
    doc["format"] = 2
    path.write_text(json.dumps(doc, separators=(",", ":")))
    loaded = cache.get(plan)
    assert loaded == result
    assert cache.stats.quarantined == 0
