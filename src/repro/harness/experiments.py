"""The experiment matrix and the four paper artifacts it feeds.

Design: each (workload × ISA × compiler-profile) binary is compiled and
executed **once**, with every analysis probe attached — path-length,
plain critical path, scaled critical path (TX2 / TX2-derived models),
instruction mix, and (on GCC 12.2 binaries, per §6.1) the windowed
critical path. The figures and tables then render from the cached
:class:`SuiteResult` without re-simulating.

This module is now a thin layer over the plan/execute engine:

* :mod:`repro.harness.plan` — :class:`ExperimentPlan` (the frozen,
  hashable description of one config) and :func:`plan_suite`;
* :mod:`repro.harness.executor` — :class:`Executor` (serial or
  process-parallel execution with per-plan timeout, retry, and caching);
* :mod:`repro.harness.cache` — the content-addressed on-disk result
  cache;
* :mod:`repro.harness.events` — structured progress/timing telemetry.

:func:`run_suite` keeps its historical signature (plus ``jobs``,
``cache`` and ``events``), and the ``run_figure*``/``run_table*`` entry
points share one memoized suite per parameter set instead of silently
re-simulating the whole matrix each.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from repro.analysis import (
    AnalysisConfig,
    AnalysisResult,
    CriticalPathProbe,
    CriticalPathResult,
    InstructionMixProbe,
    InstructionMixResult,
    PathLengthProbe,
    PathLengthResult,
    WindowedCPProbe,
    WindowedCPResult,
    ilp,
    runtime_ms,
)
from repro.analysis.report import format_table
from repro.analysis.windowed import PAPER_WINDOW_SIZES
from repro.common.errors import ExperimentError
from repro.harness.plan import (  # noqa: F401 — compat re-exports
    BASELINE,
    CLOCK_GHZ,
    ISA_DISPLAY,
    ISAS,
    PROFILE_DISPLAY,
    PROFILES,
    SCALED_MODELS,
)
from repro.sim.config import CoreModel, load_core_model
from repro.workloads import ALL_WORKLOADS, Workload, get_workload, run_workload

#: Bump when the serialized shape of :class:`ConfigResult` changes.
#: v2 nests the engine-independent :class:`repro.analysis.AnalysisResult`
#: under ``"analysis"`` instead of flattening its parts; ``from_dict``
#: still reads v1 docs (pre-block-summary caches).
CONFIG_RESULT_SCHEMA = 2


@dataclass
class ConfigResult:
    """Everything measured for one workload × ISA × profile binary."""

    workload: str
    isa: str
    profile: str
    path: PathLengthResult
    cp: CriticalPathResult
    scaled_cp: CriticalPathResult
    mix: InstructionMixResult
    windowed: dict[int, WindowedCPResult] | None = None
    #: Block-translation statistics of the producing simulation
    #: (:meth:`EmulationCore.translation_stats`). Telemetry only — not
    #: part of the result identity, so deliberately excluded from
    #: ``to_dict``/``from_dict``: cache hits and trace replays carry None.
    translation: dict | None = field(default=None, compare=False)
    #: Sharded-execution statistics
    #: (:meth:`repro.harness.sharding.ShardRunStats.to_dict`) when the
    #: producing run was sharded. Telemetry only, like ``translation`` —
    #: sharding never changes the result, so it never enters the
    #: serialized identity.
    shard_stats: dict | None = field(default=None, compare=False)

    @property
    def path_length(self) -> int:
        return self.path.total

    @property
    def ilp(self) -> float:
        return ilp(self.path_length, self.cp.critical_path)

    @property
    def scaled_ilp(self) -> float:
        return ilp(self.path_length, self.scaled_cp.critical_path)

    def runtime_ms(self, clock_ghz: float = CLOCK_GHZ) -> float:
        return runtime_ms(self.cp.critical_path, clock_ghz)

    def scaled_runtime_ms(self, clock_ghz: float = CLOCK_GHZ) -> float:
        return runtime_ms(self.scaled_cp.critical_path, clock_ghz)

    @property
    def analysis(self) -> AnalysisResult:
        """The engine-independent analysis payload of this result."""
        return AnalysisResult(
            path=self.path, cp=self.cp, scaled_cp=self.scaled_cp,
            mix=self.mix, windowed=self.windowed,
        )

    @classmethod
    def from_analysis(cls, workload: str, isa: str, profile: str,
                      analysis: AnalysisResult,
                      translation: dict | None = None) -> "ConfigResult":
        """Wrap one :class:`AnalysisResult` with its config identity."""
        return cls(
            workload=workload, isa=isa, profile=profile,
            path=analysis.path, cp=analysis.cp,
            scaled_cp=analysis.scaled_cp, mix=analysis.mix,
            windowed=analysis.windowed, translation=translation,
        )

    def to_dict(self) -> dict:
        """Versioned JSON-safe dict; exact inverse of :meth:`from_dict`
        (all leaf values are ints/strings, so the round-trip — and the
        on-disk cache built on it — is lossless)."""
        return {
            "v": CONFIG_RESULT_SCHEMA,
            "workload": self.workload,
            "isa": self.isa,
            "profile": self.profile,
            "analysis": self.analysis.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ConfigResult":
        v = doc.get("v")
        if v == 1:
            # Pre-block-summary layout: the analysis leaves sat directly
            # on the config doc. Read-only compatibility for old caches.
            windowed = doc["windowed"]
            return cls(
                workload=doc["workload"],
                isa=doc["isa"],
                profile=doc["profile"],
                path=PathLengthResult.from_dict(doc["path"]),
                cp=CriticalPathResult.from_dict(doc["cp"]),
                scaled_cp=CriticalPathResult.from_dict(doc["scaled_cp"]),
                mix=InstructionMixResult.from_dict(doc["mix"]),
                windowed=(
                    None if windowed is None
                    else {int(w): WindowedCPResult.from_dict(r)
                          for w, r in windowed.items()}
                ),
            )
        if v != CONFIG_RESULT_SCHEMA:
            raise ValueError(f"ConfigResult schema {doc.get('v')!r} != "
                             f"{CONFIG_RESULT_SCHEMA}")
        return cls.from_analysis(
            doc["workload"], doc["isa"], doc["profile"],
            AnalysisResult.from_dict(doc["analysis"]),
        )


@dataclass
class SuiteResult:
    """All configurations, plus the parameters that produced them."""

    scale: float
    workloads: dict[str, Workload]
    configs: dict[tuple[str, str, str], ConfigResult] = field(default_factory=dict)
    window_sizes: tuple[int, ...] = PAPER_WINDOW_SIZES

    def get(self, workload: str, isa: str, profile: str) -> ConfigResult:
        return self.configs[(workload, isa, profile)]


#: Literal defaults of the deprecated per-kwarg analysis parameters on
#: :func:`run_config`; a value differing from these counts as "caller
#: used the legacy surface".
_LEGACY_ANALYSIS_DEFAULTS = {
    "engine": "fused",
    "windowed": False,
    "window_sizes": PAPER_WINDOW_SIZES,
    "slide_fraction": 0.5,
}


def _resolve_analysis(analysis, engine, windowed, window_sizes,
                      slide_fraction) -> AnalysisConfig:
    """Fold :func:`run_config`'s deprecated loose kwargs into one
    :class:`AnalysisConfig`, warning when the legacy surface is used and
    refusing a mix of both surfaces."""
    legacy = {
        "engine": engine,
        "windowed": windowed,
        "window_sizes": tuple(window_sizes),
        "slide_fraction": slide_fraction,
    }
    changed = sorted(
        k for k, v in legacy.items() if v != _LEGACY_ANALYSIS_DEFAULTS[k]
    )
    if analysis is not None:
        if changed:
            raise ExperimentError(
                "pass analysis parameters via analysis=AnalysisConfig(...) "
                "or via the legacy kwargs, not both "
                f"(legacy kwargs set: {', '.join(changed)})"
            )
        return analysis
    if changed:
        warnings.warn(
            "the engine=/windowed=/window_sizes=/slide_fraction= kwargs of "
            "run_config are deprecated and will be removed in the next "
            "release; pass analysis=AnalysisConfig(...) instead",
            DeprecationWarning, stacklevel=3,
        )
    return AnalysisConfig(**legacy)


def _run_fused_config(workload, isa, profile, compiled, cfg, model,
                      max_instructions, trace_writer, translate):
    engine = cfg.build_engine(regions=compiled.image.regions, model=model)
    sinks = [engine]
    if trace_writer is not None:
        trace_writer.isa_name = compiled.isa_name
        trace_writer.regions = list(compiled.image.regions)
        sinks.append(trace_writer)
    run = run_workload(
        workload, isa, profile, compiled=compiled,
        max_instructions=max_instructions, batch_sinks=sinks,
        translate=translate,
    )
    return ConfigResult.from_analysis(
        workload.name, isa, profile, engine.results(),
        translation=run.result.translation,
    )


def _run_probe_config(workload, isa, profile, compiled, cfg, model,
                      max_instructions, translate):
    path_probe = PathLengthProbe(compiled.image.regions)
    cp_probe = CriticalPathProbe(break_on_zero=cfg.break_on_zero)
    scaled_probe = CriticalPathProbe(model, break_on_zero=cfg.break_on_zero)
    mix_probe = InstructionMixProbe()
    probes = [path_probe, cp_probe, scaled_probe, mix_probe]
    window_probe = None
    if cfg.windowed:
        window_probe = WindowedCPProbe(cfg.window_sizes, cfg.slide_fraction,
                                       cfg.keep_cps)
        probes.append(window_probe)
    run = run_workload(
        workload, isa, profile, probes, compiled=compiled,
        max_instructions=max_instructions, translate=translate,
    )
    return ConfigResult(
        workload=workload.name,
        isa=isa,
        profile=profile,
        path=path_probe.result(),
        cp=cp_probe.result(),
        scaled_cp=scaled_probe.result(),
        mix=mix_probe.result(),
        windowed=window_probe.results() if window_probe else None,
        translation=run.result.translation,
    )


def run_config(
    workload: Workload,
    isa: str,
    profile: str,
    *,
    analysis: AnalysisConfig | None = None,
    windowed: bool = False,
    window_sizes: tuple[int, ...] = PAPER_WINDOW_SIZES,
    slide_fraction: float = 0.5,
    models: dict[str, str | CoreModel] | None = None,
    max_instructions: int = 500_000_000,
    engine: str = "fused",
    trace_writer=None,
    translate: bool = True,
    shards: int = 1,
    compiled=None,
) -> ConfigResult:
    """Compile, run and analyze one configuration (single execution).

    ``compiled`` (a :class:`repro.compiler.driver.CompiledProgram`)
    skips the compile step with a pre-built image — the warm worker
    pool's cross-plan reuse hook. Compilation is deterministic and
    every simulation builds fresh machine state, so a reused image is
    observationally identical to a fresh one.

    ``analysis`` (an :class:`repro.analysis.AnalysisConfig`) names the
    engine tier and every analysis parameter: ``"fused"`` (default) runs
    the batched single-pass :class:`FusedAnalysisEngine` over
    block-summary events; ``"probes"`` runs the five legacy per-retire
    probes (the differential oracle, and the path custom probes use).
    With ``check_invariants`` set, the *other* engine runs on the same
    binary afterwards and the results must match exactly.

    The loose ``engine=``/``windowed=``/``window_sizes=``/
    ``slide_fraction=`` kwargs are deprecated (one release behind a
    ``DeprecationWarning``) — pass ``analysis=`` instead.

    ``trace_writer`` (fused only) records the retirement stream
    alongside the analysis — the trace level of the two-level result
    cache. ``translate=False`` forces per-instruction interpretation
    (identical results; the translated path's differential oracle).
    ``shards`` > 1 (or 0 for auto) runs the deterministic sharded path
    (:mod:`repro.harness.sharding`): fast-forward + snapshot once, then
    analyze the retirement stream in parallel slices whose merged result
    is byte-identical to the serial one. Sharding requires the fused
    engine and never changes the result — only the wall-clock.
    """
    cfg = _resolve_analysis(analysis, engine, windowed, window_sizes,
                            slide_fraction)
    if trace_writer is not None and cfg.engine != "fused":
        raise ExperimentError(
            "trace recording requires the fused (batched) engine"
        )
    if compiled is None:
        compiled = workload.compile(isa, profile)
    model = (models or SCALED_MODELS)[isa]
    if isinstance(model, str):
        model = load_core_model(model)

    if shards != 1:
        from repro.harness.sharding import resolve_shards, run_sharded_config

        if shards != 0 and not cfg.shardable:
            raise ExperimentError(
                "sharded execution requires the fused (batched) engine; "
                f"got {cfg.engine!r}"
            )
        resolved = resolve_shards(shards)
        if resolved == 1 or not cfg.shardable or trace_writer is not None:
            # Degenerate to the plain serial path: auto-sharding on a
            # single-CPU box, a non-shardable config under auto, or a
            # trace-recording run. A trace needs the whole retirement
            # stream in one process, so a recording run cannot use slice
            # workers; slicing it in-process only adds the fast-forward
            # pass — strictly worse than serial.
            shards = 1
    if shards != 1:
        result, stats = run_sharded_config(
            workload, isa, profile, compiled, cfg, model,
            max_instructions, resolved, translate, trace_writer,
        )
        result.shard_stats = stats.to_dict()
        if cfg.check_invariants:
            check = _run_probe_config(workload, isa, profile, compiled,
                                      cfg, model, max_instructions,
                                      translate)
            if check.to_dict() != result.to_dict():
                raise ExperimentError(
                    "invariant check failed: sharded and probe analyses "
                    f"disagree on {workload.name}/{isa}/{profile}"
                )
        return result

    if cfg.engine == "fused":
        result = _run_fused_config(workload, isa, profile, compiled, cfg,
                                   model, max_instructions, trace_writer,
                                   translate)
        check = (_run_probe_config(workload, isa, profile, compiled, cfg,
                                   model, max_instructions, translate)
                 if cfg.check_invariants else None)
    else:
        result = _run_probe_config(workload, isa, profile, compiled, cfg,
                                   model, max_instructions, translate)
        check = (_run_fused_config(workload, isa, profile, compiled, cfg,
                                   model, max_instructions, None, translate)
                 if cfg.check_invariants else None)
    if check is not None and check.to_dict() != result.to_dict():
        raise ExperimentError(
            "invariant check failed: fused and probe analyses disagree on "
            f"{workload.name}/{isa}/{profile}"
        )
    return result


def replay_config(trace, plan) -> ConfigResult:
    """Analyze a recorded retirement trace under ``plan``'s analysis
    parameters — no compilation, no simulation.

    This is the trace-level cache hit: the stream only depends on the
    simulation identity (:meth:`ExperimentPlan.trace_fingerprint`), so
    plans that differ only in analysis parameters (window sizes, slide
    fraction, core model) replay one recording through a fresh
    :class:`FusedAnalysisEngine`.
    """
    model = load_core_model(plan.model)
    engine = plan.analysis.build_engine(regions=trace.regions, model=model)
    for batch in trace.iter_batches():
        engine.on_batch(*batch)
    return ConfigResult.from_analysis(
        plan.workload, plan.isa, plan.profile, engine.results()
    )


def run_suite(
    scale: float = 1.0,
    *,
    workloads: tuple[str, ...] | None = None,
    windowed: bool = True,
    window_sizes: tuple[int, ...] = PAPER_WINDOW_SIZES,
    verbose: bool = False,
    jobs: int | None = None,
    cache=None,
    timeout: float | None = None,
    heartbeat: float | None = None,
    retries: int = 1,
    events=None,
    translate: bool = True,
    shards: int = 1,
    warm_pool: bool = True,
    max_tasks_per_worker: int = 0,
) -> SuiteResult:
    """Run the full matrix. ``scale`` scales every workload's problem size
    (1.0 = reduced defaults; see DESIGN.md §5). Windowed analysis runs on
    GCC 12.2 binaries only, as in §6.1.

    Compatibility wrapper over :class:`repro.harness.executor.Executor`:
    ``jobs`` fans the matrix out across worker processes, ``cache`` (a
    :class:`repro.harness.cache.ResultCache`) skips already-computed
    configs, ``timeout`` bounds each config's wall-clock, ``heartbeat``
    kills workers that stop beating (hang detection distinct from the
    timeout), ``retries`` bounds re-attempts after transient failures,
    and ``events`` (an :class:`repro.harness.events.EventBus`) receives
    structured progress telemetry; ``verbose`` attaches a console
    reporter to it. ``warm_pool=False`` restores the legacy
    fresh-process-per-plan executor (the byte-identity baseline);
    ``max_tasks_per_worker`` recycles warm workers after that many
    tasks (0 = never).
    """
    from repro.harness.events import ConsoleReporter, EventBus
    from repro.harness.executor import Executor

    bus = events if events is not None else EventBus()
    if verbose:
        bus.subscribe(ConsoleReporter())
    executor = Executor(jobs=jobs, cache=cache, events=bus, timeout=timeout,
                        heartbeat=heartbeat, retries=retries,
                        warm_pool=warm_pool,
                        max_tasks_per_worker=max_tasks_per_worker)
    return executor.run_suite(
        scale,
        workloads=workloads,
        windowed=windowed,
        window_sizes=tuple(window_sizes),
        translate=translate,
        shards=shards,
    )


# ------------------------------------------------------- shared-suite memo

#: Suites already simulated this process, keyed by the parameters that
#: produced them. ``run_figure*``/``run_table*`` called without a suite
#: share these instead of each re-simulating the full matrix.
_SUITE_MEMO: dict[tuple, SuiteResult] = {}


def clear_suite_memo() -> None:
    """Drop the in-process suite memo (mainly for tests)."""
    _SUITE_MEMO.clear()


def _shared_suite(
    scale: float,
    *,
    windowed: bool,
    window_sizes: tuple[int, ...] = PAPER_WINDOW_SIZES,
) -> SuiteResult:
    """Fetch-or-run the full-matrix suite for these parameters. A
    windowed suite satisfies non-windowed requests (it is a superset)."""
    sizes = tuple(window_sizes)
    windowed_key = (scale, sizes, True)
    if windowed_key in _SUITE_MEMO:
        return _SUITE_MEMO[windowed_key]
    key = (scale, sizes, windowed)
    if key not in _SUITE_MEMO:
        _SUITE_MEMO[key] = run_suite(
            scale, windowed=windowed, window_sizes=sizes
        )
    return _SUITE_MEMO[key]


# --------------------------------------------------------------- Figure 1

@dataclass
class Figure1Result:
    """Per-kernel path lengths, normalized to GCC 9.2 / AArch64."""

    suite: SuiteResult
    # workload -> {(isa, profile) -> {kernel -> normalized count}}
    normalized: dict[str, dict[tuple[str, str], dict[str, float]]]
    raw: dict[str, dict[tuple[str, str], dict[str, int]]]

    def render(self) -> str:
        sections = []
        for name, per_config in self.normalized.items():
            kernels = list(self.suite.workloads[name].kernels) + ["other"]
            headers = ["config"] + kernels + ["total"]
            rows = []
            for (isa, profile), counts in per_config.items():
                label = f"{PROFILE_DISPLAY[profile]} {ISA_DISPLAY[isa]}"
                row = [label] + [round(counts.get(k, 0.0), 4) for k in kernels]
                row.append(round(sum(counts.values()), 4))
                rows.append(row)
            sections.append(format_table(
                headers, rows,
                title=f"Figure 1 — {name}: path length by kernel "
                      f"(normalized to GCC 9.2 AArch64)",
            ))
        return "\n\n".join(sections)


def run_figure1(scale: float = 1.0, suite: SuiteResult | None = None) -> Figure1Result:
    if suite is None:
        suite = _shared_suite(scale, windowed=False)
    normalized: dict[str, dict[tuple[str, str], dict[str, float]]] = {}
    raw: dict[str, dict[tuple[str, str], dict[str, int]]] = {}
    for name in suite.workloads:
        base = suite.get(name, *BASELINE)
        base_total = base.path.total
        normalized[name] = {}
        raw[name] = {}
        for isa in ISAS:
            for profile in PROFILES:
                config = suite.get(name, isa, profile)
                counts = dict(config.path.per_region)
                raw[name][(isa, profile)] = counts
                normalized[name][(isa, profile)] = {
                    kernel: count / base_total
                    for kernel, count in counts.items()
                }
    return Figure1Result(suite=suite, normalized=normalized, raw=raw)


# ----------------------------------------------------------- Tables 1 & 2

@dataclass
class TableResult:
    """Table 1 (plain CP) or Table 2 (scaled CP) rows."""

    suite: SuiteResult
    scaled: bool

    def rows_for(self, workload: str) -> list[list[object]]:
        rows = []
        for metric in ("Path Length", "CP", "ILP", "2GHz Run time (ms)"):
            row: list[object] = [metric]
            for profile in PROFILES:
                for isa in ISAS:
                    config = self.suite.get(workload, isa, profile)
                    cp = config.scaled_cp if self.scaled else config.cp
                    if metric == "Path Length":
                        row.append(config.path_length)
                    elif metric == "CP":
                        row.append(cp.critical_path)
                    elif metric == "ILP":
                        row.append(round(ilp(config.path_length,
                                             cp.critical_path), 1))
                    else:
                        row.append(round(runtime_ms(cp.critical_path,
                                                    CLOCK_GHZ), 6))
            rows.append(row)
        return rows

    def render(self) -> str:
        which = "Table 2 — Scaled Critical Paths" if self.scaled else (
            "Table 1 — Critical Paths"
        )
        headers = ["metric"] + [
            f"{PROFILE_DISPLAY[p]} {ISA_DISPLAY[i]}"
            for p in PROFILES for i in ISAS
        ]
        sections = []
        for name in self.suite.workloads:
            sections.append(format_table(
                headers, self.rows_for(name), title=f"{which} — {name}"
            ))
        return "\n\n".join(sections)


def run_table1(scale: float = 1.0, suite: SuiteResult | None = None) -> TableResult:
    if suite is None:
        suite = _shared_suite(scale, windowed=False)
    return TableResult(suite=suite, scaled=False)


def run_table2(scale: float = 1.0, suite: SuiteResult | None = None) -> TableResult:
    if suite is None:
        suite = _shared_suite(scale, windowed=False)
    return TableResult(suite=suite, scaled=True)


# ---------------------------------------------------- §8 future-work cores

@dataclass
class FutureCoresResult:
    """Runtimes on the §8 extension cores (in-order and finite-ROB OoO)."""

    # workload -> isa -> {"inorder": cycles, rob: cycles...}
    cycles: dict[str, dict[str, dict[object, int]]]
    rob_sizes: tuple[int, ...]
    clock_ghz: float = CLOCK_GHZ

    def render(self) -> str:
        headers = ["workload/ISA", "in-order"] + [
            f"OoO rob={rob}" for rob in self.rob_sizes
        ]
        rows = []
        for name, per_isa in self.cycles.items():
            for isa, values in per_isa.items():
                row: list[object] = [f"{name} {ISA_DISPLAY[isa]}"]
                row.append(values["inorder"])
                row.extend(values[rob] for rob in self.rob_sizes)
                rows.append(row)
        return format_table(
            headers, rows,
            title="Future work (§8) — cycles on finite cores (TX2 latencies)",
        )


def run_future_cores(
    scale: float = 1.0,
    *,
    workloads: tuple[str, ...] | None = None,
    rob_sizes: tuple[int, ...] = (16, 64, 180, 630),
    issue_width: int = 4,
) -> FutureCoresResult:
    """§8: run every workload on the in-order and OoO timing models.

    Each configuration is a single execution with all core models attached
    as probes (they are trace-driven, so they share the run).
    """
    from repro.sim.inorder import InOrderTimingProbe
    from repro.sim.ooo import OoOTimingProbe
    from repro.workloads import get_workload, run_workload

    names = workloads or tuple(ALL_WORKLOADS)
    cycles: dict[str, dict[str, dict[object, int]]] = {}
    for name in names:
        workload = get_workload(name, scale)
        cycles[name] = {}
        for isa in ISAS:
            model = load_core_model(SCALED_MODELS[isa])
            inorder = InOrderTimingProbe(model)
            cores = {rob: OoOTimingProbe(model, rob_size=rob,
                                         issue_width=issue_width)
                     for rob in rob_sizes}
            run_workload(workload, isa, "gcc12",
                         [inorder] + list(cores.values()))
            cycles[name][isa] = {"inorder": inorder.result().cycles}
            for rob, probe in cores.items():
                cycles[name][isa][rob] = probe.result().cycles
    return FutureCoresResult(cycles=cycles, rob_sizes=tuple(rob_sizes))


# --------------------------------------------------------------- Figure 2

@dataclass
class Figure2Result:
    """Mean ILP per window size, GCC 12.2 binaries (the Figure 2 series)."""

    suite: SuiteResult
    # workload -> isa -> [(window, mean ILP)]
    series: dict[str, dict[str, list[tuple[int, float]]]]

    def render(self) -> str:
        headers = ["workload/ISA"] + [str(w) for w in self.suite.window_sizes]
        rows = []
        for name, per_isa in self.series.items():
            for isa, points in per_isa.items():
                label = f"{name} {ISA_DISPLAY[isa]}"
                rows.append([label] + [round(v, 2) for _w, v in points])
        return format_table(
            headers, rows,
            title="Figure 2 — mean ILP per window size (GCC 12.2)",
        )

    def window_averages_text(self) -> str:
        """The artifact's windowAverages.txt: comma-separated mean window CP
        per benchmark, ascending window size."""
        lines = []
        for name, per_isa in self.series.items():
            for isa, _points in per_isa.items():
                config = self.suite.get(name, isa, "gcc12")
                means = [
                    config.windowed[w].mean_cp for w in self.suite.window_sizes
                ]
                values = ", ".join(f"{m:.3f}" for m in means)
                lines.append(f"{name}-{isa}: {values}")
        return "\n".join(lines)


def run_figure2(
    scale: float = 1.0,
    suite: SuiteResult | None = None,
    window_sizes: tuple[int, ...] = PAPER_WINDOW_SIZES,
) -> Figure2Result:
    if suite is None:
        suite = _shared_suite(scale, windowed=True,
                              window_sizes=window_sizes)
    series: dict[str, dict[str, list[tuple[int, float]]]] = {}
    for name in suite.workloads:
        series[name] = {}
        for isa in ISAS:
            config = suite.get(name, isa, "gcc12")
            if config.windowed is None:
                raise ExperimentError(
                    "suite was built without windowed analysis; "
                    "re-run with windowed=True"
                )
            series[name][isa] = [
                (w, config.windowed[w].mean_ilp) for w in suite.window_sizes
            ]
    return Figure2Result(suite=suite, series=series)
