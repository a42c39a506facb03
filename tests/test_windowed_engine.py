"""Differential tests for the fused engine's windowed critical path on
the edges the workload differentials do not reach.

``WindowedCPProbe`` is the oracle. Synthetic retirement streams cover
what compiled programs rarely produce: unaligned accesses spanning two
or three 8-byte cells, window size 1, windows longer than the stream,
slide fractions other than 0.5, and whole per-window CP sequences
(``keep_cps=True``). The same stream is fed to the engine per retirement
(``on_batch``, the trace-replay path) and as block-summary events
(``on_events``, the live path), and split across relative shard engines
that are merged back, with small consume and wavefront-block sizes so
every stream crosses several chunk boundaries.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import (
    CriticalPathProbe,
    FusedAnalysisEngine,
    WindowedCPProbe,
    build_summary,
)
from repro.analysis import engine as engine_mod
from repro.analysis.engine import AnalysisState
from repro.compiler import compile_source
from repro.isa import get_isa
from repro.isa.base import DecodedInst, InstructionGroup
from repro.sim import run_image
from repro.sim.trace import TraceWriter, read_trace

SIZES = (1, 3, 8, 50, 10_000)
ACCESS_SIZES = (1, 2, 4, 8, 16)


@pytest.fixture
def small_chunks(monkeypatch):
    """Consume every few dozen items, in wavefront blocks of a few
    dozen entries, so carries and block splits are exercised."""
    monkeypatch.setattr(engine_mod, "_CONSUME_ITEMS", 61)
    monkeypatch.setattr(engine_mod, "_WAVE_BLOCK", 37)


class _Program:
    """A random static table, basic blocks over it, and a random
    retirement stream of block executions and loose items."""

    def __init__(self, seed: int, n_items: int = 1500,
                 unaligned: bool = True):
        rng = random.Random(seed)
        groups = list(InstructionGroup)
        self.table = []
        self.rsizes = []
        self.wsizes = []
        for j in range(24):
            rs = [rng.choice(ACCESS_SIZES) for _ in range(rng.choice(
                (0, 0, 1, 1, 2)))]
            ws = [rng.choice(ACCESS_SIZES) for _ in range(rng.choice(
                (0, 0, 0, 1, 2)))]
            self.rsizes.append(rs)
            self.wsizes.append(ws)
            self.table.append(DecodedInst(
                0x1000 + 4 * j, j, f"op{j}", f"op{j}", rng.choice(groups),
                tuple(rng.sample(range(8), rng.randrange(0, 4))),
                tuple(rng.sample(range(8), rng.randrange(0, 2))),
                None, is_load=bool(rs), is_store=bool(ws)))
        self.blocks = [[rng.randrange(24) for _ in range(rng.randrange(1, 7))]
                       for _ in range(5)]
        self.summaries = []
        for idxs in self.blocks:
            roffs, woffs, rs, ws = [], [], [], []
            for idx in idxs:
                rs += self.rsizes[idx]
                ws += self.wsizes[idx]
                roffs.append(len(rs))
                woffs.append(len(ws))
            self.summaries.append(build_summary(
                [self.table[i] for i in idxs], idxs, roffs, woffs, rs, ws))

        def access(size):
            addr = 0x8000 + 8 * rng.randrange(20)
            if unaligned and rng.random() < 0.3:
                addr += rng.randrange(1, 8)
            return (addr, size)

        def item(idx):
            return (idx, [access(s) for s in self.rsizes[idx]],
                    [access(s) for s in self.wsizes[idx]])

        #: ``("block", id, [k * len(block) items])`` or ``("soa", items)``
        self.segments = []
        self.items = []
        while len(self.items) < n_items:
            if rng.random() < 0.6:
                bid = rng.randrange(len(self.blocks))
                run = [item(idx) for _ in range(rng.randrange(1, 5))
                       for idx in self.blocks[bid]]
                self.segments.append(("block", bid, run))
            else:
                run = [item(rng.randrange(24))
                       for _ in range(rng.randrange(1, 9))]
                self.segments.append(("soa", None, run))
            self.items.extend(run)

    # -- feeders ---------------------------------------------------------

    def probes(self, sizes, slide, keep_cps=True):
        windowed = WindowedCPProbe(sizes, slide, keep_cps=keep_cps)
        cp = CriticalPathProbe()
        for idx, reads, writes in self.items:
            windowed.on_retire(self.table[idx], reads, writes)
            cp.on_retire(self.table[idx], reads, writes)
        return windowed.results(), cp.result()

    def batches(self, lo=0, hi=None, seed=0):
        """``on_batch`` argument tuples over items ``[lo, hi)``."""
        rng = random.Random(seed)
        items = self.items[lo:hi]
        p = 0
        while p < len(items):
            chunk = items[p:p + rng.randrange(1, 200)]
            p += len(chunk)
            indices, read_ends, write_ends, reads, writes = [], [], [], [], []
            for idx, rs, ws in chunk:
                indices.append(idx)
                reads.extend(rs)
                writes.extend(ws)
                read_ends.append(len(reads))
                write_ends.append(len(writes))
            yield (self.table, len(chunk), indices, read_ends, write_ends,
                   reads, writes)

    def event_flushes(self, seed=0):
        """``on_events`` argument tuples, a few segments per flush."""
        rng = random.Random(seed)
        s = 0
        while s < len(self.segments):
            group = self.segments[s:s + rng.randrange(1, 6)]
            s += len(group)
            events, indices, read_ends, write_ends = [], [], [], []
            reads, writes = [], []
            count = 0
            for kind, bid, run in group:
                if kind == "block":
                    events += [bid, len(run) // len(self.blocks[bid])]
                for idx, rs, ws in run:
                    reads.extend(rs)
                    writes.extend(ws)
                    if kind == "soa":
                        indices.append(idx)
                        read_ends.append(len(reads))
                        write_ends.append(len(writes))
                if kind == "soa":
                    events += [-1, len(run)]
                count += len(run)
            yield (self.table, self.summaries, events, count, indices,
                   read_ends, write_ends, reads, writes)


def _engine(sizes, slide, relative=False):
    return FusedAnalysisEngine(windowed=True, window_sizes=sizes,
                               slide_fraction=slide, keep_cps=True,
                               relative=relative)


def _windowed(results):
    return {w: r.to_dict() for w, r in results.windowed.items()}


@pytest.mark.parametrize("slide", (0.25, 0.5, 1.0))
@pytest.mark.parametrize("seed", range(3))
def test_batch_path_matches_probe(seed, slide, small_chunks):
    prog = _Program(seed)
    expected, cp = prog.probes(SIZES, slide)
    engine = _engine(SIZES, slide)
    for batch in prog.batches(seed=seed):
        engine.on_batch(*batch)
    results = engine.results()
    assert _windowed(results) == {w: r.to_dict()
                                  for w, r in expected.items()}
    assert results.cp.to_dict() == cp.to_dict()
    # results() is idempotent
    assert _windowed(engine.results()) == _windowed(results)


@pytest.mark.parametrize("slide", (0.25, 0.5, 1.0))
@pytest.mark.parametrize("seed", range(3))
def test_event_path_matches_batch_path(seed, slide, small_chunks):
    prog = _Program(100 + seed)
    live = _engine(SIZES, slide)
    for flush in prog.event_flushes(seed=seed):
        live.on_events(*flush)
    replay = _engine(SIZES, slide)
    for batch in prog.batches(seed=seed):
        replay.on_batch(*batch)
    expected, cp = prog.probes(SIZES, slide)
    live_results = live.results()
    assert _windowed(live_results) == _windowed(replay.results())
    assert _windowed(live_results) == {w: r.to_dict()
                                       for w, r in expected.items()}
    assert live_results.cp.to_dict() == cp.to_dict()


def test_default_chunking_matches_probe():
    """With the shipped consume size the stream is one chunk: every
    window, complete or partial, comes out of one wavefront."""
    prog = _Program(7, n_items=3000)
    expected, _cp = prog.probes(SIZES, 0.5)
    engine = _engine(SIZES, 0.5)
    for batch in prog.batches():
        engine.on_batch(*batch)
    assert _windowed(engine.results()) == {w: r.to_dict()
                                           for w, r in expected.items()}


def test_aligned_stream_matches_probe(small_chunks):
    prog = _Program(11, unaligned=False)
    expected, _cp = prog.probes(SIZES, 0.5)
    engine = _engine(SIZES, 0.5)
    for flush in prog.event_flushes():
        engine.on_events(*flush)
    assert _windowed(engine.results()) == {w: r.to_dict()
                                           for w, r in expected.items()}


@pytest.mark.parametrize("seed", range(3))
def test_split_and_merge_matches_serial(seed, small_chunks):
    """Shard states (one absolute prefix, relative suffixes) merge to
    the serial per-window CP sequences, in either association and
    through the cross-process state document."""
    prog = _Program(200 + seed)
    n = len(prog.items)
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, n), 2))
    bounds = [0, *cuts, n]
    serial = _engine(SIZES, 0.5)
    for batch in prog.batches(seed=seed):
        serial.on_batch(*batch)
    expected = _windowed(serial.results())

    states = []
    for k in range(3):
        engine = _engine(SIZES, 0.5, relative=k > 0)
        for batch in prog.batches(bounds[k], bounds[k + 1], seed=seed):
            engine.on_batch(*batch)
        states.append(engine.state())
    a, b, c = states
    assert _windowed(a.merge(b).merge(c).results()) == expected
    assert _windowed(a.merge(b.merge(c)).results()) == expected
    shipped = [AnalysisState.from_doc(s.to_doc(),
                                      _engine(SIZES, 0.5, relative=True))
               for s in (b, c)]
    assert _windowed(a.merge(shipped[0]).merge(shipped[1]).results()) \
        == expected


def test_live_run_matches_trace_replay():
    """A compiled program analyzed live (block-summary events) and from
    its recorded trace (per-retirement batches) yields identical
    per-window CP sequences."""
    source = """
    global long a[64];
    global double d[64];
    global double out_d;
    func long main() {
      long acc = 0;
      double f = 0.5;
      for (long i = 0; i < 64; i = i + 1) { a[i] = i * 3; d[i] = i * 0.5; }
      for (long i = 1; i < 64; i = i + 1) {
        acc = acc + a[i - 1] * a[i];
        d[i] = d[i - 1] + d[i] * f;
      }
      out_d = d[63];
      return acc;
    }
    """
    compiled = compile_source(source, "rv64", "gcc12")
    sizes = (1, 4, 16, 64, 200, 100_000)
    live = _engine(sizes, 0.5)
    writer = TraceWriter(isa_name=compiled.isa_name,
                         regions=compiled.image.regions)
    run_image(compiled.image, get_isa("rv64"), batch_sinks=[live, writer])
    assert live.event_batches > 0
    replay = _engine(sizes, 0.5)
    read_trace(writer.finish()).replay_into([replay])
    assert _windowed(live.results()) == _windowed(replay.results())
