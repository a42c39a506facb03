"""Fused single-pass analysis over batched retirement streams.

The per-probe path (:mod:`repro.analysis.pathlength` and friends) pays
five Python callbacks per retired instruction, and each one re-derives
the same dependence tuples (``srcs + mem_cells(...)``). The
:class:`FusedAnalysisEngine` is the batched replacement: it consumes the
structure-of-arrays batches produced by
:meth:`repro.sim.emucore.EmulationCore.run_batched` (or replayed from a
:class:`repro.sim.trace.Trace`) and computes *every* paper analysis —
path length, plain critical path, latency-scaled critical path,
instruction mix, and all windowed-CP sizes — in one pass:

* counting analyses (path length per region, instruction mix) reduce to
  one ``numpy.bincount`` over the static-table indices per batch, with
  the per-name histograms materialized once at the end from the static
  table (static entries are created in first-retirement order, so the
  result dicts preserve the legacy probes' insertion order);
* the plain and scaled critical paths share one loop over the batch —
  one source scan updates both depth structures;
* windowed CPs are one vectorized computation: a window's critical
  path depends only on each item's *in-window producers* (the last
  earlier writer of every register source and read memory cell). Window
  items buffer as numpy chunks; a consume links every buffered item to
  its producers with one sort and one ``searchsorted``, then evaluates
  every complete window of every size in a single wavefront whose step
  ``j`` advances all windows longer than ``j`` at once (see
  :func:`_wavefront`).

Results are exactly equal — field by field, including dict insertion
order — to the legacy probes'; ``tests/test_fused_engine.py`` enforces
this differentially on random programs and on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.analysis.critpath import CriticalPathResult, mem_cells
from repro.analysis.mix import (
    _A64_COND_BRANCHES,
    _RISCV_COND_BRANCHES,
    InstructionMixResult,
)
from repro.analysis.pathlength import PathLengthResult
from repro.analysis.windowed import PAPER_WINDOW_SIZES, WindowedCPResult
from repro.isa.base import DEP_NZCV, NUM_DEP_REGS, InstructionGroup
from repro.sim.blocks import _events_to_soa

if TYPE_CHECKING:
    from repro.asm.program import Region
    from repro.sim.config import CoreModel

#: Memory dep-ids live above the register ids (see repro.analysis.critpath).
_MEM_BASE = NUM_DEP_REGS

#: An absolute engine consumes its buffered window items once this many
#: new ones are pending. A consume costs ``max(window size)`` numpy
#: steps whatever its length, so the chunk amortizes them; it also
#: bounds the buffer at this plus the largest window. Replaying the 20
#: matrix traces with seven windows took the same time at 2**16, 2**17,
#: 2**18 and 2**19 (within run-to-run noise) while peak RSS grew with
#: the chunk, so the smallest was kept.
_CONSUME_ITEMS = 1 << 16

#: Window entries per block of precomputed gather indices in
#: :func:`_wavefront` (bounds its temporaries).
_WAVE_BLOCK = 1 << 16


#: Bump when the serialized shape of :class:`AnalysisResult` changes.
ANALYSIS_SCHEMA = 1

#: Bump when the serialized shape of an engine *state* document
#: (:meth:`FusedAnalysisEngine.state_doc`) changes.
STATE_SCHEMA = 2


class _InstMeta:
    """Static-table stand-in carrying a :class:`DecodedInst`'s metadata.

    Engine state crosses process boundaries as documents
    (:meth:`FusedAnalysisEngine.state_doc`), but the real static table
    holds decoded instructions whose ``execute`` closures cannot be
    pickled. ``_InstMeta`` duck-types the analysis-side surface — every
    attribute :meth:`results` and the merge path read — and nothing
    execution-side, which a merged engine never needs.
    """

    __slots__ = ("pc", "word", "mnemonic", "text", "group", "srcs",
                 "dsts", "is_load", "is_store", "is_branch")

    def __init__(self, pc, word, mnemonic, text, group, srcs, dsts,
                 is_load, is_store, is_branch):
        self.pc = pc
        self.word = word
        self.mnemonic = mnemonic
        self.text = text
        self.group = InstructionGroup(group)
        self.srcs = tuple(srcs)
        self.dsts = tuple(dsts)
        self.is_load = is_load
        self.is_store = is_store
        self.is_branch = is_branch


@dataclass
class AnalysisResult:
    """Everything one analysis pass produces, whichever engine ran it.

    This is the single result surface: the fused engine, the legacy
    probes, and trace replays all assemble one of these, and
    ``to_dict``/``from_dict`` give it one versioned serialization so
    report/cache/fuzz code never has to care which engine produced a
    result.
    """

    path: PathLengthResult
    cp: CriticalPathResult
    scaled_cp: CriticalPathResult
    mix: InstructionMixResult
    windowed: dict[int, WindowedCPResult] | None

    def to_dict(self) -> dict:
        """Versioned JSON-safe dict; exact inverse of :meth:`from_dict`."""
        return {
            "v": ANALYSIS_SCHEMA,
            "path": self.path.to_dict(),
            "cp": self.cp.to_dict(),
            "scaled_cp": self.scaled_cp.to_dict(),
            "mix": self.mix.to_dict(),
            "windowed": (
                None if self.windowed is None
                else {str(w): r.to_dict() for w, r in self.windowed.items()}
            ),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AnalysisResult":
        if doc.get("v") != ANALYSIS_SCHEMA:
            raise ValueError(f"AnalysisResult schema {doc.get('v')!r} != "
                             f"{ANALYSIS_SCHEMA}")
        windowed = doc["windowed"]
        return cls(
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


class _WState:
    __slots__ = ("size", "slide", "next_start", "result", "keep_cps")

    def __init__(self, size: int, slide_fraction: float, keep_cps: bool):
        self.size = size
        self.slide = max(1, int(size * slide_fraction))
        self.next_start = 0
        self.result = WindowedCPResult(window_size=size, min_cp=0)
        self.keep_cps = keep_cps

    def copy(self) -> "_WState":
        new = _WState.__new__(_WState)
        new.size = self.size
        new.slide = self.slide
        new.next_start = self.next_start
        new.keep_cps = self.keep_cps
        r = self.result
        new.result = WindowedCPResult(
            window_size=r.window_size, count=r.count, total_cp=r.total_cp,
            max_cp=r.max_cp, min_cp=r.min_cp, cps=list(r.cps))
        return new


# ------------------------------------------------ max-plus chain values
#
# A *relative* engine does not know the chain depths at its start, so it
# tracks each dependence head as a max-plus function of the unseen
# predecessor environment: ``(const, {dep: offset})`` means
# ``max(const, max_dep(env[dep] + offset))``. These functions are closed
# under the two CP operations (max of sources, plus the instruction
# weight), and composing them is associative — which is exactly what
# makes ``AnalysisState.merge`` associative. Values are immutable by
# convention: every operation builds fresh dicts, so clones may share.

def _rel_depth(vals, wt):
    """max over max-plus values, then + ``wt``."""
    const = 0
    terms: dict = {}
    for c, t in vals:
        if c > const:
            const = c
        for s, o in t.items():
            cur = terms.get(s)
            if cur is None or o > cur:
                terms[s] = o
    return (const + wt, {s: o + wt for s, o in terms.items()})


def _rel_max2(a, b):
    """max of two max-plus values."""
    const = a[0] if a[0] >= b[0] else b[0]
    terms = dict(a[1])
    for s, o in b[1].items():
        cur = terms.get(s)
        if cur is None or o > cur:
            terms[s] = o
    return (const, terms)


def _eval_abs(value, regs, mem):
    """Evaluate a max-plus value in an absolute environment."""
    best = value[0]
    get = mem.get
    for s, o in value[1].items():
        e = regs[s] if s < NUM_DEP_REGS else get(s, 0)
        if e + o > best:
            best = e + o
    return best


def _rel_compose(value, regs, mem):
    """Compose a max-plus value over another relative environment."""
    const = value[0]
    terms: dict = {}
    get = mem.get
    for s, o in value[1].items():
        base = regs[s] if s < NUM_DEP_REGS else get(s)
        if base is None:
            cur = terms.get(s)
            if cur is None or o > cur:
                terms[s] = o
        else:
            bc, bt = base
            if bc + o > const:
                const = bc + o
            for s2, o2 in bt.items():
                cur = terms.get(s2)
                if cur is None or o2 + o > cur:
                    terms[s2] = o2 + o
    return (const, terms)


#: Term count above which a register's chain value becomes a
#: :class:`_RelAcc` that later retirements update in place.
_ACC_MIN_TERMS = 32


class _RelAcc:
    """A max-plus value held by exactly one register slot of a relative
    engine, updated in place by the retirements that read and overwrite
    that register.

    A chain through one register (a reduction ``f = f + a[i]``) gains a
    term for every unseen cell it reads; building a fresh value per
    retirement copies all of them, which is quadratic in the slice
    length. The owner slot is the value's only reference, so the update
    can mutate it: offsets are stored less ``shift``, making the
    instruction weight an O(1) add, and the other inputs fold in at
    their own size. Each update is monotone (the old value is one of
    the inputs and weights are non-negative), so the final state
    dominates every state the value passed through — which is what lets
    the best-depth accumulators fold it once, lazily (``pending``).
    Nothing outside :meth:`FusedAnalysisEngine._cp_batch_relative` sees
    one: :meth:`FusedAnalysisEngine._freeze` turns them back into plain
    values before the state is cloned, merged or exported.
    """

    __slots__ = ("const", "terms", "shift", "pending")

    def __init__(self, value):
        self.const, self.terms = value
        self.shift = 0
        self.pending = False

    def value(self):
        """The plain ``(const, {dep: offset})`` form (a fresh copy)."""
        sh = self.shift
        return (self.const, {s: o + sh for s, o in self.terms.items()})

    def update(self, vals, wt) -> None:
        """In-place :func:`_rel_depth` of ``[self, *vals]``."""
        const = self.const
        terms = self.terms
        get = terms.get
        sh = self.shift
        for c, t in vals:
            if c > const:
                const = c
            for s, o in t.items():
                o -= sh
                cur = get(s)
                if cur is None or o > cur:
                    terms[s] = o
        self.const = const + wt
        self.shift = sh + wt


# ------------------------------------------------ windowed critical path
#
# A window's critical path depends only on each item's *in-window
# producers*: the last earlier writer of each of its register sources
# and read memory cells, if that writer lies inside the window. Item
# ``p`` with producer distances ``delta`` then has, in the window that
# starts at ``s``, depth ``1 + max(depth[p - delta])`` over the
# distances with ``p - delta >= s`` — the exact recurrence of
# ``window_critical_path`` on the legacy probe's dependence tuples.


def _access_array(accesses):
    """``[(addr, size), ...]`` as an ``(n, 2)`` int64 array."""
    return np.fromiter(chain.from_iterable(accesses), np.int64,
                       2 * len(accesses)).reshape(-1, 2)


def _soa_items(indices, read_ends, write_ends, r0=0, w0=0) -> np.ndarray:
    """Window items of a structure-of-arrays run: rows of static
    indices, read access counts and write access counts (the run's
    access cursors start at ``r0``/``w0``)."""
    n = len(indices)
    items = np.vstack([np.fromiter(column, np.int64, n)
                       for column in (indices, read_ends, write_ends)])
    items[1:] = np.diff(items[1:], axis=1, prepend=((r0,), (w0,)))
    return items


def _pad_rows(rows) -> np.ndarray:
    """Ragged dep-id tuples as one ``-1``-padded int64 table."""
    width = max(map(len, rows), default=0)
    table = np.full((len(rows), width), -1, dtype=np.int64)
    for j, row in enumerate(rows):
        table[j, :len(row)] = row
    return table


def _access_cells(counts, accesses):
    """Expand accesses to their 8-byte cells (as ``mem_cells`` does,
    without the dep-id offset): ``(cells, owning item per cell)``."""
    owner = np.repeat(np.arange(len(counts)), counts)
    addr = accesses[:, 0]
    first = addr >> 3
    ncells = ((addr + accesses[:, 1] - 1) >> 3) - first + 1
    if (ncells == 1).all():
        return first, owner
    ends = np.cumsum(ncells)
    cells = np.repeat(first - (ends - ncells), ncells) + np.arange(
        int(ends[-1]), dtype=np.int64)
    return cells, np.repeat(owner, ncells)


def _producer_deltas(items, reads, writes, tables, horizon):
    """Producer distances of every buffered item, shape ``(n, K)``.

    Entry ``[p, k]`` is ``p - q`` for the k-th producer ``q`` of item
    ``p`` (the last writer strictly before ``p`` of one of its register
    sources or read cells); ``horizon`` marks none. Distances of
    ``horizon`` or more are dropped — no window that long is evaluated —
    and each row is sorted, so ``K`` is the most producers any item has
    within the horizon. Producers before the buffer are never needed:
    every window still to come starts inside it.
    """
    srcs_t, dsts_t = tables
    idx = items[0]
    n = len(idx)
    span = n + 1
    rcell, rown = _access_cells(items[1], reads)
    wcell, wown = _access_cells(items[2], writes)
    # dense dep ids: registers keep theirs, written cells follow them
    cells = np.unique(wcell)
    dsts = dsts_t[idx]
    wpos, wcol = np.nonzero(dsts >= 0)
    wkey = np.sort(np.concatenate((
        dsts[wpos, wcol] * span + wpos,
        (np.searchsorted(cells, wcell) + _MEM_BASE) * span + wown)))
    srcs = srcs_t[idx]
    rpos, rcol = np.nonzero(srcs >= 0)
    rdep = srcs[rpos, rcol]
    if len(cells):
        slot = np.minimum(np.searchsorted(cells, rcell), len(cells) - 1)
        hit = cells[slot] == rcell
        # column of each read cell: after the item's register sources
        per_item = np.bincount(rown, minlength=n)
        col = (np.arange(len(rcell)) - (np.cumsum(per_item) - per_item)[rown]
               + (srcs >= 0).sum(axis=1)[rown])
        rpos = np.concatenate((rpos, rown[hit]))
        rcol = np.concatenate((rcol, col[hit]))
        rdep = np.concatenate((rdep, slot[hit] + _MEM_BASE))
    found = np.searchsorted(wkey, rdep * span + rpos) - 1
    wk = wkey[np.maximum(found, 0)] if len(wkey) else found
    delta = rpos - wk % span
    ok = (found >= 0) & (wk // span == rdep) & (delta < horizon)
    width = int(rcol.max()) + 1 if len(rcol) else 1
    deltas = np.full((n, width), horizon, dtype=np.int64)
    deltas[rpos[ok], rcol[ok]] = delta[ok]
    deltas.sort(axis=1)
    keep = int((deltas < horizon).sum(axis=1).max(initial=1))
    return deltas[:, :keep]


def _wavefront(deltas, starts, lens) -> np.ndarray:
    """Critical path of every window row ``m`` (items ``starts[m]`` ...
    ``starts[m] + lens[m] - 1``); rows sorted by length, longest first.

    Step ``j`` computes item ``j`` of every window longer than ``j`` —
    a prefix of the rows — so the whole batch costs ``max(lens)`` numpy
    steps. Depths live step-major in one flat array: step ``j`` occupies
    ``a_j`` slots from ``at[j + 1]`` (``a_j`` rows are active), and slots
    ``[0, m)`` are zeros that a row's out-of-window producers resolve
    to. Between two row lengths ``a_j`` is constant, so each run of up
    to :data:`_WAVE_BLOCK` entries there is a ``(steps, rows)`` grid
    whose gather indices are precomputed in one pass.
    """
    m = len(starts)
    steps = int(lens[0])
    active = np.searchsorted(-lens, -np.arange(steps))
    at = np.zeros(steps + 2, dtype=np.int64)
    at[1] = m
    np.cumsum(active, out=at[2:])
    at[2:] += m
    depth = np.zeros(int(at[-1]), dtype=np.int32)
    cps = np.zeros(m, dtype=np.int32)
    cols = [np.ascontiguousarray(deltas[:, k])
            for k in range(deltas.shape[1])]
    edges = [0, *(np.flatnonzero(np.diff(active)) + 1).tolist(), steps]
    for p0, p1 in zip(edges[:-1], edges[1:]):
        a = int(active[p0])
        rows = np.arange(a)
        before = starts[:a] - 1
        per = max(1, _WAVE_BLOCK // a)
        for j0 in range(p0, p1, per):
            j1 = min(j0 + per, p1)
            step1 = np.arange(j0 + 1, j1 + 1)[:, None]
            gathers = []
            for col in cols:
                back = step1 - col.take(before + step1)
                np.maximum(back, 0, out=back)
                g = at.take(back)
                g += rows
                gathers.append(g)
            lo = int(at[j0 + 1])
            for s in range(j1 - j0):
                d = depth.take(gathers[0][s])
                for g in gathers[1:]:
                    np.maximum(d, depth.take(g[s]), out=d)
                d += 1
                depth[lo + s * a:lo + (s + 1) * a] = d
            grid = depth[lo:lo + (j1 - j0) * a].reshape(j1 - j0, a)
            np.maximum(cps[:a], grid.max(axis=0), out=cps[:a])
    return cps


class FusedAnalysisEngine:
    """Batch sink computing all paper analyses in a single fused pass.

    Args:
        regions: kernel regions for the Figure 1 path-length breakdown.
        model: core model for the §5 scaled critical path; with ``None``
            the scaled result degenerates to the plain one.
        windowed: also compute the §6 windowed critical paths.
        window_sizes / slide_fraction / keep_cps: as on
            :class:`repro.analysis.windowed.WindowedCPProbe`.
        break_on_zero: ablation A1 knob, as on
            :class:`repro.analysis.critpath.CriticalPathProbe` (applies
            to both CP variants; the windowed analysis, like the legacy
            probe, always breaks).
        relative: start from an *unknown* chain environment instead of
            the empty one. A relative engine tracks critical-path depths
            symbolically (max-plus functions of the unseen predecessor
            state) and buffers window items without consuming them, so
            its :class:`AnalysisState` can be merged onto any prefix
            state (``AnalysisState.merge``) — the associative shard
            merge. ``results()`` requires an absolute engine.
    """

    needs_memory = True
    #: Understands the block-summary event stream (``on_events``), so the
    #: batched translated run can use :func:`run_summary_translated`.
    accepts_events = True

    def __init__(
        self,
        regions: Sequence["Region"] = (),
        model: "CoreModel | None" = None,
        *,
        windowed: bool = False,
        window_sizes: tuple[int, ...] = PAPER_WINDOW_SIZES,
        slide_fraction: float = 0.5,
        keep_cps: bool = False,
        break_on_zero: bool = True,
        relative: bool = False,
    ):
        if not 0 < slide_fraction <= 1:
            raise ValueError("slide_fraction must be in (0, 1]")
        self.regions = list(regions)
        self.model = model
        self.break_on_zero = break_on_zero
        self._relative = relative

        # static-side metadata, grown in lockstep with the core's table
        self._table: list = []
        self._srcs: list[tuple] = []
        self._dsts: list[tuple] = []
        self._meta: list[tuple] = []
        if model is None:
            self._group_weights = [1] * len(InstructionGroup)
        else:
            load = InstructionGroup.LOAD
            store = InstructionGroup.STORE
            atomic = InstructionGroup.ATOMIC
            self._group_weights = [
                1 if g in (load, store, atomic) else model.latency(g)
                for g in InstructionGroup
            ]
        self._gw_key = tuple(self._group_weights)
        self._counts = np.zeros(0, dtype=np.int64)
        self._total = 0
        #: Block-summary execution counts (summary id -> executions),
        #: folded into ``_counts`` lazily by :meth:`_flatten_counts`.
        self._block_exec: dict[int, int] = {}
        self._summaries: list | None = None
        self.event_batches = 0

        # fused plain + scaled critical-path state. Absolute engines
        # hold int depths; relative engines hold max-plus values
        # ``(const, {dep: offset})`` over the unseen predecessor state
        # (None in the register files / a missing cell = the identity).
        if relative:
            self._reg_p: list = [None] * NUM_DEP_REGS
            self._reg_s: list = [None] * NUM_DEP_REGS
            self._best_p = (0, {})
            self._best_s = (0, {})
        else:
            self._reg_p = [0] * NUM_DEP_REGS
            self._reg_s = [0] * NUM_DEP_REGS
            self._best_p = 0
            self._best_s = 0
        self._mem_p: dict[int, object] = {}
        self._mem_s: dict[int, object] = {}
        #: relative engines: accumulators not yet folded into the best
        #: depths (see :class:`_RelAcc`)
        self._lazy_p: list = []
        self._lazy_s: list = []

        # windowed state: window items not yet consumed, as numpy chunks
        # ``(items, reads, writes)`` — ``items`` rows are static index,
        # read access count and write access count per retirement, the
        # access arrays ``(addr, size)`` rows
        self._wstates = [
            _WState(size, slide_fraction, keep_cps) for size in window_sizes
        ] if windowed else []
        self._wchunks: list[tuple] = []
        self._wbase = 0     # global index of the first buffered item
        self._wcount = 0    # buffered items
        self._wfresh = 0    # items buffered since the last consume
        self._wtables = None  # padded (srcs, dsts) numpy tables
        self._count_cache: dict = {}

    # -- batch ingestion -------------------------------------------------

    def on_batch(self, table, count, indices, read_ends, write_ends,
                 reads, writes) -> None:
        """Consume one retirement batch (see ``EmulationCore.run_batched``)."""
        if count == 0:
            return
        self._ensure_meta(table)
        ti = tuple(indices)
        counts = self._count_cache.get(ti)
        if counts is None:
            counts = np.bincount(np.fromiter(indices, np.int64, count),
                                 minlength=len(self._srcs))
            if len(self._count_cache) >= 256:
                self._count_cache.clear()
            self._count_cache[ti] = counts
        n = len(counts)
        if len(self._counts) < n:
            grown = np.zeros(n, dtype=np.int64)
            grown[: len(self._counts)] = self._counts
            self._counts = grown
        self._counts[:n] += counts
        self._total += count
        if self._relative:
            self._cp_batch_relative(indices, read_ends, write_ends,
                                    reads, writes)
        else:
            self._cp_batch(indices, read_ends, write_ends, reads, writes)
        if self._wstates:
            self._window_extend(_soa_items(ti, read_ends, write_ends),
                                reads, writes)

    def _ensure_meta(self, table) -> None:
        srcs_t = self._srcs
        n = len(table)
        if len(srcs_t) < n:
            self._table = table
            dsts_t = self._dsts
            meta = self._meta
            gw = self._group_weights
            for j in range(len(srcs_t), n):
                inst = table[j]
                srcs_t.append(inst.srcs)
                dsts_t.append(inst.dsts)
                meta.append((inst.srcs, inst.dsts, gw[inst.group]))

    # -- block-summary event ingestion -----------------------------------

    def on_events(self, table, summaries, events, count, indices,
                  read_ends, write_ends, reads, writes) -> None:
        """Consume one block-summary event flush (the stream produced by
        ``repro.sim.blocks.run_summary_translated``). Exactly equivalent
        to ``on_batch`` over the expanded per-retirement stream; the
        differential tests enforce it."""
        if count == 0:
            return
        self.event_batches += 1
        if self._relative:
            # symbolic chain values need per-item treatment anyway, so
            # expand to the (exact) structure-of-arrays form
            ti, re_, we_ = _events_to_soa(summaries, events, indices,
                                          read_ends, write_ends)
            self.on_batch(table, count, ti, re_, we_, reads, writes)
            return
        self._ensure_meta(table)
        self._summaries = summaries
        # mix / path length: block items via execution counters (folded
        # into the count vector lazily), SoA items via one bincount
        nsoa = len(indices)
        if nsoa:
            counts = np.bincount(np.fromiter(indices, np.int64, nsoa),
                                 minlength=len(self._srcs))
            n = len(counts)
            if len(self._counts) < n:
                grown = np.zeros(n, dtype=np.int64)
                grown[: len(self._counts)] = self._counts
                self._counts = grown
            self._counts[:n] += counts
        self._total += count

        # chain stitching: one walk over the events; block executions go
        # through their compiled stitch functions, SoA segments through
        # the generic batch scan with flush-absolute access cursors
        be = self._block_exec
        wts = self._gw_key
        bz = self.break_on_zero
        reg_p = self._reg_p
        reg_s = self._reg_s
        mem_p = self._mem_p
        mem_s = self._mem_s
        windowed = bool(self._wstates)
        parts = []
        r = 0
        w = 0
        si = 0
        for i in range(0, len(events), 2):
            bid = events[i]
            k = events[i + 1]
            if bid >= 0:
                be[bid] = be.get(bid, 0) + k
                s = summaries[bid]
                fn = s.cp_fn(wts, bz)
                self._best_p, self._best_s = fn(
                    k, reads, writes, r, w, reg_p, reg_s, mem_p, mem_s,
                    self._best_p, self._best_s)
                r += k * s.n_reads
                w += k * s.n_writes
                if windowed:
                    parts.append(np.tile(s.items, k))
            else:
                sj = si + k
                self._cp_batch(indices[si:sj], read_ends[si:sj],
                               write_ends[si:sj], reads, writes,
                               r0=r, w0=w)
                if windowed:
                    parts.append(_soa_items(indices[si:sj], read_ends[si:sj],
                                            write_ends[si:sj], r, w))
                r = read_ends[sj - 1]
                w = write_ends[sj - 1]
                si = sj
        if windowed:
            self._window_extend(np.concatenate(parts, axis=1), reads,
                                writes)

    def _flatten_counts(self) -> None:
        """Fold pending block execution counters into the count vector."""
        be = self._block_exec
        if not be:
            return
        summaries = self._summaries
        counts = self._counts
        n = len(self._srcs)
        if len(counts) < n:
            grown = np.zeros(n, dtype=np.int64)
            grown[: len(counts)] = counts
            self._counts = counts = grown
        for bid, k in be.items():
            for idx in summaries[bid].idxs:
                counts[idx] += k
        be.clear()

    # -- fused plain + scaled critical path ------------------------------

    def _cp_batch(self, indices, read_ends, write_ends, reads, writes,
                  r0=0, w0=0) -> None:
        meta = self._meta
        reg_p = self._reg_p
        reg_s = self._reg_s
        mem_p = self._mem_p
        mem_s = self._mem_s
        getp = mem_p.get
        gets = mem_s.get
        best_p = self._best_p
        best_s = self._best_s
        bz = self.break_on_zero
        for idx, r1, w1 in zip(indices, read_ends, write_ends):
            srcs, dd, wt = meta[idx]
            dp = 0
            ds = 0
            for s in srcs:
                v = reg_p[s]
                if v > dp:
                    dp = v
                v = reg_s[s]
                if v > ds:
                    ds = v
            while r0 < r1:
                addr, size = reads[r0]
                r0 += 1
                cell = _MEM_BASE + (addr >> 3)
                v = getp(cell, 0)
                if v > dp:
                    dp = v
                v = gets(cell, 0)
                if v > ds:
                    ds = v
                if (addr & 7) + size > 8:
                    for extra in mem_cells(addr, size)[1:]:
                        v = getp(extra, 0)
                        if v > dp:
                            dp = v
                        v = gets(extra, 0)
                        if v > ds:
                            ds = v
            if not bz:
                for t in dd:
                    v = reg_p[t]
                    if v > dp:
                        dp = v
                    v = reg_s[t]
                    if v > ds:
                        ds = v
            dp += 1
            ds += wt
            for t in dd:
                reg_p[t] = dp
                reg_s[t] = ds
            while w0 < w1:
                addr, size = writes[w0]
                w0 += 1
                cell = _MEM_BASE + (addr >> 3)
                mem_p[cell] = dp
                mem_s[cell] = ds
                if (addr & 7) + size > 8:
                    for extra in mem_cells(addr, size)[1:]:
                        mem_p[extra] = dp
                        mem_s[extra] = ds
            if dp > best_p:
                best_p = dp
            if ds > best_s:
                best_s = ds
        self._best_p = best_p
        self._best_s = best_s

    def _cp_batch_relative(self, indices, read_ends, write_ends, reads,
                           writes, r0=0, w0=0) -> None:
        """Symbolic twin of :meth:`_cp_batch`: depths are max-plus values
        over the unseen predecessor environment (see ``_rel_depth``).
        Plain values are never mutated in place — clones share them; a
        long chain through one register is a :class:`_RelAcc`."""
        meta = self._meta
        reg_p = self._reg_p
        reg_s = self._reg_s
        mem_p = self._mem_p
        mem_s = self._mem_s
        getp = mem_p.get
        gets = mem_s.get
        bz = self.break_on_zero
        lazy_p = self._lazy_p
        lazy_s = self._lazy_s
        Acc = _RelAcc
        # The best-depth accumulators max in a new value every retirement
        # while their term sets grow with every fresh unseen cell — a
        # fresh-dict _rel_max2 there is quadratic in the slice length.
        # Copy once per batch and accumulate in place; the tuple stored
        # back at the end is never mutated again (the next batch copies),
        # so exported references stay immutable.
        bp_c, bp_t = self._best_p
        bp_t = dict(bp_t)
        bs_c, bs_t = self._best_s
        bs_t = dict(bs_t)
        for idx, r1, w1 in zip(indices, read_ends, write_ends):
            srcs, dd, wt = meta[idx]
            # A retirement that reads its single destination register
            # (as a source, or as the overwritten destination without
            # break-on-zero) and writes no memory updates that
            # register's accumulator in place: its old value has no
            # other observer.
            acc_p = acc_s = None
            own = len(dd) == 1 and w0 == w1
            if own and (not bz or dd[0] in srcs):
                v = reg_p[dd[0]]
                if v.__class__ is Acc:
                    acc_p = v
                v = reg_s[dd[0]]
                if v.__class__ is Acc:
                    acc_s = v
            vals_p = []
            vals_s = []
            for s in srcs:
                v = reg_p[s]
                if v is None:
                    vals_p.append((0, {s: 0}))
                elif v is not acc_p:
                    vals_p.append(v.value() if v.__class__ is Acc else v)
                v = reg_s[s]
                if v is None:
                    vals_s.append((0, {s: 0}))
                elif v is not acc_s:
                    vals_s.append(v.value() if v.__class__ is Acc else v)
            while r0 < r1:
                addr, size = reads[r0]
                r0 += 1
                if (addr & 7) + size > 8:
                    cells = mem_cells(addr, size)
                else:
                    cells = (_MEM_BASE + (addr >> 3),)
                for cell in cells:
                    v = getp(cell)
                    vals_p.append(v if v is not None else (0, {cell: 0}))
                    v = gets(cell)
                    vals_s.append(v if v is not None else (0, {cell: 0}))
            if not bz:
                for t in dd:
                    v = reg_p[t]
                    if v is None:
                        vals_p.append((0, {t: 0}))
                    elif v is not acc_p:
                        vals_p.append(v.value() if v.__class__ is Acc
                                      else v)
                    v = reg_s[t]
                    if v is None:
                        vals_s.append((0, {t: 0}))
                    elif v is not acc_s:
                        vals_s.append(v.value() if v.__class__ is Acc
                                      else v)
            if acc_p is None:
                dp = _rel_depth(vals_p, 1)
                if own and len(dp[1]) > _ACC_MIN_TERMS:
                    dp = Acc(dp)
            else:
                acc_p.update(vals_p, 1)
                dp = acc_p
            if acc_s is None:
                ds = _rel_depth(vals_s, wt)
                if own and len(ds[1]) > _ACC_MIN_TERMS:
                    ds = Acc(ds)
            else:
                acc_s.update(vals_s, wt)
                ds = acc_s
            for t in dd:
                reg_p[t] = dp
                reg_s[t] = ds
            while w0 < w1:
                addr, size = writes[w0]
                w0 += 1
                if (addr & 7) + size > 8:
                    cells = mem_cells(addr, size)
                else:
                    cells = (_MEM_BASE + (addr >> 3),)
                for cell in cells:
                    mem_p[cell] = dp
                    mem_s[cell] = ds
            if dp.__class__ is Acc:
                # folded once, at its final (dominating) state
                if not dp.pending:
                    dp.pending = True
                    lazy_p.append(dp)
            else:
                c, t = dp
                if c > bp_c:
                    bp_c = c
                for s, o in t.items():
                    cur = bp_t.get(s)
                    if cur is None or o > cur:
                        bp_t[s] = o
            if ds.__class__ is Acc:
                if not ds.pending:
                    ds.pending = True
                    lazy_s.append(ds)
            else:
                c, t = ds
                if c > bs_c:
                    bs_c = c
                for s, o in t.items():
                    cur = bs_t.get(s)
                    if cur is None or o > cur:
                        bs_t[s] = o
        self._best_p = (bp_c, bp_t)
        self._best_s = (bs_c, bs_t)

    def _freeze(self) -> None:
        """Turn a relative engine's in-place accumulators back into
        plain values and fold the pending ones into the best-depth
        accumulators, so the state can be shared or exported."""
        if not self._relative:
            return
        for regs in (self._reg_p, self._reg_s):
            for s, v in enumerate(regs):
                if v.__class__ is _RelAcc:
                    regs[s] = v.value()
        for lazy, attr in ((self._lazy_p, "_best_p"),
                           (self._lazy_s, "_best_s")):
            if lazy:
                best = getattr(self, attr)
                for acc in lazy:
                    best = _rel_max2(best, acc.value())
                    acc.pending = False
                lazy.clear()
                setattr(self, attr, best)

    # -- windowed critical paths -----------------------------------------

    def _window_extend(self, items, reads, writes) -> None:
        """Buffer one flush's window items; an absolute engine consumes
        once :data:`_CONSUME_ITEMS` new items are pending. Relative
        engines only buffer: their windows reach back across the shard
        boundary, so they are consumed after the merge."""
        self._wchunks.append((items, _access_array(reads),
                              _access_array(writes)))
        n = items.shape[1]
        self._wcount += n
        self._wfresh += n
        if not self._relative and self._wfresh >= _CONSUME_ITEMS:
            self._consume_windows()

    def _consume_windows(self, final: bool = False) -> None:
        """Advance every window state over the buffered items: each
        complete window, plus (``final``) the trailing partial window,
        becomes one wavefront row; then drop the items no later window
        reaches."""
        self._wfresh = 0
        if not self._wchunks:
            return
        if len(self._wchunks) > 1:
            self._wchunks = [tuple(
                np.concatenate(parts, axis=axis)
                for parts, axis in zip(zip(*self._wchunks), (1, 0, 0)))]
        items, reads, writes = self._wchunks[0]
        base = self._wbase
        total = base + self._wcount
        starts = []
        lens = []
        for st in self._wstates:
            size = st.size
            first = st.next_start
            c = (total - first - size) // st.slide + 1 if (
                total - first >= size) else 0
            st.next_start = first + c * st.slide
            begin = np.arange(c, dtype=np.int64) * st.slide + (first - base)
            length = np.full(c, size, dtype=np.int64)
            if final and st.next_start < total:
                begin = np.append(begin, st.next_start - base)
                length = np.append(length, total - st.next_start)
                st.next_start = total
            starts.append(begin)
            lens.append(length)
        counts = [len(x) for x in starts]
        if sum(counts):
            starts = np.concatenate(starts)
            lens = np.concatenate(lens)
            order = np.argsort(-lens, kind="stable")
            deltas = _producer_deltas(items, reads, writes,
                                      self._static_tables(),
                                      int(lens[order[0]]))
            cps = np.empty(len(order), dtype=np.int64)
            cps[order] = _wavefront(deltas, starts[order], lens[order])
            lo = 0
            for st, c in zip(self._wstates, counts):
                if c:
                    self._record_cps(st, cps[lo:lo + c])
                lo += c
        # keep only the items a later window can still reach
        drop = min(st.next_start for st in self._wstates) - base
        if drop:
            rk = int(items[1, :drop].sum())
            wk = int(items[2, :drop].sum())
            self._wchunks = [(items[:, drop:].copy(), reads[rk:].copy(),
                              writes[wk:].copy())]
            self._wbase += drop
            self._wcount -= drop

    @staticmethod
    def _record_cps(st: "_WState", cps) -> None:
        res = st.result
        res.count += len(cps)
        res.total_cp += int(cps.sum())
        mx = int(cps.max())
        mn = int(cps.min())
        if mx > res.max_cp:
            res.max_cp = mx
        if res.min_cp == 0 or mn < res.min_cp:
            res.min_cp = mn
        if st.keep_cps:
            res.cps.extend(cps.tolist())

    def _static_tables(self):
        """Padded numpy ``(srcs, dsts)`` tables by static index (-1 pads),
        rebuilt when the static table has grown."""
        n = len(self._srcs)
        if self._wtables is None or len(self._wtables[0]) != n:
            self._wtables = tuple(
                _pad_rows(rows) for rows in (self._srcs, self._dsts))
        return self._wtables

    # -- result assembly -------------------------------------------------

    def results(self) -> AnalysisResult:
        """Finalize (emit partial tail windows) and assemble the result
        objects. Safe to call more than once."""
        if self._relative:
            raise RuntimeError(
                "a relative engine has no absolute results; merge its "
                "AnalysisState onto an absolute prefix state first")
        self._flatten_counts()
        windowed = None
        if self._wstates:
            self._consume_windows(final=True)
            windowed = {st.size: st.result for st in self._wstates}

        per_region: dict[str, int] = {}
        by_mnemonic: dict[str, int] = {}
        by_group: dict[InstructionGroup, int] = {}
        branches = cond = flags = loads = stores = 0
        counts = self._counts
        table = self._table
        regions = self.regions
        for j in range(len(counts)):
            n = int(counts[j])
            if n == 0:
                continue
            inst = table[j]
            pc = inst.pc
            name = "other"
            for region in regions:
                if region.start <= pc < region.end:
                    name = region.name
                    break
            per_region[name] = per_region.get(name, 0) + n
            m = inst.mnemonic
            by_mnemonic[m] = by_mnemonic.get(m, 0) + n
            g = inst.group
            by_group[g] = by_group.get(g, 0) + n
            if inst.is_branch:
                branches += n
                if (m in _RISCV_COND_BRANCHES or m in _A64_COND_BRANCHES
                        or m.startswith("b.")):
                    cond += n
            elif DEP_NZCV in inst.dsts:
                flags += n
            if inst.is_load:
                loads += n
            if inst.is_store:
                stores += n

        total = self._total
        return AnalysisResult(
            path=PathLengthResult(total=total, per_region=per_region),
            cp=CriticalPathResult(critical_path=self._best_p,
                                  instructions=total),
            scaled_cp=CriticalPathResult(critical_path=self._best_s,
                                         instructions=total),
            mix=InstructionMixResult(
                total=total, by_mnemonic=by_mnemonic, by_group=by_group,
                branches=branches, conditional_branches=cond,
                flag_setters=flags, loads=loads, stores=stores,
            ),
            windowed=windowed,
        )

    # -- mergeable state -------------------------------------------------

    def state(self) -> "AnalysisState":
        """This engine's mergeable state handle."""
        return AnalysisState(self)

    def clone(self) -> "FusedAnalysisEngine":
        """Independent copy of this engine's accumulated state. Pure
        caches (the bincount cache, the padded static tables, the
        summaries' stitch functions) and the buffered window chunks are
        shared by reference — caches are deterministic functions of
        their keys and chunks are never modified in place, so sharing
        is safe."""
        self._freeze()
        new = FusedAnalysisEngine.__new__(FusedAnalysisEngine)
        new.__dict__.update(self.__dict__)
        new.regions = list(self.regions)
        new._counts = self._counts.copy()
        new._block_exec = dict(self._block_exec)
        new._reg_p = list(self._reg_p)
        new._reg_s = list(self._reg_s)
        new._mem_p = dict(self._mem_p)
        new._mem_s = dict(self._mem_s)
        new._lazy_p = []
        new._lazy_s = []
        new._srcs = list(self._srcs)
        new._dsts = list(self._dsts)
        new._meta = list(self._meta)
        new._wstates = [st.copy() for st in self._wstates]
        new._wchunks = list(self._wchunks)
        return new

    def absorb(self, other: "FusedAnalysisEngine") -> None:
        """Merge a *relative* engine's state onto this one in place.

        ``other`` must be a relative engine that consumed the stream
        suffix immediately following this engine's prefix with the same
        analysis parameters; it is left semantically intact. Engines
        sharing one core's static table merge index-for-index; engines
        with distinct tables (other cores, other processes — see
        :meth:`state_doc`) are re-keyed by ``(pc, word)`` identity
        first (:meth:`_rebase`). Counting
        state adds, chain heads compose through the max-plus values
        evaluated against this engine's pre-merge environment, and the
        window buffers concatenate (the relative side never consumes a
        window). Because max-plus composition is associative and the
        counting parts are commutative monoids, the induced
        :meth:`AnalysisState.merge` is associative.
        """
        if not other._relative:
            raise ValueError("can only absorb a relative engine state")
        if other.break_on_zero != self.break_on_zero:
            raise ValueError("break_on_zero mismatch")
        if other._gw_key != self._gw_key:
            raise ValueError("latency model mismatch")
        if ([(st.size, st.slide) for st in self._wstates]
                != [(st.size, st.slide) for st in other._wstates]):
            raise ValueError("window configuration mismatch")
        for st in other._wstates:
            if st.next_start or st.result.count:
                raise ValueError("suffix window state already consumed")
        self._freeze()
        other._freeze()

        self._flatten_counts()
        other._flatten_counts()
        oc = other._counts
        if other._table is self._table:
            # in-process fast path: both engines index one shared core
            # table, so `other` is an extension-compatible view of it
            remap = None
            self._ensure_meta(other._table)
            n = len(oc)
            if len(self._counts) < n:
                grown = np.zeros(n, dtype=np.int64)
                grown[: len(self._counts)] = self._counts
                self._counts = grown
            if n:
                self._counts[:n] += oc
        else:
            # cross-core/cross-process: the suffix engine built its own
            # table in its own first-retirement order — re-key every
            # index by (pc, word) identity
            remap = self._rebase(other)
            n = len(self._srcs)
            if len(self._counts) < n:
                grown = np.zeros(n, dtype=np.int64)
                grown[: len(self._counts)] = self._counts
                self._counts = grown
            if len(oc):
                np.add.at(self._counts,
                          np.asarray(remap[:len(oc)], dtype=np.int64), oc)
        self._total += other._total

        # chains: evaluate every value of `other` against this engine's
        # pre-merge environment first, then install the results
        rel = self._relative
        reg_p = self._reg_p
        reg_s = self._reg_s
        mem_p = self._mem_p
        mem_s = self._mem_s
        if rel:
            def evp(v):
                return _rel_compose(v, reg_p, mem_p)

            def evs(v):
                return _rel_compose(v, reg_s, mem_s)
        else:
            def evp(v):
                return _eval_abs(v, reg_p, mem_p)

            def evs(v):
                return _eval_abs(v, reg_s, mem_s)
        new_rp = {}
        new_rs = {}
        for s in range(NUM_DEP_REGS):
            v = other._reg_p[s]
            if v is not None:
                new_rp[s] = evp(v)
            v = other._reg_s[s]
            if v is not None:
                new_rs[s] = evs(v)
        new_mp = {cell: evp(v) for cell, v in other._mem_p.items()}
        new_ms = {cell: evs(v) for cell, v in other._mem_s.items()}
        bp = evp(other._best_p)
        bs = evs(other._best_s)
        for s, v in new_rp.items():
            reg_p[s] = v
        for s, v in new_rs.items():
            reg_s[s] = v
        mem_p.update(new_mp)
        mem_s.update(new_ms)
        if rel:
            self._best_p = _rel_max2(self._best_p, bp)
            self._best_s = _rel_max2(self._best_s, bs)
        else:
            if bp > self._best_p:
                self._best_p = bp
            if bs > self._best_s:
                self._best_s = bs

        # windows: the suffix's buffered items continue this engine's
        # item stream (the relative side never consumes a window)
        if self._wstates and other._wcount:
            for items, reads, writes in other._wchunks:
                if remap is not None:
                    items = items.copy()
                    items[0] = np.asarray(remap, dtype=np.int64)[items[0]]
                self._wchunks.append((items, reads, writes))
            self._wcount += other._wcount
            self._wfresh += other._wcount
            if not rel and self._wfresh >= _CONSUME_ITEMS:
                self._consume_windows()

    def _rebase(self, other: "FusedAnalysisEngine") -> list[int]:
        """Map ``other``'s static indices onto this engine's table.

        Two engines that consumed slices on different cores (or in
        different processes) each hold a table in their *own*
        first-retirement order; instructions are identified across them
        by ``(pc, word)`` — exact, since code is not self-modifying.
        Unseen instructions are appended to this engine's table in
        ``other``'s order, which is precisely the order a serial run
        would first retire them in, so the merged table (and therefore
        every insertion-ordered result dict) matches serial
        byte-for-byte. The table is copied before any append: clones
        share tables by reference (possibly a live core's), and a merge
        must never mutate one it doesn't own.
        """
        table = self._table
        index: dict = {}
        for j in range(len(table)):
            inst = table[j]
            index.setdefault((inst.pc, inst.word), j)
        owned = False
        remap: list[int] = []
        osrcs = other._srcs
        odsts = other._dsts
        ometa = other._meta
        otable = other._table
        for j in range(len(osrcs)):
            inst = otable[j]
            key = (inst.pc, inst.word)
            idx = index.get(key)
            if idx is None:
                if not owned:
                    self._table = table = list(table)
                    owned = True
                idx = len(table)
                index[key] = idx
                table.append(inst)
                self._srcs.append(osrcs[j])
                self._dsts.append(odsts[j])
                self._meta.append(ometa[j])
            remap.append(idx)
        return remap

    # -- cross-process state transport -----------------------------------

    def state_doc(self) -> dict:
        """This engine's accumulated state as a process-portable document.

        Everything :meth:`absorb` and :meth:`results` need, in plain
        containers: the static table is flattened to metadata tuples
        (decoded ``execute`` closures cannot cross a pipe; see
        :class:`_InstMeta`), numpy counts become a list, and pure caches
        are dropped — the receiving side rebuilds cold ones. Inverse of
        :meth:`load_state_doc`.
        """
        self._freeze()
        self._flatten_counts()
        n = len(self._srcs)
        table = [
            (inst.pc, inst.word, inst.mnemonic, inst.text,
             int(inst.group), tuple(inst.srcs), tuple(inst.dsts),
             inst.is_load, inst.is_store, inst.is_branch)
            for inst in self._table[:n]
        ]
        return {
            "v": STATE_SCHEMA,
            "relative": self._relative,
            "break_on_zero": self.break_on_zero,
            "gw_key": self._gw_key,
            "windows": [(st.size, st.slide) for st in self._wstates],
            "table": table,
            "counts": self._counts.tolist(),
            "total": self._total,
            "reg_p": list(self._reg_p),
            "reg_s": list(self._reg_s),
            "best_p": self._best_p,
            "best_s": self._best_s,
            "mem_p": dict(self._mem_p),
            "mem_s": dict(self._mem_s),
            "wstates": [
                (st.next_start, st.result.count, st.result.total_cp,
                 st.result.max_cp, st.result.min_cp, list(st.result.cps))
                for st in self._wstates
            ],
            "wbase": self._wbase,
            "witems": [c[0].ravel().tolist() for c in self._wchunks],
            "wreads": [c[1].ravel().tolist() for c in self._wchunks],
            "wwrites": [c[2].ravel().tolist() for c in self._wchunks],
        }

    def load_state_doc(self, doc: dict) -> None:
        """Adopt a :meth:`state_doc` document into this (fresh) engine.

        The engine must have been constructed with the same analysis
        parameters the document's producer used (the harness builds both
        sides from one :class:`~repro.analysis.config.AnalysisConfig`)
        and must not have consumed anything yet.
        """
        if doc.get("v") != STATE_SCHEMA:
            raise ValueError(
                f"engine state schema {doc.get('v')!r} != {STATE_SCHEMA}")
        if bool(doc["relative"]) != self._relative:
            raise ValueError("relative-mode mismatch")
        if doc["break_on_zero"] != self.break_on_zero:
            raise ValueError("break_on_zero mismatch")
        if tuple(doc["gw_key"]) != self._gw_key:
            raise ValueError("latency model mismatch")
        if ([tuple(w) for w in doc["windows"]]
                != [(st.size, st.slide) for st in self._wstates]):
            raise ValueError("window configuration mismatch")
        if self._total or self._wchunks or len(self._counts):
            raise ValueError("can only load state into a fresh engine")
        self._table = [_InstMeta(*t) for t in doc["table"]]
        self._srcs = []
        self._dsts = []
        self._meta = []
        self._ensure_meta(self._table)
        self._counts = np.asarray(doc["counts"], dtype=np.int64)
        self._total = doc["total"]
        self._reg_p = list(doc["reg_p"])
        self._reg_s = list(doc["reg_s"])
        self._best_p = doc["best_p"]
        self._best_s = doc["best_s"]
        self._mem_p = dict(doc["mem_p"])
        self._mem_s = dict(doc["mem_s"])
        for st, (next_start, count, total_cp, max_cp, min_cp, cps) in zip(
                self._wstates, doc["wstates"]):
            st.next_start = next_start
            st.result = WindowedCPResult(
                window_size=st.size, count=count, total_cp=total_cp,
                max_cp=max_cp, min_cp=min_cp, cps=list(cps))
        self._wbase = doc["wbase"]
        self._wchunks = [
            (np.asarray(items, dtype=np.int64).reshape(3, -1),
             np.asarray(reads, dtype=np.int64).reshape(-1, 2),
             np.asarray(writes, dtype=np.int64).reshape(-1, 2))
            for items, reads, writes in zip(doc["witems"], doc["wreads"],
                                            doc["wwrites"])]
        self._wcount = sum(c[0].shape[1] for c in self._wchunks)


class AnalysisState:
    """A mergeable handle on a :class:`FusedAnalysisEngine`'s state.

    ``merge`` stitches a *relative* suffix state (an engine built with
    ``relative=True`` that consumed some contiguous slice of the
    retirement stream) onto this state, returning a new state equal to
    having run one engine over the concatenated stream. The operation is
    associative — ``(a.merge(b)).merge(c) == a.merge(b.merge(c))`` —
    and splitting a run at any block boundary and merging the shard
    states reproduces the serial result exactly; the property tests in
    ``tests/test_block_summaries.py`` enforce both. Neither operand is
    consumed: merging clones the left engine first.
    """

    def __init__(self, engine: FusedAnalysisEngine):
        self._engine = engine

    @property
    def engine(self) -> FusedAnalysisEngine:
        return self._engine

    @property
    def relative(self) -> bool:
        return self._engine._relative

    def merge(self, other: "AnalysisState") -> "AnalysisState":
        merged = self._engine.clone()
        merged.absorb(other._engine)
        return AnalysisState(merged)

    def results(self) -> AnalysisResult:
        """Absolute results; raises for a relative (suffix) state."""
        return self._engine.results()

    def to_doc(self) -> dict:
        """Process-portable form (:meth:`FusedAnalysisEngine.state_doc`)."""
        return self._engine.state_doc()

    @classmethod
    def from_doc(cls, doc: dict,
                 engine: FusedAnalysisEngine) -> "AnalysisState":
        """Rehydrate a state document into ``engine`` (a freshly built
        engine with the producing side's analysis parameters) and wrap
        it. The shard workers ship their slice states through pipes this
        way; the parent merges them exactly as in-process states."""
        engine.load_state_doc(doc)
        return cls(engine)
