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
* windowed CPs are memoized: a window's critical path depends only on
  its sequence of (static entry, cell-count) items and the *relative*
  alias pattern of its memory cells, which loops repeat almost exactly.
  The memo key is built from C-speed list slices (composite item keys
  plus cell-to-cell deltas), so repeated loop windows cost a tuple hash
  instead of a full dependence-graph walk. Hit rates on the paper
  workloads are ~99.9%.
* on top of the per-window memo there is a *batch-level* memo: the
  translated batched core flushes at block boundaries, so during a
  steady loop successive batches are byte-for-byte repeats (same length,
  same loop phase) whose cell streams advance uniformly. A
  translation-invariant signature over the batch plus the carried-over
  window tail replays the whole batch's per-window results — hundreds of
  windows — with one tuple hash.

Results are exactly equal — field by field, including dict insertion
order — to the legacy probes'; ``tests/test_fused_engine.py`` enforces
this differentially on random programs and on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass
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

#: Composite item key: ``static_index << 24 | read_cells << 12 | write_cells``.
#: Cell counts are post-expansion (an access spanning k 8-byte cells counts
#: k), so equal keys imply identical per-item dependence arity.
_IDX_SHIFT = 24
_RC_SHIFT = 12
_CNT_MASK = 0xFFF

#: Stop growing the window memo once it holds this many window *items*
#: (not entries — a W=2000 key is 500x a W=4 key). Existing entries keep
#: serving hits; new misses are simply computed directly.
_MEMO_MAX_ITEMS = 4_000_000


#: Bump when the serialized shape of :class:`AnalysisResult` changes.
ANALYSIS_SCHEMA = 1

#: Bump when the serialized shape of an engine *state* document
#: (:meth:`FusedAnalysisEngine.state_doc`) changes.
STATE_SCHEMA = 1


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


#: Pre-redesign name, kept for one release.
FusedResults = AnalysisResult


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

        # windowed state: rolling item/cell buffers with global offsets
        self._wstates = [
            _WState(size, slide_fraction, keep_cps) for size in window_sizes
        ] if windowed else []
        #: Flush granularity hint for ``run_image(batch_size=None)``.
        #: Windowed runs want small flushes (the window memo keys on
        #: whole flush segments, and large segments kill its hit rate);
        #: without windows, bigger flushes just amortize per-flush cost.
        self.preferred_batch_size = 1024 if windowed else 4096
        self._keys: list[int] = []
        self._key_base = 0
        self._rcells: list[int] = []
        self._rdeltas: list[int] = []
        self._wcells: list[int] = []
        self._wdeltas: list[int] = []
        self._rends: list[int] = []   # per-item global read-cell ends
        self._wends: list[int] = []
        self._rc_base = 0
        self._wc_base = 0
        self._prev_rcell = 0
        self._prev_wcell = 0
        self._memo: dict = {}
        self._memo_items = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self._batch_memo: dict = {}
        self.batch_memo_hits = 0
        self.batch_memo_misses = 0
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
            if self._relative:
                self._window_extend_relative(ti, count, read_ends,
                                             write_ends, reads, writes)
            else:
                self._window_batch(ti, count, read_ends, write_ends,
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
        spanning = False
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
                bp, bs, sp = fn(k, reads, writes, r, w, reg_p, reg_s,
                                mem_p, mem_s, self._best_p, self._best_s)
                self._best_p = bp
                self._best_s = bs
                if sp:
                    spanning = True
                r += k * s.n_reads
                w += k * s.n_writes
            else:
                sj = si + k
                r1 = read_ends[sj - 1]
                w1 = write_ends[sj - 1]
                self._cp_batch(indices[si:sj], read_ends[si:sj],
                               write_ends[si:sj], reads, writes,
                               r0=r, w0=w)
                if windowed and not spanning:
                    if (any((a & 7) + z > 8 for a, z in reads[r:r1])
                            or any((a & 7) + z > 8
                                   for a, z in writes[w:w1])):
                        spanning = True
                r = r1
                w = w1
                si = sj
        if windowed:
            self._window_events(summaries, events, indices, read_ends,
                                write_ends, reads, writes, count, spanning)

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

    @staticmethod
    def _expand_cells(accesses, n, ends):
        """Flat 8-byte-cell ids for a batch's accesses plus per-item
        cumulative cell ends. The common no-spanning case is one cell per
        access; spanning accesses expand to their full cell range."""
        if n == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(len(ends),
                                                         dtype=np.int64)
        acc = np.array(accesses, dtype=np.int64)
        addr = acc[:, 0]
        first = addr >> 3
        extra = ((addr & 7) + acc[:, 1] - 1) >> 3
        if not extra.any():
            return first, ends
        cnts = extra + 1
        cum = np.cumsum(cnts)
        starts = cum - cnts
        total = int(cum[-1])
        cells = np.repeat(first, cnts) + (
            np.arange(total, dtype=np.int64) - np.repeat(starts, cnts))
        item_ends = np.where(ends > 0, cum[ends - 1], 0)
        return cells, item_ends

    @staticmethod
    def _cell_deltas(cells, prev):
        out = []
        append = out.append
        for c in cells:
            append(c - prev)
            prev = c
        return out

    def _window_batch(self, ti, count, read_ends, write_ends,
                      reads, writes) -> None:
        """Consume the batch's complete windows, replaying whole batches
        from the batch-level memo when possible.

        The memo signature is translation-invariant: the raw static
        indices and access-count tuples pin every item's dependence
        arity, the cell-to-cell deltas plus one read-to-write stream
        offset pin the alias pattern up to translation, and the carry
        components (the still-unconsumed window tail this batch's
        windows reach back into) pin the cross-batch boundary. Equal
        signatures therefore imply identical per-state window-CP
        sequences. Keeping the signature on the *raw* batch arrays means
        a hit never materializes composite keys or numpy arrays at all.
        """
        if (any((a & 7) + w > 8 for a, w in reads)
                or any((a & 7) + w > 8 for a, w in writes)):
            self._window_batch_spanning(ti, count, read_ends, write_ends,
                                        reads, writes)
            return
        rcells = [a >> 3 for a, _ in reads]
        wcells = [a >> 3 for a, _ in writes]
        rdelta = self._cell_deltas(rcells, self._prev_rcell)
        wdelta = self._cell_deltas(wcells, self._prev_wcell)

        start_min = min(st.next_start for st in self._wstates)
        ka = start_min - self._key_base
        crlo = (self._rends[ka - 1] if ka else self._rc_base) - self._rc_base
        cwlo = (self._wends[ka - 1] if ka else self._wc_base) - self._wc_base
        ncr = len(self._rcells) - crlo
        ncw = len(self._wcells) - cwlo
        # first cell of each stream over carry + batch, for the offset
        if ncr:
            first_r = self._rcells[crlo]
        elif rcells:
            first_r = rcells[0]
        else:
            first_r = None
        if ncw:
            first_w = self._wcells[cwlo]
        elif wcells:
            first_w = wcells[0]
        else:
            first_w = None
        cross = (first_w - first_r
                 if first_r is not None and first_w is not None else None)
        # batch delta [0] links the batch to the carry's last cell; when
        # the carry stream is empty it links to a pre-carry cell no
        # window can see, so it is dropped (the batch's first cell then
        # *is* the stream's translation base)
        sig = (
            tuple(self._keys[ka:]),
            tuple(st.next_start - start_min for st in self._wstates),
            tuple(self._rdeltas[crlo + 1:]),
            tuple(self._wdeltas[cwlo + 1:]),
            ti,
            tuple(read_ends),
            tuple(write_ends),
            tuple(rdelta if ncr else rdelta[1:]),
            tuple(wdelta if ncw else wdelta[1:]),
            cross,
        )

        item_base = self._key_base + len(self._keys)
        rtot = self._rc_base + len(self._rcells)
        wtot = self._wc_base + len(self._wcells)
        replay = self._batch_memo.get(sig)
        if replay is not None:
            self.batch_memo_hits += 1
            self._apply_replay(replay)
            min_next = min(st.next_start for st in self._wstates)
            skip = min_next - item_base
            if skip >= 0:
                # every pre-batch item was consumed: rebuild the rolling
                # buffers as exactly the unconsumed batch tail (extending
                # with the full batch only to trim it later would touch
                # ~50x more items than the tail holds)
                pr = read_ends[skip - 1] if skip else 0
                pw = write_ends[skip - 1] if skip else 0
                keys = []
                kap = keys.append
                r0 = pr
                w0 = pw
                for p in range(skip, count):
                    r1 = read_ends[p]
                    w1 = write_ends[p]
                    kap((ti[p] << _IDX_SHIFT) | ((r1 - r0) << _RC_SHIFT)
                        | (w1 - w0))
                    r0 = r1
                    w0 = w1
                self._keys = keys
                self._rends = [rtot + r for r in read_ends[skip:]]
                self._wends = [wtot + w for w in write_ends[skip:]]
                self._rcells = rcells[pr:]
                self._rdeltas = rdelta[pr:]
                self._wcells = wcells[pw:]
                self._wdeltas = wdelta[pw:]
                self._key_base = min_next
                self._rc_base = rtot + pr
                self._wc_base = wtot + pw
                if rcells:
                    self._prev_rcell = rcells[-1]
                if wcells:
                    self._prev_wcell = wcells[-1]
                return
            self._extend_buffers(ti, count, read_ends, write_ends,
                                 rcells, wcells, rdelta, wdelta)
            self._trim()
            return

        self.batch_memo_misses += 1
        self._extend_buffers(ti, count, read_ends, write_ends,
                             rcells, wcells, rdelta, wdelta)
        recorded = self._consume_windows()
        if len(self._batch_memo) >= 256:
            self._batch_memo.clear()
        self._batch_memo[sig] = recorded
        self._trim()

    def _apply_replay(self, replay) -> None:
        """Apply a batch-memo replay record to every window state."""
        for st, (cps, total, mx, mn) in zip(self._wstates, replay):
            n = len(cps)
            if n:
                res = st.result
                res.count += n
                res.total_cp += total
                if mx > res.max_cp:
                    res.max_cp = mx
                if res.min_cp == 0 or mn < res.min_cp:
                    res.min_cp = mn
                if st.keep_cps:
                    res.cps.extend(cps)
                st.next_start += n * st.slide

    def _window_events(self, summaries, events, indices, read_ends,
                       write_ends, reads, writes, count, spanning) -> None:
        """Event-stream twin of :meth:`_window_batch`: advance the window
        states over one block-summary flush. Per-item keys and cell ends
        come from the summaries' precomputed templates, so a memo hit
        never materializes per-retirement items at all, and a miss emits
        them wholesale (``_emit_items``) instead of item by item."""
        if spanning:
            # cell counts differ from access counts, so the summary key
            # templates are invalid: expand to SoA and take the exact
            # numpy spanning path
            ti, re_, we_ = _events_to_soa(summaries, events, indices,
                                          read_ends, write_ends)
            self._window_batch_spanning(tuple(ti), count, re_, we_,
                                        reads, writes)
            return
        rcells = [a >> 3 for a, _ in reads]
        wcells = [a >> 3 for a, _ in writes]
        rdelta = self._cell_deltas(rcells, self._prev_rcell)
        wdelta = self._cell_deltas(wcells, self._prev_wcell)

        start_min = min(st.next_start for st in self._wstates)
        ka = start_min - self._key_base
        crlo = (self._rends[ka - 1] if ka else self._rc_base) - self._rc_base
        cwlo = (self._wends[ka - 1] if ka else self._wc_base) - self._wc_base
        ncr = len(self._rcells) - crlo
        ncw = len(self._wcells) - cwlo
        if ncr:
            first_r = self._rcells[crlo]
        elif rcells:
            first_r = rcells[0]
        else:
            first_r = None
        if ncw:
            first_w = self._wcells[cwlo]
        elif wcells:
            first_w = wcells[0]
        else:
            first_w = None
        cross = (first_w - first_r
                 if first_r is not None and first_w is not None else None)
        # same translation-invariance argument as the batch signature;
        # the event list replaces the per-item index/end tuples for the
        # block-run portion of the flush (11 components vs the batch
        # path's 10, so the two families can never collide in the memo)
        sig = (
            tuple(self._keys[ka:]),
            tuple(st.next_start - start_min for st in self._wstates),
            tuple(self._rdeltas[crlo + 1:]),
            tuple(self._wdeltas[cwlo + 1:]),
            tuple(events),
            tuple(indices),
            tuple(read_ends),
            tuple(write_ends),
            tuple(rdelta if ncr else rdelta[1:]),
            tuple(wdelta if ncw else wdelta[1:]),
            cross,
        )

        item_base = self._key_base + len(self._keys)
        rtot = self._rc_base + len(self._rcells)
        wtot = self._wc_base + len(self._wcells)
        replay = self._batch_memo.get(sig)
        if replay is not None:
            self.batch_memo_hits += 1
            self._apply_replay(replay)
            min_next = min(st.next_start for st in self._wstates)
            skip = min_next - item_base
            if skip >= 0:
                keys, rends, wends, pr, pw = self._emit_items(
                    summaries, events, indices, read_ends, write_ends,
                    skip, rtot, wtot)
                self._keys = keys
                self._rends = rends
                self._wends = wends
                self._rcells = rcells[pr:]
                self._rdeltas = rdelta[pr:]
                self._wcells = wcells[pw:]
                self._wdeltas = wdelta[pw:]
                self._key_base = min_next
                self._rc_base = rtot + pr
                self._wc_base = wtot + pw
                if rcells:
                    self._prev_rcell = rcells[-1]
                if wcells:
                    self._prev_wcell = wcells[-1]
                return
            self._extend_from_events(summaries, events, indices,
                                     read_ends, write_ends, rcells,
                                     wcells, rdelta, wdelta, rtot, wtot)
            self._trim()
            return

        self.batch_memo_misses += 1
        self._extend_from_events(summaries, events, indices, read_ends,
                                 write_ends, rcells, wcells, rdelta,
                                 wdelta, rtot, wtot)
        recorded = self._consume_windows()
        if len(self._batch_memo) >= 256:
            self._batch_memo.clear()
        self._batch_memo[sig] = recorded
        self._trim()

    def _emit_items(self, summaries, events, indices, read_ends,
                    write_ends, skip, rtot, wtot):
        """Composite keys and global cell ends for flush items
        ``[skip, count)``; returns ``(keys, rends, wends, pr, pw)`` where
        ``pr``/``pw`` are the flush-local access counts at item ``skip``.
        Valid only for non-spanning flushes (cell count == access
        count). Block runs emit whole key templates per execution; the
        end lists use one vectorized outer add per long run."""
        keys: list = []
        rends: list = []
        wends: list = []
        pos = 0
        racc = 0
        wacc = 0
        si = 0
        pr = pw = None
        for i in range(0, len(events), 2):
            bid = events[i]
            k = events[i + 1]
            if bid >= 0:
                s = summaries[bid]
                L = s.length
                R = s.n_reads
                W = s.n_writes
                items = k * L
                if pos + items <= skip:
                    pos += items
                    racc += k * R
                    wacc += k * W
                    continue
                q, rem = divmod(skip - pos if skip > pos else 0, L)
                if pr is None:
                    pr = racc + q * R + (s.rends_rel[rem - 1] if rem else 0)
                    pw = wacc + q * W + (s.wends_rel[rem - 1] if rem else 0)
                if rem:
                    # straddled execution: emit its tail item by item
                    keys.extend(s.keys[rem:])
                    br = rtot + racc + q * R
                    bw = wtot + wacc + q * W
                    rends.extend([br + e for e in s.rends_rel[rem:]])
                    wends.extend([bw + e for e in s.wends_rel[rem:]])
                    q += 1
                nk = k - q
                if nk:
                    keys.extend(s.keys * nk)
                    if R == 0:
                        rends.extend([rtot + racc] * (nk * L))
                    elif nk * L >= 64:
                        offs = (rtot + racc
                                + np.arange(q, k, dtype=np.int64) * R)
                        rends.extend(
                            (offs[:, None] + s.rends_np).ravel().tolist())
                    else:
                        rex = rends.extend
                        srel = s.rends_rel
                        b = rtot + racc + q * R
                        for _ in range(nk):
                            rex([b + e for e in srel])
                            b += R
                    if W == 0:
                        wends.extend([wtot + wacc] * (nk * L))
                    elif nk * L >= 64:
                        offs = (wtot + wacc
                                + np.arange(q, k, dtype=np.int64) * W)
                        wends.extend(
                            (offs[:, None] + s.wends_np).ravel().tolist())
                    else:
                        wex = wends.extend
                        srel = s.wends_rel
                        b = wtot + wacc + q * W
                        for _ in range(nk):
                            wex([b + e for e in srel])
                            b += W
                pos += items
                racc += k * R
                wacc += k * W
            else:
                sj = si + k
                if pos + k <= skip:
                    si = sj
                    pos += k
                    racc = read_ends[sj - 1]
                    wacc = write_ends[sj - 1]
                    continue
                lo = si + (skip - pos if skip > pos else 0)
                r0 = read_ends[lo - 1] if lo > si else racc
                w0 = write_ends[lo - 1] if lo > si else wacc
                if pr is None:
                    pr = r0
                    pw = w0
                kap = keys.append
                rap = rends.append
                wap = wends.append
                for p in range(lo, sj):
                    r1 = read_ends[p]
                    w1 = write_ends[p]
                    kap((indices[p] << _IDX_SHIFT)
                        | ((r1 - r0) << _RC_SHIFT) | (w1 - w0))
                    rap(rtot + r1)
                    wap(wtot + w1)
                    r0 = r1
                    w0 = w1
                si = sj
                pos += k
                racc = read_ends[sj - 1]
                wacc = write_ends[sj - 1]
        if pr is None:
            pr = racc
            pw = wacc
        return keys, rends, wends, pr, pw

    def _extend_from_events(self, summaries, events, indices, read_ends,
                            write_ends, rcells, wcells, rdelta, wdelta,
                            rtot, wtot) -> None:
        keys, rends, wends, _pr, _pw = self._emit_items(
            summaries, events, indices, read_ends, write_ends, 0,
            rtot, wtot)
        self._keys.extend(keys)
        self._rends.extend(rends)
        self._wends.extend(wends)
        if rcells:
            self._prev_rcell = rcells[-1]
            self._rcells.extend(rcells)
            self._rdeltas.extend(rdelta)
        if wcells:
            self._prev_wcell = wcells[-1]
            self._wcells.extend(wcells)
            self._wdeltas.extend(wdelta)

    def _window_batch_spanning(self, ti, count, read_ends, write_ends,
                               reads, writes) -> None:
        """Rare path: some access in the batch spans an 8-byte-cell
        boundary, so post-expansion cell counts differ from the raw
        access counts and the raw-array signature no longer determines
        the composite keys. Expand via numpy and consume windows
        directly, bypassing the batch memo."""
        self._extend_spanning(ti, count, read_ends, write_ends,
                              reads, writes)
        self._consume_windows()
        self._trim()

    def _window_extend_relative(self, ti, count, read_ends, write_ends,
                                reads, writes) -> None:
        """Relative engines only buffer window items — windows are
        consumed after the state is merged onto an absolute prefix, when
        the items reaching back across the boundary are known."""
        if (any((a & 7) + z > 8 for a, z in reads)
                or any((a & 7) + z > 8 for a, z in writes)):
            self._extend_spanning(ti, count, read_ends, write_ends,
                                  reads, writes)
            return
        rcells = [a >> 3 for a, _ in reads]
        wcells = [a >> 3 for a, _ in writes]
        rdelta = self._cell_deltas(rcells, self._prev_rcell)
        wdelta = self._cell_deltas(wcells, self._prev_wcell)
        self._extend_buffers(ti, count, read_ends, write_ends,
                             rcells, wcells, rdelta, wdelta)

    def _extend_spanning(self, ti, count, read_ends, write_ends,
                         reads, writes) -> None:
        rend = np.fromiter(read_ends, np.int64, count)
        wend = np.fromiter(write_ends, np.int64, count)
        rc_a, rends_items = self._expand_cells(reads, read_ends[count - 1],
                                               rend)
        wc_a, wends_items = self._expand_cells(writes, write_ends[count - 1],
                                               wend)
        idx_arr = np.fromiter(ti, np.int64, count)
        keys = ((idx_arr << _IDX_SHIFT)
                | (np.diff(rends_items, prepend=0) << _RC_SHIFT)
                | np.diff(wends_items, prepend=0)).tolist()
        rcells = rc_a.tolist()
        wcells = wc_a.tolist()
        rdelta = self._cell_deltas(rcells, self._prev_rcell)
        wdelta = self._cell_deltas(wcells, self._prev_wcell)
        rtot = self._rc_base + len(self._rcells)
        wtot = self._wc_base + len(self._wcells)
        self._keys.extend(keys)
        self._rends.extend((rends_items + rtot).tolist())
        self._wends.extend((wends_items + wtot).tolist())
        if rcells:
            self._prev_rcell = rcells[-1]
            self._rcells.extend(rcells)
            self._rdeltas.extend(rdelta)
        if wcells:
            self._prev_wcell = wcells[-1]
            self._wcells.extend(wcells)
            self._wdeltas.extend(wdelta)

    def _extend_buffers(self, ti, count, read_ends, write_ends,
                        rcells, wcells, rdelta, wdelta) -> None:
        rtot = self._rc_base + len(self._rcells)
        wtot = self._wc_base + len(self._wcells)
        keys = self._keys
        kap = keys.append
        r0 = 0
        w0 = 0
        for p in range(count):
            r1 = read_ends[p]
            w1 = write_ends[p]
            kap((ti[p] << _IDX_SHIFT) | ((r1 - r0) << _RC_SHIFT) | (w1 - w0))
            r0 = r1
            w0 = w1
        self._rends.extend([rtot + r for r in read_ends])
        self._wends.extend([wtot + w for w in write_ends])
        if rcells:
            self._prev_rcell = rcells[-1]
            self._rcells.extend(rcells)
            self._rdeltas.extend(rdelta)
        if wcells:
            self._prev_wcell = wcells[-1]
            self._wcells.extend(wcells)
            self._wdeltas.extend(wdelta)

    def _consume_windows(self) -> list:
        """Advance every window state over the buffered items, returning
        the per-state ``(cps, sum, max, min)`` replay records."""
        total_items = self._key_base + len(self._keys)
        recorded = []
        for st in self._wstates:
            size = st.size
            slide = st.slide
            res = st.result
            keep = st.keep_cps
            cps = []
            while st.next_start + size <= total_items:
                cp = self._window_cp_memo(st.next_start, size)
                cps.append(cp)
                res.count += 1
                res.total_cp += cp
                if cp > res.max_cp:
                    res.max_cp = cp
                if res.min_cp == 0 or cp < res.min_cp:
                    res.min_cp = cp
                if keep:
                    res.cps.append(cp)
                st.next_start += slide
            recorded.append((tuple(cps), sum(cps),
                             max(cps, default=0), min(cps, default=0)))
        return recorded

    def _window_cp_memo(self, start: int, size: int) -> int:
        ka = start - self._key_base
        kb = ka + size
        rends = self._rends
        wends = self._wends
        rlo = (rends[ka - 1] if ka else self._rc_base) - self._rc_base
        rhi = rends[kb - 1] - self._rc_base
        wlo = (wends[ka - 1] if ka else self._wc_base) - self._wc_base
        whi = wends[kb - 1] - self._wc_base
        # a window's CP is invariant under translating all its cells; the
        # key captures the item sequence, each cell stream's internal
        # deltas, and the read-to-write stream offset
        if rhi > rlo and whi > wlo:
            cross = self._wcells[wlo] - self._rcells[rlo]
        else:
            cross = None
        key = (tuple(self._keys[ka:kb]),
               tuple(self._rdeltas[rlo + 1: rhi]),
               tuple(self._wdeltas[wlo + 1: whi]),
               cross)
        cp = self._memo.get(key)
        if cp is not None:
            self.memo_hits += 1
            return cp
        self.memo_misses += 1
        cp = self._window_cp(ka, kb, rlo, wlo)
        if self._memo_items < _MEMO_MAX_ITEMS:
            self._memo[key] = cp
            self._memo_items += size
        return cp

    def _window_cp(self, ka: int, kb: int, rlo: int, wlo: int) -> int:
        """Direct window CP from the rolling buffers (memo misses and the
        final partial window). Matches ``window_critical_path`` on the
        legacy probe's (srcs + cells, dsts + cells) items exactly."""
        depth: dict[int, int] = {}
        get = depth.get
        keys = self._keys
        srcs_t = self._srcs
        dsts_t = self._dsts
        rcells = self._rcells
        wcells = self._wcells
        r = rlo
        w = wlo
        best = 0
        for p in range(ka, kb):
            k = keys[p]
            idx = k >> _IDX_SHIFT
            d = 0
            for s in srcs_t[idx]:
                v = get(s, 0)
                if v > d:
                    d = v
            for _ in range((k >> _RC_SHIFT) & _CNT_MASK):
                v = get(_MEM_BASE + rcells[r], 0)
                r += 1
                if v > d:
                    d = v
            d += 1
            for t in dsts_t[idx]:
                depth[t] = d
            for _ in range(k & _CNT_MASK):
                depth[_MEM_BASE + wcells[w]] = d
                w += 1
            if d > best:
                best = d
        return best

    def _trim(self) -> None:
        """Drop buffer prefixes no window can reach anymore."""
        needed = min(st.next_start for st in self._wstates)
        drop = needed - self._key_base
        if drop < 4096:
            return
        new_rc = self._rends[drop - 1]
        new_wc = self._wends[drop - 1]
        del self._keys[:drop]
        del self._rends[:drop]
        del self._wends[:drop]
        rdrop = new_rc - self._rc_base
        wdrop = new_wc - self._wc_base
        del self._rcells[:rdrop]
        del self._rdeltas[:rdrop]
        del self._wcells[:wdrop]
        del self._wdeltas[:wdrop]
        self._key_base = needed
        self._rc_base = new_rc
        self._wc_base = new_wc

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
            windowed = {}
            total_items = self._key_base + len(self._keys)
            for st in self._wstates:
                if st.next_start < total_items:
                    ka = st.next_start - self._key_base
                    rlo = ((self._rends[ka - 1] if ka else self._rc_base)
                           - self._rc_base)
                    wlo = ((self._wends[ka - 1] if ka else self._wc_base)
                           - self._wc_base)
                    cp = self._window_cp(ka, total_items - self._key_base,
                                         rlo, wlo)
                    res = st.result
                    res.count += 1
                    res.total_cp += cp
                    if cp > res.max_cp:
                        res.max_cp = cp
                    if res.min_cp == 0 or cp < res.min_cp:
                        res.min_cp = cp
                    if st.keep_cps:
                        res.cps.append(cp)
                    st.next_start = total_items
                windowed[st.size] = st.result

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
        caches (the window-CP and batch memos, the bincount cache, the
        summaries' stitch functions) are shared by reference — they are
        deterministic functions of their keys, so sharing is safe."""
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
        new._keys = list(self._keys)
        new._rcells = list(self._rcells)
        new._rdeltas = list(self._rdeltas)
        new._wcells = list(self._wcells)
        new._wdeltas = list(self._wdeltas)
        new._rends = list(self._rends)
        new._wends = list(self._wends)
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
        # item stream; shift its cell ends by our totals and re-link the
        # first cell delta across the boundary
        if self._wstates:
            base_r = self._rc_base + len(self._rcells)
            base_w = self._wc_base + len(self._wcells)
            if remap is None:
                self._keys.extend(other._keys)
            else:
                # item keys carry the static index in their high bits
                mask = (1 << _IDX_SHIFT) - 1
                self._keys.extend(
                    (remap[k >> _IDX_SHIFT] << _IDX_SHIFT) | (k & mask)
                    for k in other._keys)
            self._rends.extend([base_r + e for e in other._rends])
            self._wends.extend([base_w + e for e in other._wends])
            if other._rcells:
                self._rdeltas.append(other._rcells[0] - self._prev_rcell)
                self._rdeltas.extend(other._rdeltas[1:])
                self._rcells.extend(other._rcells)
                self._prev_rcell = other._rcells[-1]
            if other._wcells:
                self._wdeltas.append(other._wcells[0] - self._prev_wcell)
                self._wdeltas.extend(other._wdeltas[1:])
                self._wcells.extend(other._wcells)
                self._prev_wcell = other._wcells[-1]
            if not rel:
                self._consume_windows()
                self._trim()

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
            "keys": list(self._keys),
            "key_base": self._key_base,
            "rcells": list(self._rcells),
            "rdeltas": list(self._rdeltas),
            "wcells": list(self._wcells),
            "wdeltas": list(self._wdeltas),
            "rends": list(self._rends),
            "wends": list(self._wends),
            "rc_base": self._rc_base,
            "wc_base": self._wc_base,
            "prev_rcell": self._prev_rcell,
            "prev_wcell": self._prev_wcell,
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
        if self._total or self._keys or len(self._counts):
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
        self._keys = list(doc["keys"])
        self._key_base = doc["key_base"]
        self._rcells = list(doc["rcells"])
        self._rdeltas = list(doc["rdeltas"])
        self._wcells = list(doc["wcells"])
        self._wdeltas = list(doc["wdeltas"])
        self._rends = list(doc["rends"])
        self._wends = list(doc["wends"])
        self._rc_base = doc["rc_base"]
        self._wc_base = doc["wc_base"]
        self._prev_rcell = doc["prev_rcell"]
        self._prev_wcell = doc["prev_wcell"]


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
