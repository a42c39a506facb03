"""Translate-time block summaries: analysis precomputed per superblock.

When the batched translator compiles a *static* superblock (no SYSCALL-
or ATOMIC-group instruction, so every execution retires the same
instructions and performs the same accesses), everything the fused
analysis engine derives per retirement is already fixed at translate
time: the static-table index sequence (the block's instruction-mix
vector and path-length delta), the intra-block dependence template with
per-instruction latencies, and the memory-access footprint (per-access
sizes; only the addresses vary). A :class:`BlockSummary` captures all of
it once, so the runtime stream can shrink from one structure-of-arrays
item per retirement to one ``(block id, execution count)`` event per
block run — the OSACA-style compile-once/analyze-once idiom applied to
the emulation core's own superblocks.

The summary also compiles a *chain-stitch function* per (latency table,
break-on-zero) configuration: straight-line generated Python that
advances the engine's global register/memory dependence chains over
``k`` executions of the block. The generated code resolves intra-block
register dependences to locals at compile time (the dependence template
folded into the code shape), keeps block-written registers in locals
across iterations, and only touches the engine's shared structures for
memory cells (addresses are dynamic) and the final register write-back —
so stitching a block execution costs a handful of local-variable ops per
instruction instead of the interpreter-style scan in
``FusedAnalysisEngine._cp_batch``. Results are exactly equal to the
per-retirement path; the differential tests enforce it.
"""

from __future__ import annotations

from repro.analysis.critpath import _MEM_BASE, mem_cells

__all__ = ["BlockSummary", "build_summary"]

#: Generated chain-stitch source -> code object (sources are
#: deterministic per block content, so repeated runs and the many
#: configurations over one binary share compiles).
_CP_CODE_CACHE: dict = {}

#: Bump whenever the generated chain-stitch source shape changes; part
#: of the persistent block-cache key (stale on-disk sources orphan
#: instead of preloading).
SUMMARY_VERSION = 2

#: Chain-stitch compile-cache telemetry (mirrors
#: :data:`repro.sim.blocks._CODE_STATS`).
_CP_STATS = {"hits": 0, "misses": 0, "preloaded": 0}

#: When not None, freshly compiled chain-stitch sources collect here for
#: the warm-cache layer to persist (see :func:`drain_new_cp_sources`).
_CP_NEW_SOURCES: list | None = None


def cp_cache_stats() -> dict:
    """A copy of the chain-stitch compile-cache counters."""
    return dict(_CP_STATS)


def set_cp_source_recording(enabled: bool) -> None:
    """Start (or stop) collecting freshly compiled chain-stitch sources."""
    global _CP_NEW_SOURCES
    if enabled and _CP_NEW_SOURCES is None:
        _CP_NEW_SOURCES = []
    elif not enabled:
        _CP_NEW_SOURCES = None


def drain_new_cp_sources() -> list:
    """Return (and clear) chain-stitch sources compiled since last drain."""
    global _CP_NEW_SOURCES
    if not _CP_NEW_SOURCES:
        return []
    drained = _CP_NEW_SOURCES
    _CP_NEW_SOURCES = []
    return drained


def preload_cp_sources(sources) -> int:
    """Compile chain-stitch ``sources`` ahead of demand; skips cached and
    uncompilable entries (preloading must never fail a run)."""
    loaded = 0
    for source in sources:
        if not isinstance(source, str) or source in _CP_CODE_CACHE:
            continue
        try:
            code = compile(source, "<block-summary-cp>", "exec")
        except (SyntaxError, ValueError):
            continue
        if len(_CP_CODE_CACHE) > 16384:
            _CP_CODE_CACHE.clear()
        _CP_CODE_CACHE[source] = code
        loaded += 1
    _CP_STATS["preloaded"] += loaded
    return loaded


class BlockSummary:
    """Immutable per-block analysis template (see module docstring).

    Built from the decoded instructions plus one *observed* execution
    (for the access footprint — access counts and sizes per instruction
    are decode-time constants for static blocks, the same invariant the
    batched translator's constant-folded bookkeeping relies on).
    """

    __slots__ = (
        "length", "idxs", "deps", "rcounts", "wcounts", "rsizes", "wsizes",
        "n_reads", "n_writes", "rends_rel", "wends_rel", "items", "_cp_fns",
    )

    def __init__(self, insts, idxs, roffs, woffs, rsizes, wsizes):
        import numpy as np

        self.length = len(insts)
        self.idxs = tuple(idxs)
        #: dependence template: (srcs, dsts, group) per instruction
        self.deps = tuple((inst.srcs, inst.dsts, inst.group)
                          for inst in insts)
        prev_r = 0
        prev_w = 0
        rcounts = []
        wcounts = []
        for r, w in zip(roffs, woffs):
            rcounts.append(r - prev_r)
            wcounts.append(w - prev_w)
            prev_r = r
            prev_w = w
        self.rcounts = tuple(rcounts)
        self.wcounts = tuple(wcounts)
        self.rsizes = tuple(rsizes)
        self.wsizes = tuple(wsizes)
        self.n_reads = roffs[-1] if roffs else 0
        self.n_writes = woffs[-1] if woffs else 0
        #: per-instruction cumulative access ends within one execution
        self.rends_rel = tuple(roffs)
        self.wends_rel = tuple(woffs)
        #: one execution's window items: rows of static indices, read
        #: access counts and write access counts
        self.items = np.array([self.idxs, rcounts, wcounts], dtype=np.int64)
        self.items.flags.writeable = False
        self._cp_fns: dict = {}

    def cp_fn(self, weights: tuple, break_on_zero: bool):
        """The chain-stitch function for this latency configuration.

        Signature of the returned function::

            fn(k, reads, writes, r, w, rp, rs, mp, ms, bp, bs)
                -> (best_plain, best_scaled)

        ``r``/``w`` index the first of this block's accesses in the
        flush's flat ``reads``/``writes`` lists; the caller advances its
        cursors by ``k * n_reads`` / ``k * n_writes`` afterwards.
        """
        key = (weights, break_on_zero)
        fn = self._cp_fns.get(key)
        if fn is None:
            fn = _compile_cp_fn(self, weights, break_on_zero)
            self._cp_fns[key] = fn
        return fn


def build_summary(insts, idxs, roffs, woffs, rsizes, wsizes) -> BlockSummary:
    """Factory kept trivial on purpose (one obvious construction site)."""
    return BlockSummary(insts, idxs, roffs, woffs, rsizes, wsizes)


# ----------------------------------------------------- stitch-fn codegen

def _max_expr(target: str, terms: list[str], add) -> list[str]:
    """Lines assigning ``target`` = max(terms) + add (``add`` literal).

    Small term counts unroll to compare chains — a ``max()`` call costs
    ~5x a local compare-and-branch, and nearly every instruction has
    2-4 dependence terms."""
    if not terms:
        return [f"{target} = {add}"]
    if len(terms) == 1:
        return [f"{target} = {terms[0]} + {add}"]
    if len(terms) == 2:
        a, b = terms
        return [f"{target} = ({a} if {a} > {b} else {b}) + {add}"]
    if len(terms) <= 6:
        a, b = terms[0], terms[1]
        lines = [f"{target} = {a} if {a} > {b} else {b}"]
        for t in terms[2:]:
            lines.append(f"if {t} > {target}: {target} = {t}")
        lines.append(f"{target} += {add}")
        return lines
    return [f"{target} = max({', '.join(terms)}) + {add}"]


def _cp_source(summary: BlockSummary, weights: tuple,
               break_on_zero: bool) -> str:
    """Generate the chain-stitch source for one block summary.

    Conventions in the generated code (chosen so the hot loop is pure
    LOAD_FAST/STORE_FAST traffic):

    * ``g{t}``/``h{t}``: plain/scaled depth of register ``t`` when the
      block writes ``t`` — loaded from ``rp``/``rs`` once before the
      loop, carried across iterations, stored back once after;
    * ``p{t}``/``q{t}``: depths of registers the block only reads,
      hoisted to locals before the loop (invariant);
    * ``d{i}``/``e{i}``: the i-th instruction's plain/scaled depth;
    * memory cells go through ``mp``/``ms`` (addresses are dynamic).
    """
    deps = summary.deps
    rsizes = summary.rsizes
    wsizes = summary.wsizes
    written: set[int] = set()
    read_regs: set[int] = set()
    for srcs, dsts, _g in deps:
        read_regs.update(srcs)
        written.update(dsts)
    if not break_on_zero:
        read_regs.update(written)

    def reg_p(t):
        return f"g{t}" if t in written else f"p{t}"

    def reg_s(t):
        return f"h{t}" if t in written else f"q{t}"

    head = []
    if summary.n_reads:
        head.append("mpg = mp.get")
        head.append("msg = ms.get")
    for t in sorted(written):
        head.append(f"g{t} = rp[{t}]")
        head.append(f"h{t} = rs[{t}]")
    for t in sorted(read_regs - written):
        head.append(f"p{t} = rp[{t}]")
        head.append(f"q{t} = rs[{t}]")

    # per-iteration best: an instruction whose result is read later in
    # the same iteration (before being overwritten) is strictly
    # dominated there — the consumer's depth is >= d_i + weight with
    # every weight >= 1 — so only undominated instructions are best
    # candidates
    n = summary.length
    dominated = [False] * n
    if all(weights[g] >= 1 for _s, _d, g in deps):
        for i in range(n):
            dom = False
            for t in deps[i][1]:
                for j in range(i + 1, n):
                    if t in deps[j][0] or (not break_on_zero
                                           and t in deps[j][1]):
                        dom = True
                        break
                    if t in deps[j][1]:  # overwritten before any read
                        break
                if dom:
                    break
            dominated[i] = dom

    body: list[str] = []
    ri = 0
    wi = 0
    for i, (srcs, dsts, group) in enumerate(deps):
        terms_p = []
        terms_s = []
        seen = set()
        for s in srcs:
            if s not in seen:
                seen.add(s)
                terms_p.append(reg_p(s))
                terms_s.append(reg_s(s))
        for _ in range(summary.rcounts[i]):
            size = rsizes[ri]
            body.append(f"a{ri} = reads[r + {ri}][0]")
            body.append(f"c{ri} = (a{ri} >> 3) + {_MEM_BASE}")
            body.append(f"t{ri} = mpg(c{ri}, 0)")
            body.append(f"u{ri} = msg(c{ri}, 0)")
            if size > 8:
                guard = None  # always spans
            elif size > 1:
                guard = f"if (a{ri} & 7) > {8 - size}:"
            else:
                guard = ""  # 1-byte access never spans
            if guard != "":
                pre = ""
                if guard is not None:
                    body.append(guard)
                    pre = "    "
                body.append(f"{pre}for _c in _mc(a{ri}, {size})[1:]:")
                body.append(f"{pre}    _v = mpg(_c, 0)")
                body.append(f"{pre}    if _v > t{ri}: t{ri} = _v")
                body.append(f"{pre}    _v = msg(_c, 0)")
                body.append(f"{pre}    if _v > u{ri}: u{ri} = _v")
            terms_p.append(f"t{ri}")
            terms_s.append(f"u{ri}")
            ri += 1
        if not break_on_zero:
            for t in dsts:
                if t not in seen:
                    seen.add(t)
                    terms_p.append(reg_p(t))
                    terms_s.append(reg_s(t))
        if dominated[i] and len(dsts) == 1 and not summary.wcounts[i]:
            # a dominated single-dst instruction with no memory write is
            # never a best candidate and feeds nothing but its register,
            # so write the depth straight into the chain-head local.
            # _max_expr's >2-term form clobbers the target on its first
            # line, so a self-term must sit in that first comparison —
            # move it to the front (the 1/2-term forms are whole
            # expressions and safe anywhere).
            t = dsts[0]
            tp, ts = f"g{t}", f"h{t}"
            if tp in terms_p:
                k = terms_p.index(tp)
                terms_p.insert(0, terms_p.pop(k))
                terms_s.insert(0, terms_s.pop(k))
            body.extend(_max_expr(tp, terms_p, 1))
            body.extend(_max_expr(ts, terms_s, weights[group]))
            continue
        body.extend(_max_expr(f"d{i}", terms_p, 1))
        body.extend(_max_expr(f"e{i}", terms_s, weights[group]))
        for t in dsts:
            body.append(f"g{t} = d{i}")
            body.append(f"h{t} = e{i}")
        for _ in range(summary.wcounts[i]):
            size = wsizes[wi]
            body.append(f"aw{wi} = writes[w + {wi}][0]")
            body.append(f"cw{wi} = (aw{wi} >> 3) + {_MEM_BASE}")
            body.append(f"mp[cw{wi}] = d{i}")
            body.append(f"ms[cw{wi}] = e{i}")
            if size > 8:
                guard = None
            elif size > 1:
                guard = f"if (aw{wi} & 7) > {8 - size}:"
            else:
                guard = ""
            if guard != "":
                pre = ""
                if guard is not None:
                    body.append(guard)
                    pre = "    "
                body.append(f"{pre}for _c in _mc(aw{wi}, {size})[1:]:")
                body.append(f"{pre}    mp[_c] = d{i}")
                body.append(f"{pre}    ms[_c] = e{i}")
            wi += 1
    cand = [i for i in range(n) if not dominated[i]]
    if len(cand) <= 8:
        for i in cand:
            body.append(f"if d{i} > bp: bp = d{i}")
            body.append(f"if e{i} > bs: bs = e{i}")
    else:
        body.append(f"_b = max({', '.join(f'd{i}' for i in cand)})")
        body.append("if _b > bp: bp = _b")
        body.append(f"_b = max({', '.join(f'e{i}' for i in cand)})")
        body.append("if _b > bs: bs = _b")
    if summary.n_reads:
        body.append(f"r += {summary.n_reads}")
    if summary.n_writes:
        body.append(f"w += {summary.n_writes}")

    tail = []
    for t in sorted(written):
        tail.append(f"rp[{t}] = g{t}")
        tail.append(f"rs[{t}] = h{t}")
    tail.append("return bp, bs")

    lines = ["def _cps(k, reads, writes, r, w, rp, rs, mp, ms, bp, bs):"]
    lines.extend("    " + line for line in head)
    lines.append("    for _ in range(k):")
    lines.extend("        " + line for line in body)
    lines.extend("    " + line for line in tail)
    return "\n".join(lines)


def _compile_cp_fn(summary: BlockSummary, weights: tuple,
                   break_on_zero: bool):
    source = _cp_source(summary, weights, break_on_zero)
    code = _CP_CODE_CACHE.get(source)
    if code is None:
        _CP_STATS["misses"] += 1
        if len(_CP_CODE_CACHE) > 16384:
            _CP_CODE_CACHE.clear()
        code = compile(source, "<block-summary-cp>", "exec")
        _CP_CODE_CACHE[source] = code
        if _CP_NEW_SOURCES is not None:
            _CP_NEW_SOURCES.append(source)
    else:
        _CP_STATS["hits"] += 1
    namespace = {"_mc": mem_cells}
    exec(code, namespace)  # noqa: S102
    return namespace["_cps"]
