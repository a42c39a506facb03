"""Compact execution traces: record once, re-analyze offline.

The paper's artifact (§A.5) stores raw SimEng output per run and feeds it
to separate Python analysis scripts. This module is that separation for
our stack, and the storage half of the two-level result cache: a
:class:`TraceWriter` (batch sink) or :class:`TraceRecorderProbe` (legacy
per-retire probe) captures the per-retirement information every analysis
consumes, and :func:`read_trace` turns the bytes back into a
:class:`Trace` that can be replayed into probes — or, batch-at-a-time via
:meth:`Trace.iter_batches`, into the fused analysis engine without
re-simulating (or even re-compiling: the kernel regions ride along).

Format v3 (little-endian):

* magic ``b"RTRC"``, version u16, ISA name (u8 length + bytes);
* regions: u16 count, then per region — name (u8 length + bytes),
  start u64, end u64;
* static table: u32 count, then per entry — pc u64, word u32, group u8,
  flags u8 (load/store/branch bits), srcs (u8 count + u8 each), dsts
  (likewise), mnemonic (u8 length + bytes);
* event blocks (columnar, one per recorded batch): u32 instruction
  count ``n``, table indices (u32 × n), read counts (u16 × n), write
  counts (u16 × n), read addrs (u64 × R), read sizes (u8 × R), write
  addrs (u64 × W), write sizes (u8 × W);
* trailer: u32 0xFFFFFFFF sentinel, u64 total event count.

The columnar blocks serialize and parse as single ``numpy`` buffer
copies, so replay spends its time analyzing, not decoding. Recording
rides the translator's block-summary event path
(:meth:`TraceWriter.on_events`): its cost is expanding each flush back
to per-retirement arrays and packing them, not a slower simulation.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from repro.common import SimulationError
from repro.isa.base import DecodedInst, InstructionGroup
from repro.sim.blocks import _events_to_soa

MAGIC = b"RTRC"
# v3: instruction fetches no longer appear in the recorded access
# stream (they were decode-time artifacts, attributed differently by
# the interpreter and the block translator)
VERSION = 3

_HDR = struct.Struct("<4sH")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_STATIC = struct.Struct("<QIBB")
_SENTINEL = 0xFFFFFFFF

_FLAG_LOAD, _FLAG_STORE, _FLAG_BRANCH = 1, 2, 4


def _noop_execute(machine) -> None:  # replayed instructions never execute
    raise SimulationError("replayed trace instructions cannot execute")


def _pack_static(inst: DecodedInst) -> bytes:
    flags = (
        (_FLAG_LOAD if inst.is_load else 0)
        | (_FLAG_STORE if inst.is_store else 0)
        | (_FLAG_BRANCH if inst.is_branch else 0)
    )
    blob = bytearray(_STATIC.pack(inst.pc, inst.word, inst.group, flags))
    blob += _U8.pack(len(inst.srcs))
    blob += bytes(inst.srcs)
    blob += _U8.pack(len(inst.dsts))
    blob += bytes(inst.dsts)
    name = inst.mnemonic.encode()
    blob += _U8.pack(len(name)) + name
    return bytes(blob)


def _pack_block(count, indices, read_ends, write_ends, reads, writes) -> bytes:
    """One columnar event block from structure-of-arrays batch data."""
    blob = bytearray(_U32.pack(count))
    blob += np.fromiter(indices, np.uint32, count).tobytes()
    rcnt = np.diff(np.fromiter(read_ends, np.int64, count), prepend=0)
    wcnt = np.diff(np.fromiter(write_ends, np.int64, count), prepend=0)
    if int(rcnt.max(initial=0)) > 0xFFFF or int(wcnt.max(initial=0)) > 0xFFFF:
        raise SimulationError(
            "per-instruction access count exceeds the trace format's u16"
        )
    blob += rcnt.astype(np.uint16).tobytes()
    blob += wcnt.astype(np.uint16).tobytes()
    for accesses, total in ((reads, read_ends[count - 1]),
                            (writes, write_ends[count - 1])):
        if total:
            acc = np.array(accesses, dtype=np.uint64)
            blob += acc[:, 0].tobytes()
            blob += acc[:, 1].astype(np.uint8).tobytes()
    return bytes(blob)


class TraceWriter:
    """Batch sink serializing the retirement stream (trace format v3).

    Attach alongside the fused analysis engine on a batched run; call
    :meth:`finish` after the run for the trace bytes. ``isa_name`` and
    ``regions`` may be set any time before ``finish``.

    The writer accepts block-summary events, so a recording run stays on
    the translator's event path: each event flush is expanded to the
    per-retirement arrays it stands for and packed exactly as the
    per-retirement path would pack the same flush.
    """

    needs_memory = True
    accepts_events = True

    def __init__(self, isa_name: str = "", regions: Sequence = ()):
        self.isa_name = isa_name
        self.regions = list(regions)
        self._table: Sequence[DecodedInst] = []
        self._blocks: list[bytes] = []
        self.count = 0
        self._closed = False

    def on_batch(self, table, count, indices, read_ends, write_ends,
                 reads, writes) -> None:
        if count == 0:
            return
        self._table = table
        self._blocks.append(
            _pack_block(count, indices, read_ends, write_ends, reads, writes)
        )
        self.count += count

    def on_events(self, table, summaries, events, count, indices,
                  read_ends, write_ends, reads, writes) -> None:
        ti, re_, we_ = _events_to_soa(summaries, events, indices,
                                      read_ends, write_ends)
        self.on_batch(table, count, ti, re_, we_, reads, writes)

    def finish(self) -> bytes:
        """Serialize header, regions, static table, blocks and trailer."""
        if self._closed:
            raise SimulationError("trace already finished")
        self._closed = True
        out = bytearray(_HDR.pack(MAGIC, VERSION))
        name = self.isa_name.encode()
        out += _U8.pack(len(name)) + name
        out += _U16.pack(len(self.regions))
        for region in self.regions:
            rname = region.name.encode()
            out += _U8.pack(len(rname)) + rname
            out += _U64.pack(region.start) + _U64.pack(region.end)
        out += _U32.pack(len(self._table))
        for inst in self._table:
            out += _pack_static(inst)
        for block in self._blocks:
            out += block
        out += _U32.pack(_SENTINEL)
        out += _U64.pack(self.count)
        return bytes(out)


class TraceRecorderProbe:
    """Record the retirement stream via the legacy per-retire probe API."""

    needs_memory = True

    def __init__(self, sink: BinaryIO | None = None):
        self.sink = sink if sink is not None else io.BytesIO()
        self._static_index: dict[int, int] = {}
        self._table: list[DecodedInst] = []
        self._indices: list[int] = []
        self._read_ends: list[int] = []
        self._write_ends: list[int] = []
        self._reads: list[tuple[int, int]] = []
        self._writes: list[tuple[int, int]] = []
        self.count = 0
        self.isa_name = ""
        self._closed = False

    def on_retire(self, inst: DecodedInst, reads, writes) -> None:
        index = self._static_index.get(inst.pc)
        if index is None:
            index = len(self._table)
            self._static_index[inst.pc] = index
            self._table.append(inst)
        self._indices.append(index)
        self._reads.extend(reads)
        self._writes.extend(writes)
        self._read_ends.append(len(self._reads))
        self._write_ends.append(len(self._writes))
        self.count += 1

    def finish(self, isa_name: str = "") -> bytes | None:
        """Serialize everything to the sink; returns the bytes for an
        in-memory sink."""
        if self._closed:
            raise SimulationError("trace already finished")
        self._closed = True
        writer = TraceWriter(isa_name or self.isa_name)
        writer._table = self._table
        writer.count = self.count
        if self.count:
            writer._blocks.append(_pack_block(
                self.count, self._indices, self._read_ends,
                self._write_ends, self._reads, self._writes,
            ))
        blob = writer.finish()
        self.sink.write(blob)
        if isinstance(self.sink, io.BytesIO):
            return self.sink.getvalue()
        return None


@dataclass
class Trace:
    """A parsed trace, replayable into probes or batch sinks."""

    isa_name: str
    instructions: list[DecodedInst]          # static table
    regions: list = field(default_factory=list)
    #: Parsed columnar blocks: (idx, rcnt, wcnt, raddr, rsize, waddr, wsize).
    blocks: list[tuple] = field(default_factory=list, repr=False)
    count: int = 0

    def __len__(self) -> int:
        return self.count

    def iter_batches(self) -> Iterator[tuple]:
        """Yield ``on_batch`` argument tuples, one per recorded block."""
        table = self.instructions
        for idx, rcnt, wcnt, raddr, rsize, waddr, wsize in self.blocks:
            count = len(idx)
            indices = idx.tolist()
            read_ends = np.cumsum(rcnt, dtype=np.int64).tolist()
            write_ends = np.cumsum(wcnt, dtype=np.int64).tolist()
            reads = list(zip(raddr.tolist(), rsize.tolist()))
            writes = list(zip(waddr.tolist(), wsize.tolist()))
            yield (table, count, indices, read_ends, write_ends,
                   reads, writes)

    def replay_into(self, sinks: Sequence) -> None:
        """Feed every recorded batch into ``sinks`` (fused-engine path)."""
        for batch in self.iter_batches():
            for sink in sinks:
                sink.on_batch(*batch)

    def replay(self, probes: Sequence) -> None:
        """Feed every recorded retirement into ``probes`` in order."""
        table = self.instructions
        hooks = [p.on_retire for p in probes]
        for (_table, count, indices, read_ends, write_ends,
             reads, writes) in self.iter_batches():
            r0 = 0
            w0 = 0
            for i in range(count):
                inst = table[indices[i]]
                r1 = read_ends[i]
                w1 = write_ends[i]
                rs = reads[r0:r1]
                ws = writes[w0:w1]
                r0 = r1
                w0 = w1
                for hook in hooks:
                    hook(inst, rs, ws)


def read_trace(source: bytes | BinaryIO) -> Trace:
    """Parse trace bytes (or a readable binary file object)."""
    from repro.asm.program import Region

    blob = source if isinstance(source, bytes) else source.read()
    if len(blob) < _HDR.size or blob[:4] != MAGIC:
        raise SimulationError("not a repro trace (bad magic)")
    _magic, version = _HDR.unpack_from(blob, 0)
    if version != VERSION:
        raise SimulationError(f"unsupported trace version {version}")
    offset = _HDR.size
    (name_len,) = _U8.unpack_from(blob, offset)
    offset += 1
    isa_name = blob[offset : offset + name_len].decode()
    offset += name_len

    (n_regions,) = _U16.unpack_from(blob, offset)
    offset += 2
    regions = []
    for _ in range(n_regions):
        (name_len,) = _U8.unpack_from(blob, offset)
        offset += 1
        rname = blob[offset : offset + name_len].decode()
        offset += name_len
        (start,) = _U64.unpack_from(blob, offset)
        (end,) = _U64.unpack_from(blob, offset + 8)
        offset += 16
        regions.append(Region(rname, start, end))

    (count,) = _U32.unpack_from(blob, offset)
    offset += 4
    table: list[DecodedInst] = []
    for _ in range(count):
        pc, word, group, flags = _STATIC.unpack_from(blob, offset)
        offset += _STATIC.size
        (n_srcs,) = _U8.unpack_from(blob, offset)
        offset += 1
        srcs = tuple(blob[offset : offset + n_srcs])
        offset += n_srcs
        (n_dsts,) = _U8.unpack_from(blob, offset)
        offset += 1
        dsts = tuple(blob[offset : offset + n_dsts])
        offset += n_dsts
        (name_len,) = _U8.unpack_from(blob, offset)
        offset += 1
        mnemonic = blob[offset : offset + name_len].decode()
        offset += name_len
        table.append(DecodedInst(
            pc, word, mnemonic, mnemonic, InstructionGroup(group),
            srcs, dsts, _noop_execute,
            is_load=bool(flags & _FLAG_LOAD),
            is_store=bool(flags & _FLAG_STORE),
            is_branch=bool(flags & _FLAG_BRANCH),
        ))

    blocks: list[tuple] = []
    total = 0
    while True:
        (n,) = _U32.unpack_from(blob, offset)
        offset += 4
        if n == _SENTINEL:
            break
        idx = np.frombuffer(blob, np.uint32, n, offset)
        offset += 4 * n
        rcnt = np.frombuffer(blob, np.uint16, n, offset)
        offset += 2 * n
        wcnt = np.frombuffer(blob, np.uint16, n, offset)
        offset += 2 * n
        n_reads = int(rcnt.sum())
        n_writes = int(wcnt.sum())
        raddr = np.frombuffer(blob, np.uint64, n_reads, offset)
        offset += 8 * n_reads
        rsize = np.frombuffer(blob, np.uint8, n_reads, offset)
        offset += n_reads
        waddr = np.frombuffer(blob, np.uint64, n_writes, offset)
        offset += 8 * n_writes
        wsize = np.frombuffer(blob, np.uint8, n_writes, offset)
        offset += n_writes
        if offset > len(blob):
            raise SimulationError("trace truncated mid-block")
        blocks.append((idx, rcnt, wcnt, raddr, rsize, waddr, wsize))
        total += n

    (declared,) = _U64.unpack_from(blob, offset)
    if declared != total:
        raise SimulationError(
            f"trace truncated: trailer says {declared} events, "
            f"found {total}"
        )
    return Trace(isa_name=isa_name, instructions=table, regions=regions,
                 blocks=blocks, count=total)
