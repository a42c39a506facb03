"""Flat little-endian simulated memory.

One contiguous ``bytearray`` covers the whole simulated address space
(default 16 MiB — plenty for the statically linked workloads, which place
text at 64 KiB, data at 2 MiB and the stack just below the top). A flat
array keeps loads/stores on the emulation hot path to a couple of slice
operations; per the profiling guidance in the HPC-Python guides, this is
the single hottest data structure in the repository.

When ``start_recording`` has been called, every access appends
``(address, size)`` to the read/write logs — the emulation core drains
these per instruction to feed memory-carried dependence tracking (§4.1 of
the paper tracks critical paths "for each memory address used").
"""

from __future__ import annotations

import struct

import numpy as np

from repro.common import SimulationError

_F64 = struct.Struct("<d")
_F32 = struct.Struct("<f")


class Memory:
    """Byte-addressed little-endian memory with optional access recording."""

    __slots__ = ("data", "size", "reads", "writes", "recording")

    def __init__(self, size: int = 1 << 24):
        self.size = size
        self.data = bytearray(size)
        self.reads: list[tuple[int, int]] = []
        self.writes: list[tuple[int, int]] = []
        self.recording = False

    # -- bulk access (loader, result inspection) ------------------------------

    def write_bytes(self, addr: int, blob: bytes) -> None:
        """Bulk write (used by the loader; not recorded)."""
        if addr < 0 or addr + len(blob) > self.size:
            raise SimulationError(
                f"segment [{addr:#x}, {addr + len(blob):#x}) outside memory",
                addr=addr, size=len(blob),
            )
        self.data[addr : addr + len(blob)] = blob

    def read_bytes(self, addr: int, length: int) -> bytes:
        """Bulk read (result inspection; not recorded)."""
        self._check(addr, length)
        return bytes(self.data[addr : addr + length])

    # -- scalar access (instruction semantics) --------------------------------

    def load(self, addr: int, size: int, signed: bool = False) -> int:
        self._check(addr, size)
        if self.recording:
            self.reads.append((addr, size))
        return int.from_bytes(self.data[addr : addr + size], "little", signed=signed)

    def store(self, addr: int, size: int, value: int) -> None:
        self._check(addr, size)
        if self.recording:
            self.writes.append((addr, size))
        try:
            self.data[addr : addr + size] = value.to_bytes(size, "little")
        except OverflowError:
            # out-of-range/negative value: a semantics bug (executors mask
            # to the access width). Report it as a guest fault the
            # post-mortem/fuzzing layers can localize, not a raw
            # OverflowError that crashes the harness.
            raise SimulationError(
                f"store of out-of-range value {value:#x} "
                f"({size}-byte store at {addr:#x})",
                addr=addr, size=size,
            ) from None

    def load_f64(self, addr: int) -> float:
        self._check(addr, 8)
        if self.recording:
            self.reads.append((addr, 8))
        return _F64.unpack_from(self.data, addr)[0]

    def store_f64(self, addr: int, value: float) -> None:
        self._check(addr, 8)
        if self.recording:
            self.writes.append((addr, 8))
        _F64.pack_into(self.data, addr, value)

    def load_f32(self, addr: int) -> float:
        self._check(addr, 4)
        if self.recording:
            self.reads.append((addr, 4))
        return _F32.unpack_from(self.data, addr)[0]

    def store_f32(self, addr: int, value: float) -> None:
        self._check(addr, 4)
        if self.recording:
            self.writes.append((addr, 4))
        _F32.pack_into(self.data, addr, value)

    # -- snapshot support --------------------------------------------------

    def diff_pages(self, shadow: bytearray | bytes,
                   page_size: int = 4096) -> dict[int, bytes]:
        """Pages of ``data`` that differ from ``shadow``, keyed by page index.

        ``shadow`` must cover the same address space. Comparison is
        page-granular: a page with any differing byte is returned whole,
        so applying the result on top of ``shadow`` reproduces ``data``
        exactly. The snapshot layer keeps ``shadow`` at the freshly
        loaded image state, making the diff proportional to the guest's
        working set rather than the 16 MiB address space.
        """
        if len(shadow) != self.size:
            raise SimulationError(
                f"shadow size {len(shadow)} != memory size {self.size}")
        data = self.data
        # Compare all whole pages in one vectorized pass (a per-page
        # memoryview comparison goes element by element); the partial
        # tail page, if any, is compared directly.
        whole = self.size // page_size
        changed = []
        if whole:
            span = whole * page_size
            word = 8 if page_size % 8 == 0 else 1
            dtype = np.uint64 if word == 8 else np.uint8
            cur = np.frombuffer(data, dtype=dtype, count=span // word)
            base = np.frombuffer(shadow, dtype=dtype, count=span // word)
            changed = np.flatnonzero(
                (cur != base).reshape(whole, page_size // word).any(axis=1)
            ).tolist()
            del cur, base
        tail = whole * page_size
        if tail < self.size and data[tail:] != shadow[tail:]:
            changed.append(whole)
        return {index: bytes(data[index * page_size:
                                  min((index + 1) * page_size, self.size)])
                for index in changed}

    def apply_pages(self, pages: dict[int, bytes],
                    page_size: int = 4096) -> None:
        """Write page diffs produced by :meth:`diff_pages` back in place.

        Mutates ``data`` in place (never rebinds it) — compiled block
        functions hold the bytearray by object identity.
        """
        data = self.data
        for index, blob in pages.items():
            off = index * page_size
            if off < 0 or off + len(blob) > self.size:
                raise SimulationError(
                    f"snapshot page [{off:#x}, +{len(blob)}) outside memory",
                    addr=off, size=len(blob))
            data[off:off + len(blob)] = blob

    # -- recording control -----------------------------------------------

    def start_recording(self) -> None:
        """Begin appending (addr, size) pairs to ``reads``/``writes``."""
        self.recording = True

    def stop_recording(self) -> None:
        self.recording = False
        self.reads.clear()
        self.writes.clear()

    def drain_accesses(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Return and clear the pending access logs (core calls this per step).

        Returns the live lists for speed — callers must finish with them
        before the next instruction executes.
        """
        return self.reads, self.writes

    # -- internals -------------------------------------------------------

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > self.size:
            raise SimulationError(
                f"memory access [{addr:#x}, +{size}) out of bounds",
                addr=addr, size=size,
            )
