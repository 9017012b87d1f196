"""Segment compilation: pack a trace segment into parallel numpy arrays.

A :class:`CompiledSegment` is the array form of one
:class:`~repro.trace.phase.Segment`'s deterministic instruction stream
(:meth:`~repro.trace.phase.Segment.raw_ops`): opcode codes, addresses,
sizes, and branch directions live in compact parallel numpy arrays instead
of millions of per-instruction dataclass objects. On top of the arrays we
build a *batched event encoding* — maximal runs of plain compute
instructions collapse into a single ``(EV_COMPUTE_RUN, count)`` record —
which is what the cores' batched loops actually execute
(:func:`repro.sim.cpu.core.run_compiled_batch`).

Compilation is memoized per segment (:class:`SegmentCompileCache`), so the
many (system x locality x fault-rate) design points that replay the same
kernel trace share one compilation; each ``repro.exec`` worker process gets
the same sharing through its own process-global cache because the
:class:`~repro.exec.cache.TraceCache` hands every job the same frozen
trace (hence equal segments).

The decoded stream (:meth:`CompiledSegment.instructions`) is bit-for-bit
the segment's own :meth:`~repro.trace.phase.Segment.instructions` output;
``tests/perf`` holds the hypothesis property asserting it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.isa.opcodes import CODE_TO_OPCODE, OPCODE_TO_CODE, Opcode
from repro.trace.instruction import Instruction
from repro.trace.phase import Segment

__all__ = [
    "PC_BASE",
    "EV_COMPUTE_RUN",
    "EV_MEMORY",
    "EV_BRANCH",
    "CompiledSegment",
    "SegmentCompileCache",
    "SHARED_COMPILE_CACHE",
    "compile_segment",
]

#: First program-counter value the CPU core's gshare predictor sees; the
#: reference loop advances it by 4 per instruction, so compiled branch events
#: carry ``PC_BASE + 4 * (index + 1)`` precomputed.
PC_BASE = 0x400000

#: Batched event kinds. A compute run covers every opcode the core loops
#: treat as "just an issue slot" (ALU flavours, NOP, FENCE, SPECIAL).
EV_COMPUTE_RUN = 0
EV_MEMORY = 1
EV_BRANCH = 2

_MEMORY_CODES = frozenset(
    OPCODE_TO_CODE[op]
    for op in (Opcode.LOAD, Opcode.STORE, Opcode.SIMD_LOAD, Opcode.SIMD_STORE)
)
_STORE_CODES = frozenset(
    OPCODE_TO_CODE[op] for op in (Opcode.STORE, Opcode.SIMD_STORE)
)
_BRANCH_CODE = OPCODE_TO_CODE[Opcode.BRANCH]


class CompiledSegment:
    """One segment's instruction stream as parallel numpy arrays.

    ``opcodes`` (uint8) indexes :data:`repro.isa.opcodes.CODE_TO_OPCODE`;
    ``addrs`` (int64) is ``-1`` for non-memory records; ``sizes`` (int32)
    and ``taken`` (bool) complete the record. ``events`` is the batched
    encoding consumed by the cores' batched loops and steppers —
    :meth:`from_segment` builds it eagerly, so compiled segments shipped
    into worker processes never rebuild it.
    """

    __slots__ = ("segment", "opcodes", "addrs", "sizes", "taken", "length", "_events")

    def __init__(
        self,
        segment: Segment,
        opcodes: np.ndarray,
        addrs: np.ndarray,
        sizes: np.ndarray,
        taken: np.ndarray,
    ) -> None:
        self.segment = segment
        self.opcodes = opcodes
        self.addrs = addrs
        self.sizes = sizes
        self.taken = taken
        self.length = int(opcodes.shape[0])
        self._events: "List[Tuple[int, int, int, int]] | None" = None

    @classmethod
    def from_segment(cls, segment: Segment) -> "CompiledSegment":
        """Expand and pack ``segment`` (one pass over ``raw_ops``)."""
        codes: List[int] = []
        addrs: List[int] = []
        sizes: List[int] = []
        taken: List[bool] = []
        codes_append = codes.append
        addrs_append = addrs.append
        sizes_append = sizes.append
        taken_append = taken.append
        for code, addr, size, tk in segment.raw_ops():
            codes_append(code)
            addrs_append(addr)
            sizes_append(size)
            taken_append(tk)
        compiled = cls(
            segment,
            np.asarray(codes, dtype=np.uint8),
            np.asarray(addrs, dtype=np.int64),
            np.asarray(sizes, dtype=np.int32),
            np.asarray(taken, dtype=np.bool_),
        )
        # Build the event encoding eagerly: a compilation always ends up
        # executed through `events`, and building it here means a compiled
        # segment that crosses a process boundary (``repro.exec`` worker
        # fan-out pickles warm caches' entries) arrives ready to run
        # instead of every worker re-deriving the same event list.
        compiled._events = compiled._build_events()
        return compiled

    @property
    def nbytes(self) -> int:
        """Array storage footprint in bytes."""
        return int(
            self.opcodes.nbytes + self.addrs.nbytes + self.sizes.nbytes + self.taken.nbytes
        )

    @property
    def events(self) -> "List[Tuple[int, int, int, int]]":
        """The batched event encoding (eager via :meth:`from_segment`;
        built on first use for hand-constructed instances).

        Records are 4-tuples:

        - ``(EV_COMPUTE_RUN, count, 0, 0)`` — ``count`` consecutive
          issue-slot-only instructions;
        - ``(EV_MEMORY, addr, size, is_write)``;
        - ``(EV_BRANCH, taken, pc, 0)`` — ``pc`` precomputed for the CPU's
          gshare predictor (the GPU ignores it).
        """
        if self._events is None:
            self._events = self._build_events()
        return self._events

    def _build_events(self) -> "List[Tuple[int, int, int, int]]":
        events: List[Tuple[int, int, int, int]] = []
        append = events.append
        memory_codes = _MEMORY_CODES
        store_codes = _STORE_CODES
        branch_code = _BRANCH_CODE
        run = 0
        # .tolist() yields plain python ints/bools — much faster to iterate
        # than boxed numpy scalars.
        codes = self.opcodes.tolist()
        addrs = self.addrs.tolist()
        sizes = self.sizes.tolist()
        taken = self.taken.tolist()
        pc = PC_BASE
        for index, code in enumerate(codes):
            pc += 4
            if code in memory_codes:
                if run:
                    append((EV_COMPUTE_RUN, run, 0, 0))
                    run = 0
                append((EV_MEMORY, addrs[index], sizes[index], code in store_codes))
            elif code == branch_code:
                if run:
                    append((EV_COMPUTE_RUN, run, 0, 0))
                    run = 0
                append((EV_BRANCH, taken[index], pc, 0))
            else:
                run += 1
        if run:
            append((EV_COMPUTE_RUN, run, 0, 0))
        return events

    def instructions(self) -> Iterator[Instruction]:
        """Decode back into :class:`Instruction` objects.

        Bit-identical to ``self.segment.instructions()``; used by paths
        that still need real objects (the GPU warp scheduler) and by the
        parity tests.
        """
        opcode_table = CODE_TO_OPCODE
        codes = self.opcodes.tolist()
        addrs = self.addrs.tolist()
        sizes = self.sizes.tolist()
        taken = self.taken.tolist()
        for index, code in enumerate(codes):
            addr = addrs[index]
            if addr >= 0:
                yield Instruction(opcode_table[code], addr=addr, size=sizes[index])
            else:
                yield Instruction(opcode_table[code], taken=taken[index])

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompiledSegment {self.segment.label!r} x{self.length} "
            f"({self.nbytes} array bytes)>"
        )


class SegmentCompileCache:
    """A bounded memo of segment → :class:`CompiledSegment`.

    Segments are frozen dataclasses, so equality-keyed sharing is safe: two
    design points replaying the same (possibly staged or scaled) trace get
    the same compilation. The cache is LRU-bounded because address-space
    staging rewrites segment base addresses, producing a fresh key per
    (kernel, space) pair.

    ``shared`` is an optional second tier — duck-typed as anything with
    ``load(segment) -> CompiledSegment | None`` and ``publish(segment,
    compiled) -> bool``, in practice a
    :class:`~repro.perf.warm.SharedCompileRegion`. Lookups fall through
    local LRU → shared region → compile-and-publish; a shared hit counts
    as ``shared_hits`` (not a miss — no compilation happened) and lands in
    the local LRU copy-on-read.
    """

    def __init__(self, capacity: int = 256, shared: "object | None" = None) -> None:
        if capacity < 1:
            raise ValueError("compile cache capacity must be positive")
        self.capacity = capacity
        self._store: "OrderedDict[Segment, CompiledSegment]" = OrderedDict()
        self.shared = shared
        self.hits = 0
        self.misses = 0
        self.shared_hits = 0
        self.published = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def _insert(self, segment: Segment, compiled: CompiledSegment) -> None:
        self._store[segment] = compiled
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.evictions += 1

    def get(self, segment: Segment) -> CompiledSegment:
        """The compiled form of ``segment`` (compiling on first sight)."""
        compiled = self._store.get(segment)
        if compiled is not None:
            self.hits += 1
            self._store.move_to_end(segment)
            return compiled
        shared = self.shared
        if shared is not None:
            compiled = shared.load(segment)
            if compiled is not None:
                self.shared_hits += 1
                self._insert(segment, compiled)
                return compiled
        self.misses += 1
        compiled = CompiledSegment.from_segment(segment)
        if shared is not None and shared.publish(segment, compiled):
            self.published += 1
        self._insert(segment, compiled)
        return compiled

    def seed(self, segment: Segment, compiled: CompiledSegment) -> None:
        """Insert without touching the counters (pool pre-warming)."""
        self._insert(segment, compiled)

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.shared_hits = 0
        self.published = 0
        self.evictions = 0

    def stats(self) -> "Dict[str, int | float]":
        lookups = self.hits + self.shared_hits + self.misses
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "shared_hits": self.shared_hits,
            "published": self.published,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


#: Process-wide compile memo: the detailed simulator's default, so repeated
#: runs across design points (and benchmark rounds) compile each segment
#: exactly once per process.
SHARED_COMPILE_CACHE = SegmentCompileCache()


def compile_segment(segment: Segment) -> CompiledSegment:
    """Compile ``segment`` through the process-wide cache."""
    return SHARED_COMPILE_CACHE.get(segment)
