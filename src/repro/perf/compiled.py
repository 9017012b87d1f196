"""Segment compilation: one trace segment as a list of batched events.

A :class:`CompiledSegment` is the *batched event encoding* of one
:class:`~repro.trace.phase.Segment`'s deterministic instruction stream
(:meth:`~repro.trace.phase.Segment.raw_ops`), built in one pass over it:
maximal runs of plain compute instructions collapse into a single
``(EV_COMPUTE_RUN, count)`` record, and each memory or branch instruction
becomes one record. The cores' steppers
(:meth:`repro.sim.cpu.core.CpuCore.step_compiled` and the GPU's) execute
these records without constructing a single per-instruction object.

Compute-run and branch records depend only on a run length or on an
instruction's position, so every compilation in the process shares them
through one table: the same kernel staged into a second address space
reuses the first one's tuples. Memory records carry addresses, which
staging rewrites, and are never shared. The table therefore holds at most
one compute-run record per run length and two branch records (taken or
not) per position, at most three records per instruction of the longest
segment compiled, however many segments the process compiles.

Compilation is memoized per segment (:class:`SegmentCompileCache`), so the
many (system x locality x fault-rate) design points that replay the same
kernel trace share one compilation; each ``repro.exec`` worker process gets
the same sharing through its own process-global cache because the
:class:`~repro.exec.cache.TraceCache` hands every job the same frozen
trace (hence equal segments).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

from repro.isa.opcodes import OPCODE_TO_CODE, Opcode
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

Event = Tuple[int, int, int, int]

_STORE_CODES = frozenset(
    OPCODE_TO_CODE[op] for op in (Opcode.STORE, Opcode.SIMD_STORE)
)
_BRANCH_CODE = OPCODE_TO_CODE[Opcode.BRANCH]
#: Opcodes that get a record of their own (memory and branch); every
#: other opcode extends the current compute run.
_RECORD_CODES = frozenset(
    OPCODE_TO_CODE[op]
    for op in (Opcode.LOAD, Opcode.STORE, Opcode.SIMD_LOAD, Opcode.SIMD_STORE, Opcode.BRANCH)
)

#: The process-wide table of shared compute-run and branch records.
_SHARED_EVENTS: Dict[Event, Event] = {}


class CompiledSegment:
    """One segment's instruction stream as batched event records.

    ``events`` is a list of 4-tuples, consumed by the cores' batched loops
    and steppers:

    - ``(EV_COMPUTE_RUN, count, 0, 0)`` — ``count`` consecutive
      issue-slot-only instructions;
    - ``(EV_MEMORY, addr, size, is_write)``;
    - ``(EV_BRANCH, taken, pc, 0)`` — ``pc`` precomputed for the CPU's
      gshare predictor (the GPU ignores it).

    ``length`` is the number of instructions the events cover.
    """

    __slots__ = ("segment", "length", "events")

    def __init__(self, segment: Segment, length: int, events: List[Event]) -> None:
        self.segment = segment
        self.length = length
        self.events = events

    @classmethod
    def from_segment(cls, segment: Segment) -> "CompiledSegment":
        """Encode ``segment`` (one pass over ``raw_ops``)."""
        events: List[Event] = []
        append = events.append
        share = _SHARED_EVENTS.setdefault
        record_codes = _RECORD_CODES
        store_codes = _STORE_CODES
        branch_code = _BRANCH_CODE
        run = 0
        pc = PC_BASE
        for code, addr, size, taken in segment.raw_ops():
            pc += 4
            if code not in record_codes:
                run += 1
                continue
            if run:
                event = (EV_COMPUTE_RUN, run, 0, 0)
                append(share(event, event))
                run = 0
            if code == branch_code:
                event = (EV_BRANCH, taken, pc, 0)
                append(share(event, event))
            else:
                append((EV_MEMORY, addr, size, code in store_codes))
        if run:
            event = (EV_COMPUTE_RUN, run, 0, 0)
            append(share(event, event))
        return cls(segment, (pc - PC_BASE) // 4, events)

    def instructions(self) -> Iterator[Instruction]:
        """The segment's :class:`Instruction` objects, for the paths that
        still need real objects (the GPU warp scheduler)."""
        return self.segment.instructions()

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompiledSegment {self.segment.label!r} x{self.length} "
            f"({len(self.events)} events)>"
        )


class SegmentCompileCache:
    """A bounded memo of segment → :class:`CompiledSegment`.

    Segments are frozen dataclasses, so equality-keyed sharing is safe: two
    design points replaying the same (possibly staged or scaled) trace get
    the same compilation. The cache is LRU-bounded because address-space
    staging rewrites segment base addresses, producing a fresh key per
    (kernel, space) pair.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("compile cache capacity must be positive")
        self.capacity = capacity
        self._store: "OrderedDict[Segment, CompiledSegment]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(self, segment: Segment) -> CompiledSegment:
        """The compiled form of ``segment`` (compiling on first sight)."""
        compiled = self._store.get(segment)
        if compiled is not None:
            self.hits += 1
            self._store.move_to_end(segment)
            return compiled
        self.misses += 1
        compiled = CompiledSegment.from_segment(segment)
        self._store[segment] = compiled
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.evictions += 1
        return compiled

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> "Dict[str, int | float]":
        lookups = self.hits + self.misses
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
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
