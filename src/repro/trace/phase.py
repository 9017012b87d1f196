"""Phases and segments: the structural units of a kernel trace.

Table III's "compute pattern" column describes each kernel as a sequence of
parallel, merge (communication), and sequential phases. We model exactly
that: a :class:`KernelTrace` (see :mod:`repro.trace.stream`) is an ordered
list of phases, where a parallel phase holds one segment per PU (the paper
splits the computational work evenly, §IV-B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.errors import TraceError
from repro.isa.opcodes import CODE_TO_OPCODE, OPCODE_TO_CODE, Opcode
from repro.taxonomy import ProcessingUnit
from repro.trace.instruction import Instruction
from repro.trace.mix import InstructionMix

__all__ = [
    "Direction",
    "Segment",
    "Phase",
    "SequentialPhase",
    "ParallelPhase",
    "CommPhase",
]


class Direction(enum.Enum):
    """Transfer direction between host (CPU) and device (GPU) memory."""

    H2D = "host-to-device"
    D2H = "device-to-host"

    @property
    def source(self) -> ProcessingUnit:
        return ProcessingUnit.CPU if self is Direction.H2D else ProcessingUnit.GPU

    @property
    def destination(self) -> ProcessingUnit:
        return self.source.other

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Segment:
    """A run of instructions on one PU with a known mix and footprint.

    ``base_addr``/``footprint_bytes`` describe the virtual-address region the
    segment's memory operations touch; the detailed simulator expands the
    mix into a deterministic instruction stream striding through that region
    (see :meth:`instructions`). ``elem_bytes`` is the access granularity.
    """

    pu: ProcessingUnit
    mix: InstructionMix
    base_addr: int = 0
    footprint_bytes: int = 0
    elem_bytes: int = 4
    label: str = ""

    def __post_init__(self) -> None:
        if self.footprint_bytes < 0:
            raise TraceError("footprint must be non-negative")
        if self.elem_bytes <= 0:
            raise TraceError("element size must be positive")
        if self.mix.memory_ops > 0 and self.footprint_bytes < self.elem_bytes:
            raise TraceError(
                f"segment {self.label!r} has memory ops but footprint "
                f"{self.footprint_bytes} < element size {self.elem_bytes}"
            )
        if self.base_addr < 0:
            raise TraceError("base address must be non-negative")

    def raw_ops(self) -> "Iterator[tuple[int, int, int, bool]]":
        """Expand the mix into compact ``(code, addr, size, taken)`` tuples.

        This is the single source of truth for the deterministic expansion:
        :meth:`instructions` decodes these records into
        :class:`~repro.trace.instruction.Instruction` objects and the
        compiled hot path (:mod:`repro.perf.compiled`) encodes them into
        batched event records without ever materializing objects.

        ``code`` indexes :data:`repro.isa.opcodes.CODE_TO_OPCODE`; ``addr``
        is ``-1`` for non-memory records.

        Memory operations stride sequentially through the footprint (the
        kernels studied are streaming workloads), wrapping on overflow;
        compute and branch instructions are interleaved evenly between
        memory operations so the detailed core models see a realistic
        dependency-free schedule. SIMD memory operations access
        ``elem_bytes`` per lane-compressed record.
        """
        mix = self.mix
        simd = self.pu is ProcessingUnit.GPU
        total_mem = mix.memory_ops
        total_other = mix.compute_ops + mix.branches
        # Emission plan: spread `other` instructions between memory ops.
        per_slot = total_other // (total_mem + 1) if total_mem else total_other
        remainder = total_other - per_slot * total_mem if total_mem else 0

        int_alu_code = OPCODE_TO_CODE[Opcode.INT_ALU]
        fp_alu_code = OPCODE_TO_CODE[Opcode.FP_ALU]
        simd_alu_code = OPCODE_TO_CODE[Opcode.SIMD_ALU]
        branch_code = OPCODE_TO_CODE[Opcode.BRANCH]
        load_code = OPCODE_TO_CODE[
            Opcode.SIMD_LOAD if simd and mix.simd_loads > 0 else Opcode.LOAD
        ]
        store_code = OPCODE_TO_CODE[
            Opcode.SIMD_STORE if simd and mix.simd_stores > 0 else Opcode.STORE
        ]

        counters = {
            "int_alu": mix.int_alu,
            "fp_alu": mix.fp_alu,
            "simd_alu": mix.simd_alu,
            "branches": mix.branches,
        }
        branch_seq = [0]

        def emit_other(count: int) -> "Iterator[tuple[int, int, int, bool]]":
            emitted = 0
            while emitted < count:
                if counters["simd_alu"] > 0:
                    counters["simd_alu"] -= 1
                    yield (simd_alu_code, -1, 0, False)
                elif counters["fp_alu"] > 0:
                    counters["fp_alu"] -= 1
                    yield (fp_alu_code, -1, 0, False)
                elif counters["int_alu"] > 0:
                    counters["int_alu"] -= 1
                    yield (int_alu_code, -1, 0, False)
                elif counters["branches"] > 0:
                    counters["branches"] -= 1
                    # Loop-shaped control flow: backward branches taken,
                    # with an exit (not-taken) every 16th iteration — a
                    # pattern gshare can learn but not trivially.
                    branch_seq[0] += 1
                    yield (branch_code, -1, 0, branch_seq[0] % 16 != 0)
                else:
                    break
                emitted += 1

        # Memory-op schedule: loads first interleaved with stores 2:1 when
        # both present, addresses striding through the footprint.
        loads_left = mix.load_ops
        stores_left = mix.store_ops
        offset = 0
        span = max(self.footprint_bytes, self.elem_bytes)
        base_addr = self.base_addr
        elem_bytes = self.elem_bytes

        emitted_mem = 0
        while loads_left or stores_left:
            yield from emit_other(per_slot + (1 if emitted_mem < remainder else 0))
            do_load = loads_left and (not stores_left or loads_left >= 2 * stores_left or emitted_mem % 3 != 2)
            addr = base_addr + (offset % span)
            offset += elem_bytes
            if do_load:
                loads_left -= 1
                yield (load_code, addr, elem_bytes, False)
            else:
                stores_left -= 1
                yield (store_code, addr, elem_bytes, False)
            emitted_mem += 1
        # Trailing non-memory instructions.
        yield from emit_other(sum(counters.values()))

    def instructions(self) -> Iterator[Instruction]:
        """Expand the mix into a deterministic instruction stream.

        Decodes :meth:`raw_ops` into :class:`Instruction` objects; see
        there for the emission schedule.
        """
        opcodes = CODE_TO_OPCODE
        for code, addr, size, taken in self.raw_ops():
            if addr >= 0:
                yield Instruction(opcodes[code], addr=addr, size=size)
            else:
                yield Instruction(opcodes[code], taken=taken)

    def scaled(self, factor: float) -> "Segment":
        """A segment with its mix scaled (footprint kept)."""
        return Segment(
            pu=self.pu,
            mix=self.mix.scaled(factor),
            base_addr=self.base_addr,
            footprint_bytes=self.footprint_bytes,
            elem_bytes=self.elem_bytes,
            label=self.label,
        )


@dataclass(frozen=True)
class Phase:
    """Base class for trace phases; use one of the concrete subclasses."""

    label: str = ""


@dataclass(frozen=True)
class SequentialPhase(Phase):
    """Serial code: runs on the CPU while the GPU idles."""

    segment: Segment = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.segment is None:
            raise TraceError("sequential phase requires a segment")
        if self.segment.pu is not ProcessingUnit.CPU:
            raise TraceError("sequential phases run on the CPU")


@dataclass(frozen=True)
class ParallelPhase(Phase):
    """CPU and GPU halves executing concurrently (even work split)."""

    cpu: Segment = None  # type: ignore[assignment]
    gpu: Segment = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.cpu is None or self.gpu is None:
            raise TraceError("parallel phase requires both a CPU and a GPU segment")
        if self.cpu.pu is not ProcessingUnit.CPU:
            raise TraceError("cpu segment must target the CPU")
        if self.gpu.pu is not ProcessingUnit.GPU:
            raise TraceError("gpu segment must target the GPU")


@dataclass(frozen=True)
class CommPhase(Phase):
    """A data transfer between PUs.

    ``num_objects`` is the number of logical buffers moved (it determines
    how many acquire/transfer API calls a partially shared space issues);
    ``first_touch`` marks transfers whose target pages have never been
    mapped in the shared window (they page-fault under LRB).
    """

    direction: Direction = Direction.H2D
    num_bytes: int = 0
    num_objects: int = 1
    first_touch: bool = False

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise TraceError("transfer size must be non-negative")
        if self.num_objects < 1:
            raise TraceError("a communication moves at least one object")
