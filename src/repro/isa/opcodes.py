"""Opcode vocabulary shared by the CPU and GPU trace formats.

Traces are ISA-agnostic: the memory-model study only needs to distinguish
computation, memory operations, control flow, and the special
programming-model instructions — the actual x86/PTX encoding is irrelevant
(see DESIGN.md §2).
"""

from __future__ import annotations

import enum

__all__ = ["OpClass", "Opcode", "OPCODE_TO_CODE", "CODE_TO_OPCODE"]


class OpClass(enum.Enum):
    """Coarse instruction classes used by timing models and statistics."""

    COMPUTE = "compute"
    MEMORY = "memory"
    CONTROL = "control"
    SPECIAL = "special"


class Opcode(enum.Enum):
    """Trace opcodes.

    SIMD variants exist for the GPU: one SIMD instruction does
    ``simd_width`` lanes of work but occupies a single trace record, as in
    lane-compressed GPU traces.
    """

    INT_ALU = "int-alu"
    FP_ALU = "fp-alu"
    SIMD_ALU = "simd-alu"
    LOAD = "load"
    STORE = "store"
    SIMD_LOAD = "simd-load"
    SIMD_STORE = "simd-store"
    BRANCH = "branch"
    NOP = "nop"
    FENCE = "fence"
    SPECIAL = "special"

    @property
    def op_class(self) -> OpClass:
        """The coarse class this opcode belongs to."""
        return _OP_CLASS[self]

    @property
    def is_memory(self) -> bool:
        return self.op_class is OpClass.MEMORY

    @property
    def is_load(self) -> bool:
        return self in (Opcode.LOAD, Opcode.SIMD_LOAD)

    @property
    def is_store(self) -> bool:
        return self in (Opcode.STORE, Opcode.SIMD_STORE)

    @property
    def is_simd(self) -> bool:
        return self in (Opcode.SIMD_ALU, Opcode.SIMD_LOAD, Opcode.SIMD_STORE)


#: Stable compact integer codes: :meth:`repro.trace.phase.Segment.raw_ops`
#: yields them instead of enum members, and the compiled-trace hot path
#: (:mod:`repro.perf.compiled`) encodes events from them. Codes index
#: :data:`CODE_TO_OPCODE`.
CODE_TO_OPCODE = tuple(Opcode)
OPCODE_TO_CODE = {opcode: code for code, opcode in enumerate(CODE_TO_OPCODE)}


_OP_CLASS = {
    Opcode.INT_ALU: OpClass.COMPUTE,
    Opcode.FP_ALU: OpClass.COMPUTE,
    Opcode.SIMD_ALU: OpClass.COMPUTE,
    Opcode.LOAD: OpClass.MEMORY,
    Opcode.STORE: OpClass.MEMORY,
    Opcode.SIMD_LOAD: OpClass.MEMORY,
    Opcode.SIMD_STORE: OpClass.MEMORY,
    Opcode.BRANCH: OpClass.CONTROL,
    Opcode.NOP: OpClass.COMPUTE,
    Opcode.FENCE: OpClass.CONTROL,
    Opcode.SPECIAL: OpClass.SPECIAL,
}
