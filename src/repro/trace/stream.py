"""Kernel traces: the top-level unit the simulators consume."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import TraceError
from repro.trace.phase import CommPhase, ParallelPhase, Phase, SequentialPhase

__all__ = ["KernelTrace"]


@dataclass(frozen=True)
class KernelTrace:
    """An ordered sequence of phases for one kernel execution.

    Invariants enforced by :meth:`validate` (called on construction):

    - at least one phase;
    - every phase is one of the three concrete phase types;
    - the trace contains at least one communication if it contains any
      parallel phase (data starts on the CPU, §IV-B, so the GPU's input
      must be transferred and its output returned).
    """

    name: str
    phases: Tuple[Phase, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        self.validate()

    def validate(self) -> None:
        """Check structural invariants; raise :class:`TraceError` if broken."""
        if not self.name:
            raise TraceError("kernel trace requires a name")
        if not self.phases:
            raise TraceError(f"{self.name}: trace has no phases")
        for phase in self.phases:
            if not isinstance(phase, (SequentialPhase, ParallelPhase, CommPhase)):
                raise TraceError(
                    f"{self.name}: unknown phase type {type(phase).__name__}"
                )
        if self.parallel_phases and not self.comm_phases:
            raise TraceError(
                f"{self.name}: parallel phases require at least one communication"
            )

    @property
    def sequential_phases(self) -> List[SequentialPhase]:
        return [p for p in self.phases if isinstance(p, SequentialPhase)]

    @property
    def parallel_phases(self) -> List[ParallelPhase]:
        return [p for p in self.phases if isinstance(p, ParallelPhase)]

    @property
    def comm_phases(self) -> List[CommPhase]:
        return [p for p in self.phases if isinstance(p, CommPhase)]

    @property
    def cpu_instructions(self) -> int:
        """Dynamic instructions executed by the CPU in parallel phases
        (the paper's Table III "CPU" column)."""
        return sum(p.cpu.mix.total for p in self.parallel_phases)

    @property
    def gpu_instructions(self) -> int:
        """Dynamic instructions executed by the GPU (Table III "GPU")."""
        return sum(p.gpu.mix.total for p in self.parallel_phases)

    @property
    def serial_instructions(self) -> int:
        """Dynamic instructions in sequential phases (Table III "serial")."""
        return sum(p.segment.mix.total for p in self.sequential_phases)

    @property
    def num_communications(self) -> int:
        """Number of communication phases (Table III "# of communications")."""
        return len(self.comm_phases)

    @property
    def initial_transfer_bytes(self) -> int:
        """Size of the first transfer (Table III "initial transfer data size")."""
        comms = self.comm_phases
        return comms[0].num_bytes if comms else 0

    @property
    def total_transfer_bytes(self) -> int:
        """Bytes moved across all communication phases."""
        return sum(p.num_bytes for p in self.comm_phases)

    def __hash__(self) -> int:
        """The field-tuple hash, computed once per instance: a trace keys
        every result memo entry of its kernel."""
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = hash((self.name, self.phases))
        return value

    def __getstate__(self) -> Dict[str, object]:
        """The fields only: the stored hash and any memo a simulator keeps
        on the instance never reach a pickle or a store key."""
        return {"name": self.name, "phases": self.phases}

    def iter_phases(self) -> Iterator[Phase]:
        return iter(self.phases)

    def scaled(self, factor: float) -> "KernelTrace":
        """Scale compute phases by ``factor`` (communication kept intact).

        Used to shrink traces for the detailed cycle-approximate simulator;
        communication sizes are preserved because the paper's transfer
        sizes, not instruction counts, drive communication cost.
        """
        if factor <= 0:
            raise TraceError(f"scale factor must be positive, got {factor}")
        scaled_phases: List[Phase] = []
        for phase in self.phases:
            if isinstance(phase, SequentialPhase):
                scaled_phases.append(
                    SequentialPhase(label=phase.label, segment=phase.segment.scaled(factor))
                )
            elif isinstance(phase, ParallelPhase):
                scaled_phases.append(
                    ParallelPhase(
                        label=phase.label,
                        cpu=phase.cpu.scaled(factor),
                        gpu=phase.gpu.scaled(factor),
                    )
                )
            else:
                scaled_phases.append(phase)
        return KernelTrace(name=self.name, phases=tuple(scaled_phases))
