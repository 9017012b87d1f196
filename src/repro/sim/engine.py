"""The interleaving engine for contention-aware parallel phases.

Running the two cores back-to-back would let the CPU's entire phase hit
the shared L3 and DRAM before the GPU's first access — no contention, and
cache state polluted in the wrong order. The engine instead advances
whichever core is *behind in wall-clock time*, so concurrent requests
reach the shared hierarchy (ring, L3, FR-FCFS controllers) in timestamp
order, and the DRAM bus backlog each core sees includes the other core's
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.units import Frequency

__all__ = ["ParallelOutcome", "run_parallel_interleaved"]


@dataclass(frozen=True)
class ParallelOutcome:
    """Per-side wall-clock durations of one parallel phase."""

    cpu_seconds: float
    gpu_seconds: float

    @property
    def seconds(self) -> float:
        return max(self.cpu_seconds, self.gpu_seconds)


def run_parallel_interleaved(
    cpu_steps: Iterator[float],
    gpu_steps: Iterator[float],
    cpu_frequency: Frequency,
    gpu_frequency: Frequency,
) -> ParallelOutcome:
    """Merge two per-instruction cycle steppers by wall-clock time.

    Each stepper yields its core's cumulative cycle count after every
    instruction, the last yield being the segment's final count — the
    protocol of the cores' ``step_compiled`` and of the reference loops in
    :mod:`repro.sim.reference`, so production and the reference oracle
    share this engine. The side that is behind (ties go to the CPU)
    executes its next instruction, so every memory access reaches the
    shared hierarchy in timestamp order.
    """
    cpu_to_seconds = cpu_frequency.cycles_to_seconds
    gpu_to_seconds = gpu_frequency.cycles_to_seconds

    cpu_t = gpu_t = 0.0
    cpu_done = gpu_done = False
    while not (cpu_done and gpu_done):
        advance_cpu = not cpu_done and (gpu_done or cpu_t <= gpu_t)
        if advance_cpu:
            try:
                cpu_t = cpu_to_seconds(next(cpu_steps))
            except StopIteration:
                cpu_done = True
        else:
            try:
                gpu_t = gpu_to_seconds(next(gpu_steps))
            except StopIteration:
                gpu_done = True
    return ParallelOutcome(cpu_seconds=cpu_t, gpu_seconds=gpu_t)
