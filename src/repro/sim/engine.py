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
    """Merge two cycle steppers by wall-clock time.

    Each stepper yields its core's cumulative cycle count, non-decreasing,
    and its segment's final count last. Whenever a stepper resumes, it
    runs up to its next yield, and the side that is behind (ties go to the
    CPU) resumes next. So an instruction runs when the count its stepper
    last yielded is the smaller one: the merge is by that key, with ties
    to the CPU.

    Two step sizes use this one engine. The reference loops in
    :mod:`repro.sim.reference` yield after every instruction, so each
    instruction's key is the count after the one before it. The cores'
    ``step_compiled`` yields only just before each access that its PU
    cannot serve alone, with the same count as the key. The instructions
    in between touch only their own core: compute runs, branches,
    scratchpad hits, and private hits (L1 hits below the shared window,
    served by the probe of
    :meth:`~repro.mem.level.MemoryLevel.private_window`), which touch
    only that L1. The peer changes a PU's private caches only by invalidating
    shared-window lines, so a private hit gives the same state whether
    it runs before or after any peer access, and its position in the
    merge changes nothing. Both steppers therefore reach the shared
    hierarchy with the same accesses in the same order: production and
    the oracle match bit for bit (``tests/perf/test_parity.py``).
    """
    # Cycles over hertz: the float operation of Frequency.cycles_to_seconds.
    cpu_hertz = cpu_frequency.hertz
    gpu_hertz = gpu_frequency.hertz

    cpu_t = gpu_t = 0.0
    cpu_done = gpu_done = False
    while not (cpu_done and gpu_done):
        advance_cpu = not cpu_done and (gpu_done or cpu_t <= gpu_t)
        if advance_cpu:
            try:
                cpu_t = next(cpu_steps) / cpu_hertz
            except StopIteration:
                cpu_done = True
        else:
            try:
                gpu_t = next(gpu_steps) / gpu_hertz
            except StopIteration:
                gpu_done = True
    return ParallelOutcome(cpu_seconds=cpu_t, gpu_seconds=gpu_t)
