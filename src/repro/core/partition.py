"""Adaptive work partitioning (Qilin-style, the paper's reference [25]).

§IV-B: "Ideally, we like to divide the work between CPUs and GPUs
intelligently so that the total execution time can be minimized. Since
determining how to partition the work is beyond the scope of our work
([25], [11] present sophisticated algorithms ...), we simply divide the
computational work evenly." This module supplies that missing piece: a
makespan-minimizing partitioner over the analytic core models.

Two strategies:

- :func:`rate_based_split` — Qilin's closed form: profile each PU's
  throughput on the kernel, split proportionally to the rates;
- :func:`optimal_split` — golden-section search over the simulated
  makespan (handles non-linear effects such as cache-capacity cliffs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.config.presets import CaseStudy, case_study
from repro.config.system import SystemConfig
from repro.core.sweeps import repartition
from repro.errors import DesignSpaceError
from repro.kernels.base import Kernel
from repro.perf.sweep import SweepPoint
from repro.sim.analytic import AnalyticTiming
from repro.sim.fast import FastSimulator
from repro.trace.stream import KernelTrace

__all__ = ["PartitionResult", "rate_based_split", "optimal_split"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of a partitioning decision."""

    cpu_fraction: float
    total_seconds: float
    even_split_seconds: float

    @property
    def speedup_over_even(self) -> float:
        return self.even_split_seconds / self.total_seconds

    def __post_init__(self) -> None:
        if not 0.0 < self.cpu_fraction < 1.0:
            raise DesignSpaceError("cpu_fraction must be in (0, 1)")


def rate_based_split(
    kernel: Kernel,
    system: Optional[SystemConfig] = None,
) -> float:
    """Qilin's closed-form split: profile per-PU throughput on the kernel's
    parallel phases, then give each PU work proportional to its rate."""
    system = system or SystemConfig()
    timing = AnalyticTiming(system)
    trace = kernel.trace()
    cpu_time = sum(timing.cpu_segment_seconds(p.cpu) for p in trace.parallel_phases)
    gpu_time = sum(timing.gpu_segment_seconds(p.gpu) for p in trace.parallel_phases)
    cpu_work = sum(p.cpu.mix.total for p in trace.parallel_phases)
    gpu_work = sum(p.gpu.mix.total for p in trace.parallel_phases)
    if cpu_time <= 0 or gpu_time <= 0:
        raise DesignSpaceError(f"{kernel.name}: cannot profile an empty parallel phase")
    cpu_rate = cpu_work / cpu_time
    gpu_rate = gpu_work / gpu_time
    return cpu_rate / (cpu_rate + gpu_rate)


def optimal_split(
    kernel: Kernel,
    case_name: str = "IDEAL-HETERO",
    system: Optional[SystemConfig] = None,
    tolerance: float = 0.005,
) -> PartitionResult:
    """Golden-section search for the makespan-minimizing CPU fraction."""
    if not 0 < tolerance < 0.5:
        raise DesignSpaceError("tolerance must be in (0, 0.5)")
    system = system or SystemConfig()
    sim = FastSimulator(system)
    point = SweepPoint(case=case_study(case_name))
    base = kernel.trace()

    def makespan(fraction: float) -> float:
        return sim.run(repartition(base, fraction), point).total_seconds

    lo, hi = 0.01, 0.99
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = makespan(x1), makespan(x2)
    while hi - lo > tolerance:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = makespan(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = makespan(x2)
    best = (lo + hi) / 2.0
    return PartitionResult(
        cpu_fraction=best,
        total_seconds=makespan(best),
        even_split_seconds=sim.run(base, point).total_seconds,
    )
