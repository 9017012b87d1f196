"""Parameter sweeps beyond the paper's fixed settings (ablations A and D).

The paper fixes Table IV's latencies and splits work evenly (§IV-B,
citing Qilin [25] for smarter partitioning). These sweeps vary exactly
those assumptions:

- :func:`sweep_pci_bandwidth` — communication overhead vs link rate
  (PCI-E generations);
- :func:`sweep_api_latency` — sensitivity to each Table IV parameter;
- :func:`sweep_partition` — CPU/GPU work split from 0 to 1;
- :func:`sweep_fault_granularity` — LRB's page-fault accounting
  (per-object vs per-page runtimes).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.config.comm import CommParams
from repro.config.presets import case_study
from repro.config.system import SystemConfig
from repro.comm.aperture import ApertureChannel
from repro.errors import DesignSpaceError
from repro.exec.job import SimJob
from repro.exec.runner import ParallelRunner
from repro.kernels.base import Kernel
from repro.perf.sweep import SweepPoint
from repro.sim.fast import FastSimulator
from repro.sim.results import SimulationResult
from repro.trace.phase import ParallelPhase, SequentialPhase
from repro.trace.stream import KernelTrace
from repro.units import Bandwidth

__all__ = [
    "repartition",
    "sweep_pci_bandwidth",
    "sweep_api_latency",
    "sweep_partition",
    "sweep_fault_granularity",
    "aperture_requirements",
    "sweep_aperture_size",
    "find_lrb_crossover_bytes",
]


def repartition(trace: KernelTrace, cpu_fraction: float) -> KernelTrace:
    """Re-split every parallel phase's work at ``cpu_fraction`` to the CPU.

    The paper splits evenly (0.5); Qilin-style adaptive mapping would pick
    the ratio that minimizes the max of the two sides.
    """
    if not 0.0 < cpu_fraction < 1.0:
        raise DesignSpaceError(
            f"cpu_fraction must be in (0, 1), got {cpu_fraction}"
        )
    phases = []
    for phase in trace.phases:
        if not isinstance(phase, ParallelPhase):
            phases.append(phase)
            continue
        cpu_total = phase.cpu.mix.total
        gpu_total = phase.gpu.mix.total
        total = cpu_total + gpu_total
        if total == 0:
            raise DesignSpaceError(
                f"{trace.name}: parallel phase {phase.label!r} has no work "
                "on either PU; nothing to repartition"
            )
        if cpu_total == 0 or gpu_total == 0:
            # An empty side has no mix to scale up, so its share cannot be
            # re-assigned; the busy side keeps all the work (conserving the
            # phase's total instructions) instead of silently dropping the
            # share that would have moved.
            phases.append(phase)
            continue
        cpu_target = total * cpu_fraction
        gpu_target = total - cpu_target
        phases.append(
            ParallelPhase(
                label=phase.label,
                cpu=phase.cpu.scaled(cpu_target / cpu_total),
                gpu=phase.gpu.scaled(gpu_target / gpu_total),
            )
        )
    return KernelTrace(name=trace.name, phases=tuple(phases))


def sweep_pci_bandwidth(
    kernel: Kernel,
    gb_per_s_values: Sequence[float],
    system: Optional[SystemConfig] = None,
    jobs: int = 1,
) -> Dict[float, SimulationResult]:
    """CPU+GPU (disjoint over PCI-E) at several link rates."""
    trace = kernel.trace()
    sim_jobs = [
        SimJob(
            trace=trace,
            case=case_study("CPU+GPU"),
            system=system,
            comm_params=CommParams(pci_bandwidth=Bandwidth.from_gb_per_s(rate)),
        )
        for rate in gb_per_s_values
    ]
    results = ParallelRunner(jobs=jobs).run_jobs(sim_jobs, stage="pci-bandwidth")
    return dict(zip(gb_per_s_values, results))


def sweep_api_latency(
    kernel: Kernel,
    parameter: str,
    values: Sequence[int],
    system: Optional[SystemConfig] = None,
    jobs: int = 1,
) -> Dict[int, SimulationResult]:
    """LRB with one Table IV parameter varied.

    ``parameter`` is one of ``api_pci_base_cycles``, ``api_acq_cycles``,
    ``api_tr_cycles``, ``lib_pf_cycles``.
    """
    valid = ("api_pci_base_cycles", "api_acq_cycles", "api_tr_cycles", "lib_pf_cycles")
    if parameter not in valid:
        raise DesignSpaceError(f"unknown Table IV parameter {parameter!r}; use one of {valid}")
    trace = kernel.trace()
    sim_jobs = [
        SimJob(
            trace=trace,
            case=case_study("LRB"),
            system=system,
            comm_params=replace(CommParams(), **{parameter: value}),
        )
        for value in values
    ]
    results = ParallelRunner(jobs=jobs).run_jobs(sim_jobs, stage="api-latency")
    return dict(zip(values, results))


def sweep_partition(
    kernel: Kernel,
    cpu_fractions: Sequence[float],
    case_name: str = "IDEAL-HETERO",
    system: Optional[SystemConfig] = None,
    jobs: int = 1,
) -> Dict[float, SimulationResult]:
    """Execution time vs CPU share of the parallel work."""
    base = kernel.trace()
    sim_jobs = [
        SimJob(
            trace=repartition(base, fraction),
            case=case_study(case_name),
            system=system,
        )
        for fraction in cpu_fractions
    ]
    results = ParallelRunner(jobs=jobs).run_jobs(sim_jobs, stage="partition")
    return dict(zip(cpu_fractions, results))


def find_lrb_crossover_bytes(
    kernel: Kernel,
    system: Optional[SystemConfig] = None,
    lo: int = 256,
    hi: int = 64 * 1024 * 1024,
    tolerance_bytes: int = 1024,
) -> int:
    """The transfer size at which LRB's communication beats CPU+GPU's.

    The two mechanisms scale differently: the PCI-E memcpy path pays
    ``33250 + bytes/16 GB/s`` per transfer, while LRB's aperture pays
    per-object/fault costs that are *size-independent* (data in the shared
    window never copies back). Below the crossover the simple memcpy wins;
    above it, the shared window wins — one of the "where crossovers fall"
    questions the figure shapes imply. Bisects on the kernel's problem
    size; returns the initial-transfer byte count at the tie.
    """
    if tolerance_bytes < 1:
        raise DesignSpaceError("tolerance must be >= 1 byte")
    system = system or SystemConfig()
    sim = FastSimulator(system)
    lrb_point = SweepPoint(case=case_study("LRB"))
    pcie_point = SweepPoint(case=case_study("CPU+GPU"))

    def comm_gap(num_bytes: int) -> float:
        """LRB comm seconds minus CPU+GPU comm seconds at this size."""
        elements = max(num_bytes // 4, 2)
        trace = kernel.build(kernel.for_size(elements))
        lrb = sim.run(trace, lrb_point).breakdown.communication
        pcie = sim.run(trace, pcie_point).breakdown.communication
        return lrb - pcie

    if comm_gap(lo) < 0:
        return lo  # LRB already wins at the smallest size
    if comm_gap(hi) > 0:
        raise DesignSpaceError(
            f"{kernel.name}: no crossover up to {hi} bytes (LRB never wins)"
        )
    while hi - lo > tolerance_bytes:
        mid = (lo + hi) // 2
        if comm_gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) // 2


def aperture_requirements() -> Dict[str, int]:
    """Shared-window bytes each kernel needs under the LRB model.

    §II-A3 notes the PCI aperture "is intended to support only small
    portions of memory space"; this quantifies the pressure: the sum of
    every shared buffer the kernel's program spec allocates in the window.
    """
    from repro.progmodel.spec import all_program_specs

    return {
        spec.name: sum(buffer.size for buffer in spec.buffers)
        for spec in all_program_specs()
    }


def sweep_aperture_size(sizes_bytes: Sequence[int]) -> Dict[int, List[str]]:
    """Which kernels fit per aperture size: {size: [fitting kernel names]}.

    A kernel "fits" when all its shared buffers can live in the window at
    once (the LRB programming model keeps them resident for the kernel's
    lifetime).
    """
    requirements = aperture_requirements()
    result: Dict[int, List[str]] = {}
    for size in sizes_bytes:
        if size <= 0:
            raise DesignSpaceError(f"aperture size must be positive, got {size}")
        result[size] = [name for name, need in requirements.items() if need <= size]
    return result


def sweep_fault_granularity(
    kernel: Kernel,
    system: Optional[SystemConfig] = None,
    jobs: int = 1,
) -> Dict[str, SimulationResult]:
    """LRB with per-object vs per-page first-touch faulting.

    The custom-granularity aperture channel is passed as an explicit
    channel object, so these jobs bypass the result memo (and fall back to
    in-process execution if the channel ever stops pickling).
    """
    system = system or SystemConfig()
    trace = kernel.trace()
    granularities = ("object", "page")
    sim_jobs = [
        SimJob(
            trace=trace,
            channel=ApertureChannel(
                CommParams(),
                page_bytes=system.page_bytes_cpu,
                fault_granularity=granularity,
            ),
            system=system,
            system_name=f"LRB[{granularity}]",
        )
        for granularity in granularities
    ]
    results = ParallelRunner(jobs=jobs).run_jobs(sim_jobs, stage="fault-granularity")
    return dict(zip(granularities, results))
