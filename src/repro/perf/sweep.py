"""The design-point axis of the compiled hot path.

Ranking and figure sweeps replay the same six kernel traces across dozens
of design points; until this module the :class:`~repro.sim.detailed.DetailedSimulator`
consumed each point one at a time, re-decoding the same
:class:`~repro.perf.compiled.CompiledSegment` event stream per point. Here
the points become an *axis*:

- :class:`SweepPoint` — one design point's simulation parameters (the
  pure-data subset of a :class:`~repro.exec.job.SimJob`);
- :class:`BatchedDesignPoints` — a batch of points with their
  latency/bandwidth/capacity/issue-width parameters stacked into parallel
  numpy arrays, the timing-equivalence dedup (points differing only in
  display label share one simulation, mirroring
  :class:`~repro.exec.cache.ResultCache` relabel-on-hit), and the
  execution grouping (points that can share one phase walk);
- :class:`SweepSimulator` — evaluates one trace against every point of a
  batch: per execution group the phase walk runs *once*, driving the
  batched core loops (:func:`repro.sim.cpu.core.run_compiled_batch`,
  :func:`repro.sim.gpu.core.run_compiled_batch`) so each event record is
  decoded once for N per-point machines.

Bit-identity contract: for every point, the returned
:class:`~repro.sim.results.SimulationResult` equals what
``DetailedSimulator(compiled=True).run`` produces for that point alone —
``tests/perf/test_sweep.py`` pins this for all six kernels across the five
case-study systems and for rank-style mechanism/space points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.addrspace.base import AddressSpace, make_address_space
from repro.config.comm import CommParams
from repro.config.presets import CaseStudy
from repro.config.system import SystemConfig
from repro.comm.base import make_channel
from repro.errors import SimulationError
from repro.mem.cache.replacement import ReplacementPolicy
from repro.mem.coherence.api import resolve_protocol_kind
from repro.perf.compiled import SHARED_COMPILE_CACHE, SegmentCompileCache
from repro.sim.cpu.core import run_compiled_batch as cpu_run_compiled_batch
from repro.sim.engine import run_parallel_interleaved
from repro.sim.gpu.core import run_compiled_batch as gpu_run_compiled_batch
from repro.sim.mmu import TranslationFront, stage_trace
from repro.sim.results import PhaseTiming, SimulationResult, TimeBreakdown
from repro.sim.system import build_machine
from repro.taxonomy import (
    AddressSpaceKind,
    CoherenceKind,
    CommMechanism,
    ProcessingUnit,
)
from repro.trace.phase import CommPhase, Direction, ParallelPhase, SequentialPhase
from repro.trace.stream import KernelTrace

__all__ = [
    "SweepPoint",
    "BatchedDesignPoints",
    "SweepSimulator",
    "run_design_sweep",
]


@dataclass(frozen=True)
class SweepPoint:
    """One design point of a batched sweep (pure data, picklable).

    Exactly one of ``case``/``mechanism`` selects the communication
    mechanism, mirroring :class:`~repro.exec.job.SimJob`. ``system`` and
    ``comm_params`` override the simulator's machine parameters for this
    point only (``None`` inherits them); ``system_name`` is the display
    label and never affects timing.
    """

    case: Optional[CaseStudy] = None
    mechanism: Optional[CommMechanism] = None
    async_overlap: bool = False
    address_space: Optional[AddressSpaceKind] = None
    system_name: Optional[str] = None
    system: Optional[SystemConfig] = None
    comm_params: Optional[CommParams] = None
    #: Coherence-protocol override (``"none" | "snoop" | "directory"`` or a
    #: :class:`~repro.taxonomy.CoherenceKind`); ``None`` derives from the
    #: case study, matching :meth:`repro.sim.detailed.DetailedSimulator.run`.
    coherence: "str | CoherenceKind | None" = None

    def __post_init__(self) -> None:
        selectors = sum(x is not None for x in (self.case, self.mechanism))
        if selectors != 1:
            raise SimulationError(
                f"a SweepPoint needs exactly one of case/mechanism, got {selectors}"
            )

    @property
    def hardware_coherence(self) -> bool:
        return bool(
            self.case and self.case.coherence is CoherenceKind.HARDWARE_DIRECTORY
        )

    @property
    def protocol_kind(self) -> str:
        """The protocol variant this point's machine is built with."""
        if self.coherence is not None:
            return resolve_protocol_kind(self.coherence)
        if self.case is not None:
            return self.case.coherence.protocol
        return "none"

    def timing_key(self) -> Tuple:
        """Everything that can affect this point's timing — the dedup key.

        Excludes ``system_name``, exactly like
        :meth:`repro.exec.job.SimJob.cache_key`: two points equal up to the
        label share one simulation and the result is re-labeled on scatter.
        The coherence override enters as its *resolved* protocol kind, so
        spelling the case's own kind explicitly still dedups.
        """
        return (
            self.case,
            self.mechanism,
            self.async_overlap,
            self.address_space,
            self.system,
            self.comm_params,
            self.protocol_kind,
        )

    def label(self) -> str:
        """The result's ``system`` field, matching ``DetailedSimulator.run``."""
        if self.system_name:
            return self.system_name
        if self.case is not None:
            return self.case.name
        return str(self.mechanism)


class BatchedDesignPoints:
    """A batch of :class:`SweepPoint`\\ s prepared for one-pass evaluation.

    Stacks each point's machine parameters into parallel numpy arrays
    (``issue_widths``, ``cpu_hertz``, ``gpu_hertz``, ``l1d_latencies``,
    ``l1d_capacities``, ``l3_capacities``, ``pci_bandwidths`` — one entry
    per point), computes the timing-equivalence partition
    (:attr:`distinct` representatives plus the :attr:`inverse` map), and
    groups the representatives into execution groups that can share a
    single phase walk: equal machine parameters, equal address-space
    staging, equal coherence — so the per-point machines see identical
    event streams and only channels, clocks, and cache contents differ.
    """

    def __init__(
        self,
        points: Sequence[SweepPoint],
        system: Optional[SystemConfig] = None,
        comm_params: Optional[CommParams] = None,
    ) -> None:
        if not points:
            raise SimulationError("a batch needs at least one design point")
        self.points: Tuple[SweepPoint, ...] = tuple(points)
        self.default_system = system or SystemConfig()
        self.default_comm_params = comm_params or CommParams()

        systems = [p.system or self.default_system for p in self.points]
        params = [p.comm_params or self.default_comm_params for p in self.points]
        self.issue_widths = np.asarray(
            [s.cpu.issue_width for s in systems], dtype=np.int64
        )
        self.cpu_hertz = np.asarray(
            [s.cpu.frequency.hertz for s in systems], dtype=np.float64
        )
        self.gpu_hertz = np.asarray(
            [s.gpu.frequency.hertz for s in systems], dtype=np.float64
        )
        self.l1d_latencies = np.asarray(
            [s.cpu.l1d.latency for s in systems], dtype=np.int64
        )
        self.l1d_capacities = np.asarray(
            [s.cpu.l1d.size_bytes for s in systems], dtype=np.int64
        )
        self.l3_capacities = np.asarray(
            [s.l3.size_bytes for s in systems], dtype=np.int64
        )
        self.pci_bandwidths = np.asarray(
            [p.pci_bandwidth.bytes_per_second for p in params], dtype=np.float64
        )

        #: Indices (into ``points``) of the timing-distinct representatives,
        #: in first-appearance order; ``inverse[i]`` is the position in
        #: ``distinct`` that point ``i`` shares a simulation with.
        self.distinct: List[int] = []
        self.inverse: List[int] = []
        seen: Dict[Tuple, int] = {}
        for index, point in enumerate(self.points):
            key = point.timing_key()
            rep = seen.get(key)
            if rep is None:
                rep = len(self.distinct)
                seen[key] = rep
                self.distinct.append(index)
            self.inverse.append(rep)

    def __len__(self) -> int:
        return len(self.points)

    def resolved(self, point: SweepPoint) -> Tuple[SystemConfig, CommParams]:
        """The (system, comm params) this point actually simulates under."""
        return (
            point.system or self.default_system,
            point.comm_params or self.default_comm_params,
        )

    def groups(self) -> List[List[int]]:
        """Execution groups over the distinct representatives.

        Each group is a list of positions into :attr:`distinct`; its points
        share machine parameters, address-space kind, and coherence, so one
        phase walk (with batched core loops) evaluates them all. Points in
        different groups differ in the staged trace or the machine itself
        and walk separately.
        """
        grouped: Dict[Tuple, List[int]] = {}
        for position, index in enumerate(self.distinct):
            point = self.points[index]
            system, params = self.resolved(point)
            key = (system, point.address_space, point.protocol_kind)
            grouped.setdefault(key, []).append(position)
        return list(grouped.values())


class SweepSimulator:
    """Evaluates one trace against a batch of design points in shared passes.

    Construction knobs mirror :class:`~repro.sim.detailed.DetailedSimulator`
    (the per-point parity oracle); the compiled hot path is always on —
    batching *is* the compiled event encoding applied across a point axis.
    Interleaved parallel phases are inherently per-point (the engine steps
    the two cores of one machine in timestamp order), so they fall back to
    :func:`~repro.sim.engine.run_parallel_interleaved` per point while
    sequential and serial parallel phases run the batched core loops.
    """

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        comm_params: Optional[CommParams] = None,
        l3_policy: Optional[ReplacementPolicy] = None,
        interleave_parallel: bool = True,
        l1_prefetch: bool = False,
        gpu_mode: str = "heuristic",
        interleave_quantum: int = 1,
        compile_cache: Optional[SegmentCompileCache] = None,
    ) -> None:
        self.system = system or SystemConfig()
        self.comm_params = comm_params or CommParams()
        self.l3_policy = l3_policy
        self.interleave_parallel = interleave_parallel
        self.l1_prefetch = l1_prefetch
        self.gpu_mode = gpu_mode
        if interleave_quantum < 1:
            raise SimulationError(
                f"interleave quantum must be >= 1, got {interleave_quantum}"
            )
        self.interleave_quantum = interleave_quantum
        self.compile_cache = (
            compile_cache if compile_cache is not None else SHARED_COMPILE_CACHE
        )

    def run(
        self,
        trace: KernelTrace,
        points: "Sequence[SweepPoint] | BatchedDesignPoints",
        scale: float = 1.0,
    ) -> List[SimulationResult]:
        """Simulate ``trace`` for every point; results in point order.

        Each timing-distinct point is simulated exactly once; duplicates
        receive the shared result re-labeled to their own ``system_name``
        (determinism makes the shared result bit-identical to a dedicated
        run, the same argument :class:`~repro.exec.cache.ResultCache`
        relies on).
        """
        batch = (
            points
            if isinstance(points, BatchedDesignPoints)
            else BatchedDesignPoints(points, self.system, self.comm_params)
        )
        if scale != 1.0:
            trace = trace.scaled(scale)
        distinct_results: List[Optional[SimulationResult]] = [None] * len(
            batch.distinct
        )
        for group in batch.groups():
            self._run_group(trace, batch, group, distinct_results)
        results: List[SimulationResult] = []
        for index, point in enumerate(batch.points):
            result = distinct_results[batch.inverse[index]]
            assert result is not None
            name = point.label()
            if result.system != name:
                result = replace(result, system=name)
            results.append(result)
        return results

    def _run_group(
        self,
        trace: KernelTrace,
        batch: BatchedDesignPoints,
        group: Sequence[int],
        out: List[Optional[SimulationResult]],
    ) -> None:
        """One shared phase walk over the group's per-point machines.

        The walk is :meth:`repro.sim.detailed.DetailedSimulator.run` with
        every piece of per-run state turned into a per-point list; the
        order of operations per point is preserved exactly.
        """
        points = [batch.points[batch.distinct[g]] for g in group]
        n = len(points)
        system, _ = batch.resolved(points[0])
        cpu_freq = system.cpu.frequency
        gpu_freq = system.gpu.frequency
        space_kind = points[0].address_space
        protocol_kind = points[0].protocol_kind

        channels = []
        for point in points:
            _, params = batch.resolved(point)
            if point.case is not None:
                channels.append(
                    make_channel(
                        point.case.comm,
                        params=params,
                        system=system,
                        async_overlap=point.case.async_overlap,
                    )
                )
            else:
                channels.append(
                    make_channel(
                        point.mechanism,
                        params=params,
                        system=system,
                        async_overlap=point.async_overlap,
                    )
                )

        staged = trace
        spaces: Optional[List[AddressSpace]] = None
        if space_kind is not None:
            # Stage per point: staging allocates in the point's own page
            # tables (the MMUs translate against them), but the rebased
            # trace is deterministic, so every point stages identically and
            # the first staging is the shared event stream.
            spaces = [make_address_space(space_kind, system) for _ in range(n)]
            staged = stage_trace(trace, spaces[0])
            for space in spaces[1:]:
                stage_trace(trace, space)

        machines = [
            build_machine(
                system,
                l3_policy=self.l3_policy,
                coherence=protocol_kind,
                l1_prefetch=self.l1_prefetch,
                gpu_mode=self.gpu_mode,
            )
            for _ in range(n)
        ]
        mmus: Optional[List[Dict[ProcessingUnit, TranslationFront]]] = None
        if spaces is not None:
            mmus = []
            for machine, space in zip(machines, spaces):
                cpu_mmu = TranslationFront(
                    ProcessingUnit.CPU, space, machine.cpu_core.memory
                )
                gpu_mmu = TranslationFront(
                    ProcessingUnit.GPU, space, machine.gpu_core.memory
                )
                machine.cpu_core.memory = cpu_mmu
                machine.gpu_core.memory = gpu_mmu
                mmus.append(
                    {ProcessingUnit.CPU: cpu_mmu, ProcessingUnit.GPU: gpu_mmu}
                )

        cpu_cores = [machine.cpu_core for machine in machines]
        gpu_cores = [machine.gpu_core for machine in machines]
        compile_get = self.compile_cache.get

        sequential = [0.0] * n
        parallel = [0.0] * n
        communication = [0.0] * n
        now = [0.0] * n
        last_parallel_seconds = [0.0] * n
        pending_h2d: List[List[CommPhase]] = [[] for _ in range(n)]
        phase_timings: List[List[PhaseTiming]] = [[] for _ in range(n)]

        def resolve_pending(i: int, window: float) -> None:
            for comm in pending_h2d[i]:
                result = channels[i].transfer(comm, overlap_window=window)
                communication[i] += result.exposed
                now[i] += result.exposed
                phase_timings[i].append(
                    PhaseTiming(
                        label=comm.label,
                        kind="communication",
                        seconds=result.exposed,
                        overlapped_seconds=result.overlapped,
                    )
                )
            pending_h2d[i].clear()

        for phase in staged.phases:
            if isinstance(phase, SequentialPhase):
                compiled = compile_get(phase.segment)
                cycles = cpu_run_compiled_batch(cpu_cores, compiled, now)
                for i in range(n):
                    seconds = cpu_freq.cycles_to_seconds(cycles[i])
                    sequential[i] += seconds
                    now[i] += seconds
                    phase_timings[i].append(
                        PhaseTiming(
                            label=phase.label,
                            kind="sequential",
                            seconds=seconds,
                            cpu_seconds=seconds,
                        )
                    )
            elif isinstance(phase, ParallelPhase):
                if self.interleave_parallel:
                    cpu_compiled = compile_get(phase.cpu)
                    gpu_compiled = compile_get(phase.gpu)
                    cpu_seconds_list = [0.0] * n
                    gpu_seconds_list = [0.0] * n
                    for i in range(n):
                        outcome = run_parallel_interleaved(
                            cpu_cores[i],
                            gpu_cores[i],
                            cpu_compiled,
                            gpu_compiled,
                            start_seconds=now[i],
                            quantum=self.interleave_quantum,
                        )
                        cpu_seconds_list[i] = outcome.cpu_seconds
                        gpu_seconds_list[i] = outcome.gpu_seconds
                else:
                    cpu_cycles = cpu_run_compiled_batch(
                        cpu_cores, compile_get(phase.cpu), now
                    )
                    gpu_cycles = gpu_run_compiled_batch(
                        gpu_cores, compile_get(phase.gpu), now
                    )
                    cpu_seconds_list = [
                        cpu_freq.cycles_to_seconds(c) for c in cpu_cycles
                    ]
                    gpu_seconds_list = [
                        gpu_freq.cycles_to_seconds(c) for c in gpu_cycles
                    ]
                for i in range(n):
                    cpu_seconds = cpu_seconds_list[i]
                    gpu_seconds = gpu_seconds_list[i]
                    seconds = max(cpu_seconds, gpu_seconds)
                    resolve_pending(i, seconds)
                    parallel[i] += seconds
                    now[i] += seconds
                    last_parallel_seconds[i] = seconds
                    phase_timings[i].append(
                        PhaseTiming(
                            label=phase.label,
                            kind="parallel",
                            seconds=seconds,
                            cpu_seconds=cpu_seconds,
                            gpu_seconds=gpu_seconds,
                        )
                    )
            elif isinstance(phase, CommPhase):
                if phase.direction is Direction.H2D:
                    for i in range(n):
                        pending_h2d[i].append(phase)
                    continue
                for i in range(n):
                    result = channels[i].transfer(
                        phase, overlap_window=last_parallel_seconds[i]
                    )
                    communication[i] += result.exposed
                    now[i] += result.exposed
                    phase_timings[i].append(
                        PhaseTiming(
                            label=phase.label,
                            kind="communication",
                            seconds=result.exposed,
                            overlapped_seconds=result.overlapped,
                        )
                    )
            else:
                raise SimulationError(f"unknown phase type {type(phase).__name__}")
        for i in range(n):
            resolve_pending(i, 0.0)

        for i, (g, point) in enumerate(zip(group, points)):
            counters: Dict[str, float] = dict(channels[i].stats())
            for component, stats in machines[i].stats().items():
                for key, value in stats.items():
                    counters[f"{component}.{key}"] = value
            if mmus is not None:
                for pu, mmu in mmus[i].items():
                    for key, value in mmu.stats().items():
                        counters[f"mmu.{pu}.{key}"] = value
            out[g] = SimulationResult(
                kernel=staged.name,
                system=point.label(),
                breakdown=TimeBreakdown(
                    sequential=sequential[i],
                    parallel=parallel[i],
                    communication=communication[i],
                ),
                phases=tuple(phase_timings[i]),
                counters=counters,
            )


def run_design_sweep(
    trace: KernelTrace,
    points: Sequence[SweepPoint],
    system: Optional[SystemConfig] = None,
    comm_params: Optional[CommParams] = None,
    scale: float = 1.0,
    **kwargs,
) -> List[SimulationResult]:
    """Convenience wrapper: batch ``points`` and evaluate ``trace`` once.

    ``kwargs`` pass through to :class:`SweepSimulator`.
    """
    simulator = SweepSimulator(system=system, comm_params=comm_params, **kwargs)
    return simulator.run(trace, points, scale=scale)
