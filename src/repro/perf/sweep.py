"""The detailed machine's phase walk, and the design-point axis it runs on.

:func:`walk_phases` is the one production phase walk of the detailed
Table II machine. It drives N per-point machines through one trace in a
single pass: sequential and serial parallel phases run the batched core
loops (:func:`repro.sim.cpu.core.run_compiled_batch`,
:func:`repro.sim.gpu.core.run_compiled_batch`), which decode each compiled
event record once for all N machines; interleaved parallel phases step
each point's two cores in timestamp order through
:func:`~repro.sim.engine.run_parallel_interleaved`. A single-point run
(:meth:`repro.sim.detailed.DetailedSimulator.run`) is a walk with N=1.

The design-point axis on top of it:

- :class:`SweepPoint` — one design point's simulation parameters (the
  pure-data subset of a :class:`~repro.exec.job.SimJob`);
- :class:`BatchedDesignPoints` — a batch of points with the
  timing-equivalence dedup (points differing only in display label share
  one simulation, mirroring :class:`~repro.exec.cache.ResultCache`
  relabel-on-hit) and the execution grouping (points that can share one
  phase walk);
- :class:`SweepSimulator` — evaluates one trace against every point of a
  batch, one walk per execution group.

Bit-identity contract: for every point, the returned
:class:`~repro.sim.results.SimulationResult` equals what the reference
oracle (:class:`repro.sim.reference.ReferenceSimulator`, the
per-instruction generator expansion) produces for that point alone —
``tests/perf/test_parity.py`` and ``tests/perf/test_sweep.py`` pin this
for all six kernels across the five case-study systems and for rank-style
mechanism/space points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.addrspace.base import AddressSpace, make_address_space
from repro.config.comm import CommParams
from repro.config.presets import CaseStudy
from repro.config.system import SystemConfig
from repro.comm.base import CommChannel, make_channel
from repro.errors import SimulationError
from repro.mem.cache.replacement import ReplacementPolicy
from repro.mem.coherence.api import resolve_protocol_kind
from repro.perf.compiled import SHARED_COMPILE_CACHE, SegmentCompileCache
from repro.sim.cpu.core import run_compiled_batch as cpu_run_compiled_batch
from repro.sim.engine import run_parallel_interleaved
from repro.sim.gpu.core import run_compiled_batch as gpu_run_compiled_batch
from repro.sim.mmu import TranslationFront, stage_trace
from repro.sim.results import PhaseTiming, SimulationResult, TimeBreakdown
from repro.sim.system import Machine, build_machine
from repro.taxonomy import (
    AddressSpaceKind,
    CoherenceKind,
    CommMechanism,
    ProcessingUnit,
)
from repro.trace.phase import CommPhase, Direction, ParallelPhase, SequentialPhase
from repro.trace.stream import KernelTrace

__all__ = [
    "walk_phases",
    "install_translation",
    "merged_counters",
    "SweepPoint",
    "BatchedDesignPoints",
    "SweepSimulator",
]

#: Per-point MMU fronts of a machine with address translation installed.
Mmus = Dict[ProcessingUnit, TranslationFront]


def walk_phases(
    trace: KernelTrace,
    machines: Sequence[Machine],
    channels: Sequence[CommChannel],
    compile_cache: SegmentCompileCache,
    interleave_parallel: bool = True,
) -> List[Tuple[TimeBreakdown, Tuple[PhaseTiming, ...]]]:
    """Walk ``trace``'s phases once over N per-point machines.

    ``machines[i]`` (MMU fronts already installed, if any) and
    ``channels[i]`` belong to point ``i``; every machine sees the same
    event stream, so only clocks, cache contents and channels differ per
    point. Returns each point's ``(breakdown, phase timings)``, in order.

    H2D copies are deferred: an asynchronous channel overlaps them with the
    parallel phase that *follows* the copy. Every other transfer overlaps
    with the parallel phase before it.
    """
    n = len(machines)
    cpu_cores = [machine.cpu_core for machine in machines]
    gpu_cores = [machine.gpu_core for machine in machines]
    cpu_freqs = [core.config.frequency for core in cpu_cores]
    gpu_freqs = [core.config.frequency for core in gpu_cores]
    compile_get = compile_cache.get

    sequential = [0.0] * n
    parallel = [0.0] * n
    communication = [0.0] * n
    now = [0.0] * n
    last_parallel_seconds = [0.0] * n
    pending_h2d: List[CommPhase] = []
    phase_timings: List[List[PhaseTiming]] = [[] for _ in range(n)]

    def communicate(i: int, comm: CommPhase, window: float) -> None:
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

    for phase in trace.phases:
        if isinstance(phase, SequentialPhase):
            cycles = cpu_run_compiled_batch(cpu_cores, compile_get(phase.segment), now)
            for i in range(n):
                seconds = cpu_freqs[i].cycles_to_seconds(cycles[i])
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
            cpu_compiled = compile_get(phase.cpu)
            gpu_compiled = compile_get(phase.gpu)
            if interleave_parallel:
                outcomes = [
                    run_parallel_interleaved(
                        cpu_cores[i].step_compiled(cpu_compiled, now[i]),
                        gpu_cores[i].step_compiled(gpu_compiled, now[i]),
                        cpu_freqs[i],
                        gpu_freqs[i],
                    )
                    for i in range(n)
                ]
                cpu_seconds = [outcome.cpu_seconds for outcome in outcomes]
                gpu_seconds = [outcome.gpu_seconds for outcome in outcomes]
            else:
                cpu_cycles = cpu_run_compiled_batch(cpu_cores, cpu_compiled, now)
                gpu_cycles = gpu_run_compiled_batch(gpu_cores, gpu_compiled, now)
                cpu_seconds = [
                    freq.cycles_to_seconds(c) for freq, c in zip(cpu_freqs, cpu_cycles)
                ]
                gpu_seconds = [
                    freq.cycles_to_seconds(c) for freq, c in zip(gpu_freqs, gpu_cycles)
                ]
            for i in range(n):
                seconds = max(cpu_seconds[i], gpu_seconds[i])
                for comm in pending_h2d:
                    communicate(i, comm, seconds)
                parallel[i] += seconds
                now[i] += seconds
                last_parallel_seconds[i] = seconds
                phase_timings[i].append(
                    PhaseTiming(
                        label=phase.label,
                        kind="parallel",
                        seconds=seconds,
                        cpu_seconds=cpu_seconds[i],
                        gpu_seconds=gpu_seconds[i],
                    )
                )
            pending_h2d.clear()
        elif isinstance(phase, CommPhase):
            if phase.direction is Direction.H2D:
                pending_h2d.append(phase)
                continue
            for i in range(n):
                communicate(i, phase, last_parallel_seconds[i])
        else:
            raise SimulationError(f"unknown phase type {type(phase).__name__}")
    for i in range(n):
        for comm in pending_h2d:
            communicate(i, comm, 0.0)

    return [
        (
            TimeBreakdown(
                sequential=sequential[i],
                parallel=parallel[i],
                communication=communication[i],
            ),
            tuple(phase_timings[i]),
        )
        for i in range(n)
    ]


def install_translation(machine: Machine, space: AddressSpace) -> Mmus:
    """Put a TLB + page-table front in front of both cores' memory."""
    mmus: Mmus = {}
    for pu, core in (
        (ProcessingUnit.CPU, machine.cpu_core),
        (ProcessingUnit.GPU, machine.gpu_core),
    ):
        mmus[pu] = core.memory = TranslationFront(pu, space, core.memory)
    return mmus


def merged_counters(
    channel: CommChannel, machine: Machine, mmus: Optional[Mmus] = None
) -> Dict[str, float]:
    """One run's counters: the channel's, then each machine component's
    (``component.key``), then each MMU front's (``mmu.<pu>.key``)."""
    counters: Dict[str, float] = dict(channel.stats())
    for component, stats in machine.stats().items():
        for key, value in stats.items():
            counters[f"{component}.{key}"] = value
    if mmus is not None:
        for pu, mmu in mmus.items():
            for key, value in mmu.stats().items():
                counters[f"mmu.{pu}.{key}"] = value
    return counters


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

    Computes the timing-equivalence partition (:attr:`distinct`
    representatives plus the :attr:`inverse` map) and groups the
    representatives into execution groups that can share a single phase
    walk: equal machine parameters, equal address-space staging, equal
    coherence — so the per-point machines see identical event streams and
    only channels, clocks, and cache contents differ. A point's ``None``
    system or comm params mean the simulator's defaults, which the
    :class:`SweepSimulator` resolves when it runs the batch.
    """

    def __init__(self, points: Sequence[SweepPoint]) -> None:
        if not points:
            raise SimulationError("a batch needs at least one design point")
        self.points: Tuple[SweepPoint, ...] = tuple(points)

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
            key = (point.system, point.address_space, point.protocol_kind)
            grouped.setdefault(key, []).append(position)
        return list(grouped.values())


class SweepSimulator:
    """Evaluates one trace against a batch of design points in shared passes.

    Construction knobs are :class:`~repro.sim.detailed.DetailedSimulator`'s;
    ``system`` and ``comm_params`` are the defaults for every point that
    does not set its own.
    """

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        comm_params: Optional[CommParams] = None,
        l3_policy: Optional[ReplacementPolicy] = None,
        interleave_parallel: bool = True,
        l1_prefetch: bool = False,
        gpu_mode: str = "heuristic",
        compile_cache: Optional[SegmentCompileCache] = None,
    ) -> None:
        self.system = system or SystemConfig()
        self.comm_params = comm_params or CommParams()
        self.l3_policy = l3_policy
        self.interleave_parallel = interleave_parallel
        self.l1_prefetch = l1_prefetch
        self.gpu_mode = gpu_mode
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
            else BatchedDesignPoints(points)
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
        """One shared :func:`walk_phases` over the group's per-point machines."""
        points = [batch.points[batch.distinct[g]] for g in group]
        system = points[0].system or self.system
        space_kind = points[0].address_space

        channels = []
        for point in points:
            case = point.case
            channels.append(
                make_channel(
                    case.comm if case is not None else point.mechanism,
                    params=point.comm_params or self.comm_params,
                    system=system,
                    async_overlap=(
                        case.async_overlap if case is not None else point.async_overlap
                    ),
                )
            )

        staged = trace
        spaces: List[Optional[AddressSpace]] = [None] * len(points)
        if space_kind is not None:
            # Stage per point: staging allocates in the point's own page
            # tables (the MMUs translate against them), but the rebased
            # trace is deterministic, so every point stages identically and
            # the first staging is the shared event stream.
            spaces = [make_address_space(space_kind, system) for _ in points]
            staged = stage_trace(trace, spaces[0])
            for space in spaces[1:]:
                stage_trace(trace, space)

        machines = [
            build_machine(
                system,
                l3_policy=self.l3_policy,
                coherence=points[0].protocol_kind,
                l1_prefetch=self.l1_prefetch,
                gpu_mode=self.gpu_mode,
            )
            for _ in points
        ]
        mmus = [
            install_translation(machine, space) if space is not None else None
            for machine, space in zip(machines, spaces)
        ]
        walked = walk_phases(
            staged, machines, channels, self.compile_cache, self.interleave_parallel
        )
        for i, (g, point) in enumerate(zip(group, points)):
            breakdown, phases = walked[i]
            out[g] = SimulationResult(
                kernel=staged.name,
                system=point.label(),
                breakdown=breakdown,
                phases=phases,
                counters=merged_counters(channels[i], machines[i], mmus[i]),
            )
