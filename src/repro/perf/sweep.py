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

- :class:`SweepPoint` — one design point's simulation parameters, and the
  one place that decides a point's label, coherence protocol and channel
  (:class:`~repro.exec.job.SimJob` is a point plus a trace and run-time
  fields; :meth:`SweepPoint.from_design_point` maps a taxonomy design
  point onto either);
- :class:`BatchedDesignPoints` — a batch of points with the
  timing-equivalence dedup (points differing only in display label share
  one simulation, mirroring :class:`~repro.exec.cache.ResultCache`
  relabel-on-hit) and the execution grouping (points that can share one
  phase walk);
- :class:`MachineSimulator` — the detailed machine's knobs and the
  per-point machine, address space, MMU and result set-up around one walk,
  shared by :class:`~repro.sim.detailed.DetailedSimulator` (one point)
  and :class:`SweepSimulator`;
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
from typing import TYPE_CHECKING, ClassVar, Dict, List, Optional, Sequence, Tuple

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

if TYPE_CHECKING:  # pragma: no cover - repro.core imports this module
    from repro.core.design_point import DesignPoint

__all__ = [
    "walk_phases",
    "install_translation",
    "merged_counters",
    "SweepPoint",
    "BatchedDesignPoints",
    "MachineSimulator",
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
    """One design point's simulation parameters (pure data, picklable).

    Exactly one of ``case``/``mechanism`` selects the communication
    mechanism; ``async_overlap`` is allowed only with the ``dma-async``
    mechanism (a case study carries its own). ``system`` and
    ``comm_params`` override the simulator's machine parameters for this
    point only (``None`` inherits them); ``system_name`` is the display
    label and never affects timing.
    :class:`~repro.exec.job.SimJob` is a point plus a trace.
    """

    #: The fields of which exactly one selects the communication mechanism.
    _SELECTORS: ClassVar[Tuple[str, ...]] = ("case", "mechanism")

    case: Optional[CaseStudy] = None
    mechanism: Optional[CommMechanism] = None
    async_overlap: bool = False
    address_space: Optional[AddressSpaceKind] = None
    system_name: Optional[str] = None
    system: Optional[SystemConfig] = None
    comm_params: Optional[CommParams] = None
    #: Coherence-protocol override (``"none" | "snoop" | "directory"`` or a
    #: :class:`~repro.taxonomy.CoherenceKind`); ``None`` derives from the
    #: case study (see :attr:`protocol_kind`).
    coherence: "str | CoherenceKind | None" = None

    def __post_init__(self) -> None:
        selectors = sum(getattr(self, name) is not None for name in self._SELECTORS)
        if selectors != 1:
            raise SimulationError(
                f"a {type(self).__name__} needs exactly one of "
                f"{'/'.join(self._SELECTORS)}, got {selectors}"
            )
        if self.async_overlap and self.mechanism is not CommMechanism.DMA_ASYNC:
            raise SimulationError(
                f"a {type(self).__name__} overlaps copies only on "
                f"{CommMechanism.DMA_ASYNC}, not on "
                f"{self.mechanism or 'a case study or channel'}"
            )

    @classmethod
    def from_design_point(cls, point: "DesignPoint", **fields) -> "SweepPoint":
        """The simulation of a taxonomy design point: its mechanism and
        address space (the other axes are scored analytically) under its
        label, plus ``fields`` (e.g. a job's trace)."""
        return cls(
            mechanism=point.comm,
            async_overlap=point.comm is CommMechanism.DMA_ASYNC,
            address_space=point.address_space,
            system_name=point.label,
            **fields,
        )

    @property
    def protocol_kind(self) -> str:
        """The protocol variant the detailed machine is built with: the
        override, else the case study's, else ``"none"``."""
        if self.coherence is not None:
            return resolve_protocol_kind(self.coherence)
        if self.case is not None:
            return self.case.coherence.protocol
        return "none"

    def label(self) -> str:
        """The result's ``system`` field: the display label, else the case
        study's name, else the mechanism."""
        if self.system_name:
            return self.system_name
        if self.case is not None:
            return self.case.name
        return str(self.mechanism)

    def channel_for(self, system: SystemConfig, comm_params: CommParams) -> CommChannel:
        """A fresh channel for one run, from the case study or the mechanism.

        ``system``/``comm_params`` are the simulator's defaults; the
        point's own overrides win.
        """
        case = self.case
        return make_channel(
            case.comm if case is not None else self.mechanism,
            params=self.comm_params or comm_params,
            system=self.system or system,
            async_overlap=case.async_overlap if case is not None else self.async_overlap,
        )

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


class MachineSimulator:
    """The detailed machine's knobs and per-point set-up, shared by
    :class:`~repro.sim.detailed.DetailedSimulator` (one point) and
    :class:`SweepSimulator` (a batch)."""

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
        #: Machine and channel defaults for every point without its own.
        self.system = system or SystemConfig()
        self.comm_params = comm_params or CommParams()
        self.l3_policy = l3_policy
        #: Whether parallel phases run the two cores in timestamp order
        #: (contention-aware) or back-to-back (no cross-PU contention).
        self.interleave_parallel = interleave_parallel
        #: Attach next-line prefetchers to both L1 data caches.
        self.l1_prefetch = l1_prefetch
        #: GPU scheduler: "heuristic" (warp-divided stalls) or "warp" (a
        #: real greedy warp scheduler).
        self.gpu_mode = gpu_mode
        #: Segment-compilation memo; defaults to the process-wide cache so
        #: design points sharing a trace compile each segment once.
        self.compile_cache = (
            compile_cache if compile_cache is not None else SHARED_COMPILE_CACHE
        )
        #: The last point's machine and MMU fronts, inspectable after a run.
        self.last_machine: Optional[Machine] = None
        self.last_mmus: Optional[Mmus] = None

    def _simulate(
        self,
        trace: KernelTrace,
        system: SystemConfig,
        address_space: "AddressSpaceKind | AddressSpace | None",
        protocol: str,
        labels: Sequence[str],
        channels: Sequence[CommChannel],
    ) -> List[SimulationResult]:
        """Build each point's machine, address space and MMU fronts, walk
        them once through :meth:`_walk`, and return each point's result.

        Point ``i`` is ``labels[i]`` over ``channels[i]``; all share the
        rest. Each point stages the trace into its own page tables (its
        MMUs translate against them); staging is deterministic, so the
        first staged trace is everyone's event stream.
        """
        spaces: List[Optional[AddressSpace]] = [None] * len(channels)
        staged = trace
        if address_space is not None:
            spaces = (
                [address_space]
                if isinstance(address_space, AddressSpace)
                else [make_address_space(address_space, system) for _ in channels]
            )
            staged = stage_trace(trace, spaces[0])
            for space in spaces[1:]:
                stage_trace(trace, space)

        machines = [
            build_machine(
                system,
                l3_policy=self.l3_policy,
                coherence=protocol,
                l1_prefetch=self.l1_prefetch,
                gpu_mode=self.gpu_mode,
            )
            for _ in channels
        ]
        mmus = [
            install_translation(machine, space) if space is not None else None
            for machine, space in zip(machines, spaces)
        ]
        self.last_machine, self.last_mmus = machines[-1], mmus[-1]
        walked = self._walk(staged, machines, channels)
        return [
            SimulationResult(
                kernel=staged.name,
                system=label,
                breakdown=breakdown,
                phases=phases,
                counters=merged_counters(channel, machine, fronts),
            )
            for label, channel, machine, fronts, (breakdown, phases) in zip(
                labels, channels, machines, mmus, walked
            )
        ]

    def _walk(
        self,
        trace: KernelTrace,
        machines: Sequence[Machine],
        channels: Sequence[CommChannel],
    ) -> List[Tuple[TimeBreakdown, Tuple[PhaseTiming, ...]]]:
        """The phase walk over the points' machines: :func:`walk_phases`."""
        return walk_phases(
            trace, machines, channels, self.compile_cache, self.interleave_parallel
        )


class SweepSimulator(MachineSimulator):
    """Evaluates one trace against a batch of design points in shared passes.

    ``system`` and ``comm_params`` are the defaults for every point that
    does not set its own.
    """

    def run(
        self,
        trace: KernelTrace,
        points: "Sequence[SweepPoint] | BatchedDesignPoints",
        scale: float = 1.0,
    ) -> List[SimulationResult]:
        """Simulate ``trace`` for every point; results in point order.

        Each timing-distinct point is simulated exactly once, one
        :meth:`_simulate` per execution group; duplicates receive the
        shared result re-labeled to their own ``system_name``
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
            members = [batch.points[batch.distinct[g]] for g in group]
            first = members[0]
            group_results = self._simulate(
                trace,
                first.system or self.system,
                first.address_space,
                first.protocol_kind,
                [point.label() for point in members],
                [point.channel_for(self.system, self.comm_params) for point in members],
            )
            for g, result in zip(group, group_results):
                distinct_results[g] = result
        results: List[SimulationResult] = []
        for index, point in enumerate(batch.points):
            result = distinct_results[batch.inverse[index]]
            assert result is not None
            name = point.label()
            if result.system != name:
                result = replace(result, system=name)
            results.append(result)
        return results
