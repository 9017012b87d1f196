"""The detailed machine's phase walk, and the design-point axis it runs on.

:func:`walk_phases` is the one production phase walk of the detailed
Table II machine, over one design point's machine and channel:
sequential phases run the CPU core's whole-segment loop
(:meth:`repro.sim.cpu.core.CpuCore.run_segment`, a drain of its
``step_compiled``); parallel phases step the point's two cores in
timestamp order through
:func:`~repro.sim.engine.run_parallel_interleaved`.

The design-point axis on top of it:

- :class:`SweepPoint` — one design point's simulation parameters, and the
  one place that decides a point's label, coherence protocol and channel
  (:class:`~repro.exec.job.SimJob` is a point plus a trace and run-time
  fields; :meth:`SweepPoint.from_design_point` maps a taxonomy design
  point onto either);
- :class:`BatchedDesignPoints` — a batch of points with the
  timing-equivalence dedup (points differing only in display label share
  one simulation, mirroring :class:`~repro.exec.cache.ResultCache`
  relabel-on-hit);
- :class:`MachineSimulator` — the detailed machine's knobs and the
  per-point machine, address space, MMU and result set-up around one walk,
  shared by :class:`~repro.sim.detailed.DetailedSimulator` (one point)
  and :class:`SweepSimulator`;
- :class:`SweepSimulator` — evaluates one trace against every point of a
  batch, one walk per timing-distinct point.

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
from typing import (
    TYPE_CHECKING,
    ClassVar,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.addrspace.base import AddressSpace, make_address_space
from repro.config.comm import CommParams
from repro.config.presets import CaseStudy
from repro.config.system import SystemConfig
from repro.comm.base import CommChannel, make_channel
from repro.errors import SimulationError
from repro.mem.cache.replacement import ReplacementPolicy
from repro.mem.coherence.api import resolve_protocol_kind
from repro.perf.compiled import compile_segment

# Not called here: the benchmark's ``cpu.batch``/``gpu.batch`` spans
# (``perfbench/layers.py``) patch these bindings too.
from repro.sim.cpu.core import run_compiled_batch as cpu_run_compiled_batch  # noqa: F401
from repro.sim.engine import run_parallel_interleaved
from repro.sim.gpu.core import run_compiled_batch as gpu_run_compiled_batch  # noqa: F401
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
    "ChannelSpec",
    "SweepPoint",
    "BatchedDesignPoints",
    "MachineSimulator",
    "SweepSimulator",
]

#: Per-point MMU fronts of a machine with address translation installed.
Mmus = Dict[ProcessingUnit, TranslationFront]


def walk_phases(
    trace: KernelTrace, machine: Machine, channel: CommChannel
) -> Tuple[TimeBreakdown, Tuple[PhaseTiming, ...]]:
    """Walk ``trace``'s phases over one point's machine and channel.

    ``machine`` has its MMU fronts already installed, if any. Returns the
    point's ``(breakdown, phase timings)``.

    H2D copies are deferred: an asynchronous channel overlaps them with the
    parallel phase that *follows* the copy. Every other transfer overlaps
    with the parallel phase before it.
    """
    cpu, gpu = machine.cpu_core, machine.gpu_core
    cpu_freq, gpu_freq = cpu.config.frequency, gpu.config.frequency
    sequential = parallel = communication = 0.0
    now = 0.0
    last_parallel_seconds = 0.0
    pending_h2d: List[CommPhase] = []
    timings: List[PhaseTiming] = []

    def communicate(comm: CommPhase, window: float) -> None:
        nonlocal communication, now
        result = channel.transfer(comm, overlap_window=window)
        communication += result.exposed
        now += result.exposed
        timings.append(
            PhaseTiming(
                label=comm.label,
                kind="communication",
                seconds=result.exposed,
                overlapped_seconds=result.overlapped,
            )
        )

    for phase in trace.phases:
        if isinstance(phase, SequentialPhase):
            cycles = cpu.run_segment(compile_segment(phase.segment), now)
            seconds = cpu_freq.cycles_to_seconds(cycles)
            sequential += seconds
            now += seconds
            timings.append(
                PhaseTiming(
                    label=phase.label,
                    kind="sequential",
                    seconds=seconds,
                    cpu_seconds=seconds,
                )
            )
        elif isinstance(phase, ParallelPhase):
            outcome = run_parallel_interleaved(
                cpu.step_compiled(compile_segment(phase.cpu), now),
                gpu.step_compiled(compile_segment(phase.gpu), now),
                cpu_freq,
                gpu_freq,
            )
            seconds = outcome.seconds
            for comm in pending_h2d:
                communicate(comm, seconds)
            pending_h2d.clear()
            parallel += seconds
            now += seconds
            last_parallel_seconds = seconds
            timings.append(
                PhaseTiming(
                    label=phase.label,
                    kind="parallel",
                    seconds=seconds,
                    cpu_seconds=outcome.cpu_seconds,
                    gpu_seconds=outcome.gpu_seconds,
                )
            )
        elif isinstance(phase, CommPhase):
            if phase.direction is Direction.H2D:
                pending_h2d.append(phase)
                continue
            communicate(phase, last_parallel_seconds)
        else:
            raise SimulationError(f"unknown phase type {type(phase).__name__}")
    for comm in pending_h2d:
        communicate(comm, 0.0)
    breakdown = TimeBreakdown(
        sequential=sequential, parallel=parallel, communication=communication
    )
    return breakdown, tuple(timings)


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


class ChannelSpec(NamedTuple):
    """What a point's channel is built from (:meth:`SweepPoint.channel_spec`)."""

    mechanism: CommMechanism
    params: CommParams
    system: SystemConfig
    async_overlap: bool


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
    #: ``None`` runs without translation. A prebuilt
    #: :class:`~repro.addrspace.base.AddressSpace` is staged into as
    #: given (:meth:`~repro.sim.detailed.DetailedSimulator.run` passes one
    #: through); a kind builds a fresh one per run.
    address_space: "AddressSpaceKind | AddressSpace | None" = None
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

    def channel_spec(
        self, system: SystemConfig, comm_params: CommParams
    ) -> Optional[ChannelSpec]:
        """Everything the point's channel is built from, from the case study
        or the mechanism: equal specs build channels that price every copy
        alike.

        ``system``/``comm_params`` are the simulator's defaults; the
        point's own overrides win.
        """
        case = self.case
        return ChannelSpec(
            case.comm if case is not None else self.mechanism,
            self.comm_params or comm_params,
            self.system or system,
            case.async_overlap if case is not None else self.async_overlap,
        )

    def channel_for(self, system: SystemConfig, comm_params: CommParams) -> CommChannel:
        """A fresh channel for one run, built from :meth:`channel_spec`.

        Always the point's own spec, even where a subclass withholds it
        from memoization.
        """
        spec = SweepPoint.channel_spec(self, system, comm_params)
        return make_channel(
            spec.mechanism,
            params=spec.params,
            system=spec.system,
            async_overlap=spec.async_overlap,
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
    """A batch of :class:`SweepPoint`\\ s with its timing-equivalence dedup.

    Computes the timing-equivalence partition (:attr:`distinct`
    representatives plus the :attr:`inverse` map); the
    :class:`SweepSimulator` walks each representative once. A point's
    ``None`` system or comm params mean the simulator's defaults, which
    the :class:`SweepSimulator` resolves when it runs the batch.
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
        """The distinct representatives grouped by machine parameters,
        address-space kind and coherence: lists of positions into
        :attr:`distinct`.

        No simulator path reads it; the benchmark's detailed-sweep
        workload reports the group count (``perfbench/workloads.py``).
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
        l1_prefetch: bool = False,
        gpu_mode: str = "heuristic",
    ) -> None:
        #: Machine and channel defaults for every point without its own.
        self.system = system or SystemConfig()
        self.comm_params = comm_params or CommParams()
        self.l3_policy = l3_policy
        #: Attach next-line prefetchers to both L1 data caches.
        self.l1_prefetch = l1_prefetch
        #: GPU scheduler: "heuristic" (warp-divided stalls) or "warp" (a
        #: real greedy warp scheduler).
        self.gpu_mode = gpu_mode
        #: The last point's machine and MMU fronts, inspectable after a run.
        self.last_machine: Optional[Machine] = None
        self.last_mmus: Optional[Mmus] = None

    def _simulate(
        self,
        trace: KernelTrace,
        point: SweepPoint,
        channel: Optional[CommChannel] = None,
    ) -> SimulationResult:
        """Build ``point``'s machine, address space and MMU fronts, walk
        them once through :meth:`_walk`, and return the point's result.

        ``channel`` (default: the point's own, under this simulator's
        defaults) carries the point's communication. With an address
        space, the trace is first staged into its page tables, which the
        MMU fronts translate against.
        """
        system = point.system or self.system
        if channel is None:
            channel = point.channel_for(self.system, self.comm_params)
        space = point.address_space
        if space is not None:
            if not isinstance(space, AddressSpace):
                space = make_address_space(space, system)
            trace = stage_trace(trace, space)
        machine = build_machine(
            system,
            l3_policy=self.l3_policy,
            coherence=point.protocol_kind,
            l1_prefetch=self.l1_prefetch,
            gpu_mode=self.gpu_mode,
        )
        mmus = install_translation(machine, space) if space is not None else None
        self.last_machine, self.last_mmus = machine, mmus
        breakdown, phases = self._walk(trace, machine, channel)
        return SimulationResult(
            kernel=trace.name,
            system=point.label(),
            breakdown=breakdown,
            phases=phases,
            counters=merged_counters(channel, machine, mmus),
        )

    def _walk(
        self, trace: KernelTrace, machine: Machine, channel: CommChannel
    ) -> Tuple[TimeBreakdown, Tuple[PhaseTiming, ...]]:
        """The phase walk over the point's machine: :func:`walk_phases`."""
        return walk_phases(trace, machine, channel)


class SweepSimulator(MachineSimulator):
    """Evaluates one trace against a batch of design points.

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
        :meth:`_simulate` each; duplicates receive the shared result
        re-labeled to their own ``system_name`` (determinism makes the
        shared result bit-identical to a dedicated run, the same argument
        :class:`~repro.exec.cache.ResultCache` relies on).
        """
        batch = (
            points
            if isinstance(points, BatchedDesignPoints)
            else BatchedDesignPoints(points)
        )
        if scale != 1.0:
            trace = trace.scaled(scale)
        distinct_results = [
            self._simulate(trace, batch.points[index]) for index in batch.distinct
        ]
        results: List[SimulationResult] = []
        for point, rep in zip(batch.points, batch.inverse):
            result = distinct_results[rep]
            name = point.label()
            if result.system != name:
                result = replace(result, system=name)
            results.append(result)
        return results
