"""The detailed machine's phase walk, and the design-point axis it runs on.

:func:`walk_phases` is the one production phase walk of the detailed
Table II machine. It walks one machine for every point on it (a
*walker*: the point's channel, clock, sums and deferred copies):
sequential phases run the CPU core's whole-segment loop
(:meth:`repro.sim.cpu.core.CpuCore.run_segment`, a drain of its
``step_compiled``); parallel phases step the machine's two cores in
timestamp order through
:func:`~repro.sim.engine.run_parallel_interleaved`. Copy phases touch
only a walker's channel and clock, never the machine, so a compute phase
runs once for every walker whose clock reads the same start instant.
Where clocks split, the walk keeps the first walker's instant; the
others restart on a fresh machine with fresh channels.
:class:`~repro.sim.detailed.DetailedSimulator` is the one-walker case.

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
  machine, address space, MMU and result set-up around each walk of a
  machine group, restarts included, shared by
  :class:`~repro.sim.detailed.DetailedSimulator` (one point) and
  :class:`SweepSimulator`;
- :class:`SweepSimulator` — evaluates one trace against every point of a
  batch, the timing-distinct points walked together per machine group
  (:meth:`BatchedDesignPoints.groups`), each point walked once.

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
    "Dropped",
    "install_translation",
    "machine_counters",
    "ChannelSpec",
    "SweepPoint",
    "BatchedDesignPoints",
    "MachineSimulator",
    "SweepSimulator",
]

#: Per-point MMU fronts of a machine with address translation installed.
Mmus = Dict[ProcessingUnit, TranslationFront]


#: One walker's ``(breakdown, phase timings)``.
Walk = Tuple[TimeBreakdown, Tuple[PhaseTiming, ...]]


class Dropped(NamedTuple):
    """Where a walker left a shared walk: before phase ``phase``, with its
    clock at ``now``. Walkers dropped at the same place agree on every
    start instant so far; walkers dropped at different places would
    split again there."""

    phase: int
    now: float


class _Walker:
    """One point's side of a shared walk: its channel, its clock, its sums,
    its deferred H2D copies and its phase timings."""

    __slots__ = (
        "channel",
        "now",
        "sequential",
        "parallel",
        "communication",
        "last_parallel_seconds",
        "pending_h2d",
        "timings",
        "dropped",
    )

    def __init__(self, channel: CommChannel) -> None:
        self.channel = channel
        self.now = 0.0
        self.sequential = self.parallel = self.communication = 0.0
        self.last_parallel_seconds = 0.0
        self.pending_h2d: List[CommPhase] = []
        self.timings: List[PhaseTiming] = []
        self.dropped: Optional[Dropped] = None

    def communicate(self, comm: CommPhase, window: float) -> None:
        result = self.channel.transfer(comm, overlap_window=window)
        self.communication += result.exposed
        self.now += result.exposed
        self.timings.append(
            PhaseTiming(
                label=comm.label,
                kind="communication",
                seconds=result.exposed,
                overlapped_seconds=result.overlapped,
            )
        )

    def walk(self) -> Walk:
        breakdown = TimeBreakdown(
            sequential=self.sequential,
            parallel=self.parallel,
            communication=self.communication,
        )
        return breakdown, tuple(self.timings)


def _same_start(walkers: List[_Walker], phase: int) -> List[_Walker]:
    """The walkers whose clock reads exactly the first walker's; the others
    are dropped before ``phase``."""
    now = walkers[0].now
    kept = []
    for walker in walkers:
        if walker.now == now:
            kept.append(walker)
        else:
            walker.dropped = Dropped(phase, walker.now)
    return kept


def walk_phases(
    trace: KernelTrace, machine: Machine, channels: Sequence[CommChannel]
) -> List["Walk | Dropped"]:
    """Walk ``trace``'s phases over one machine for every channel on it.

    Each channel is one walker: one point that shares the machine (system,
    address space and protocol). ``machine`` has its MMU fronts already
    installed, if any. Copy phases are priced per walker, on its own
    channel and clock. A sequential or parallel phase runs once, starting
    at the walkers' common clock, and its timing goes to each of them:
    a compute phase touches only the machine, and its effect depends only
    on the machine's state and its start instant, so walkers that agree on
    every start have bit-identical machine trajectories. Where clocks
    split before a compute phase, the walk keeps the walkers of the first
    walker's instant and drops the rest.

    Returns, per channel, its point's ``(breakdown, phase timings)``, or
    for a dropped walker where it was dropped (:class:`Dropped`). A
    dropped walker must be walked again on a fresh machine with a fresh
    channel, together with the walkers dropped at the same place. The
    first walker is never dropped.

    H2D copies are deferred: an asynchronous channel overlaps them with the
    parallel phase that *follows* the copy. Every other transfer overlaps
    with the parallel phase before it.
    """
    cpu, gpu = machine.cpu_core, machine.gpu_core
    cpu_freq, gpu_freq = cpu.config.frequency, gpu.config.frequency
    walkers = [_Walker(channel) for channel in channels]
    active = walkers

    for index, phase in enumerate(trace.phases):
        if isinstance(phase, SequentialPhase):
            active = _same_start(active, index)
            cycles = cpu.run_segment(compile_segment(phase.segment), active[0].now)
            seconds = cpu_freq.cycles_to_seconds(cycles)
            timing = PhaseTiming(
                label=phase.label,
                kind="sequential",
                seconds=seconds,
                cpu_seconds=seconds,
            )
            for walker in active:
                walker.sequential += seconds
                walker.now += seconds
                walker.timings.append(timing)
        elif isinstance(phase, ParallelPhase):
            active = _same_start(active, index)
            now = active[0].now
            outcome = run_parallel_interleaved(
                cpu.step_compiled(compile_segment(phase.cpu), now),
                gpu.step_compiled(compile_segment(phase.gpu), now),
                cpu_freq,
                gpu_freq,
            )
            seconds = outcome.seconds
            timing = PhaseTiming(
                label=phase.label,
                kind="parallel",
                seconds=seconds,
                cpu_seconds=outcome.cpu_seconds,
                gpu_seconds=outcome.gpu_seconds,
            )
            for walker in active:
                for comm in walker.pending_h2d:
                    walker.communicate(comm, seconds)
                walker.pending_h2d.clear()
                walker.parallel += seconds
                walker.now += seconds
                walker.last_parallel_seconds = seconds
                walker.timings.append(timing)
        elif isinstance(phase, CommPhase):
            for walker in active:
                if phase.direction is Direction.H2D:
                    walker.pending_h2d.append(phase)
                else:
                    walker.communicate(phase, walker.last_parallel_seconds)
        else:
            raise SimulationError(f"unknown phase type {type(phase).__name__}")
    for walker in active:
        for comm in walker.pending_h2d:
            walker.communicate(comm, 0.0)
    return [walker.dropped or walker.walk() for walker in walkers]


def install_translation(machine: Machine, space: AddressSpace) -> Mmus:
    """Put a TLB + page-table front in front of both cores' memory."""
    mmus: Mmus = {}
    for pu, core in (
        (ProcessingUnit.CPU, machine.cpu_core),
        (ProcessingUnit.GPU, machine.gpu_core),
    ):
        mmus[pu] = core.memory = TranslationFront(pu, space, core.memory)
    return mmus


def machine_counters(machine: Machine, mmus: Optional[Mmus] = None) -> Dict[str, float]:
    """A walk's machine counters, shared by every point it finished: each
    machine component's (``component.key``), then each MMU front's
    (``mmu.<pu>.key``). A point's result counters are its channel's
    followed by these."""
    counters: Dict[str, float] = {}
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
    #: through); a kind builds a fresh one per walk.
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
        """The distinct representatives grouped by machine: system,
        address space and coherence protocol. Lists of positions into
        :attr:`distinct`, each in point order.

        The :class:`SweepSimulator` walks by this grouping: the points of
        one group run on one machine, sharing each compute phase while
        their clocks agree (:func:`walk_phases`).
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
        #: The last walk's machine and MMU fronts, inspectable after a run.
        self.last_machine: Optional[Machine] = None
        self.last_mmus: Optional[Mmus] = None

    def _simulate(
        self,
        trace: KernelTrace,
        points: Sequence[SweepPoint],
        channel: Optional[CommChannel] = None,
    ) -> List[SimulationResult]:
        """Simulate ``points``, which share one machine (system, address
        space and protocol: one :meth:`BatchedDesignPoints.groups` group),
        and return their results in order.

        Each walk builds the points' machine, address space and MMU fronts
        once, gives each of its points a fresh channel, and walks them all
        through :meth:`_walk`. The points it drops, where their clocks
        split from the first point's, are walked again from a fresh
        machine, one walk for the points dropped at each place, until
        none is left; so no point is walked more than once. With an
        address space, the trace is first staged into its page tables,
        which the MMU fronts translate against.

        ``channel`` replaces the point's own (built under this simulator's
        defaults) in a one-point call.
        """
        lead = points[0]
        system = lead.system or self.system
        results: List[Optional[SimulationResult]] = [None] * len(points)
        pending = [list(range(len(points)))]
        while pending:
            left = pending.pop(0)
            space = lead.address_space
            staged = trace
            if space is not None:
                if not isinstance(space, AddressSpace):
                    space = make_address_space(space, system)
                staged = stage_trace(trace, space)
            machine = build_machine(
                system,
                l3_policy=self.l3_policy,
                coherence=lead.protocol_kind,
                l1_prefetch=self.l1_prefetch,
                gpu_mode=self.gpu_mode,
            )
            mmus = install_translation(machine, space) if space is not None else None
            self.last_machine, self.last_mmus = machine, mmus
            channels = [
                channel or points[index].channel_for(self.system, self.comm_params)
                for index in left
            ]
            walks = self._walk(staged, machine, channels)
            shared = machine_counters(machine, mmus)
            restarts: Dict[Dropped, List[int]] = {}
            for index, walker_channel, walk in zip(left, channels, walks):
                if isinstance(walk, Dropped):
                    restarts.setdefault(walk, []).append(index)
                    continue
                breakdown, phases = walk
                results[index] = SimulationResult(
                    kernel=trace.name,
                    system=points[index].label(),
                    breakdown=breakdown,
                    phases=phases,
                    counters={**walker_channel.stats(), **shared},
                )
            pending.extend(restarts.values())
        return results

    def _walk(
        self, trace: KernelTrace, machine: Machine, channels: Sequence[CommChannel]
    ) -> List["Walk | Dropped"]:
        """The phase walk over the points' machine: :func:`walk_phases`."""
        return walk_phases(trace, machine, channels)


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

        The timing-distinct points are simulated by machine group
        (:meth:`BatchedDesignPoints.groups`), one :meth:`_simulate` per
        group, so points whose compute phases start at the same instants
        share one walk; each is walked exactly once. Duplicates receive
        the shared result re-labeled to their own ``system_name``
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
        distinct_results: List[SimulationResult] = [None] * len(batch.distinct)
        for group in batch.groups():
            points = [batch.points[batch.distinct[position]] for position in group]
            for position, result in zip(group, self._simulate(trace, points)):
                distinct_results[position] = result
        results: List[SimulationResult] = []
        for point, rep in zip(batch.points, batch.inverse):
            result = distinct_results[rep]
            name = point.label()
            if result.system != name:
                result = replace(result, system=name)
            results.append(result)
        return results
