"""The fast (segment-analytic) simulator.

Reproduces the paper's quantitative methodology directly: compute phases
are priced by the analytic core models; communication phases are priced by
the design point's channel with the Table IV latencies; asynchronous
channels may hide copy time under the adjacent parallel phase (GMAC).
Compute phases depend only on the trace and the machine, so they are
priced once per (trace, system) and memoized on the trace. The channel's
pass over the communications depends only on that pricing and the
point's channel spec (mechanism, ``comm_params``, system and async
overlap; :meth:`~repro.perf.sweep.SweepPoint.channel_spec`), so it is
memoized beside it, one per spec: a rank prices each kernel's copies
once per mechanism, not once per (mechanism, address space). A run adds
only its address-space instructions, any coherence estimate and its
label. A job with an explicit channel or a fault plan has no spec and
runs a fresh channel every time.

A point's :class:`~repro.taxonomy.AddressSpaceKind`, when set, adds the
*extra instructions* each address space needs around communications (the
§V-B experiment, Figure 7): a handful of API instructions per
communication, which is exactly why that figure is flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.addrspace.layout import SHARED_BASE
from repro.comm.base import CommChannel
from repro.config.comm import CommParams
from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.mem.coherence.api import resolve_protocol_kind
from repro.obs.metrics import MetricSnapshot
from repro.perf.sweep import ChannelSpec, SweepPoint
from repro.sim.analytic import AnalyticTiming
from repro.sim.results import PhaseTiming, SimulationResult, TimeBreakdown
from repro.taxonomy import AddressSpaceKind
from repro.trace.phase import (
    CommPhase,
    Direction,
    ParallelPhase,
    Phase,
    Segment,
    SequentialPhase,
)
from repro.trace.stream import KernelTrace

__all__ = ["FastSimulator", "SPACE_OVERHEAD_INSTRUCTIONS"]

#: Extra CPU instructions per communication to manage the address space —
#: the Figure 7 experiment's knob. Roughly Table V's per-space comm lines
#: times ~10 machine instructions per source line; "very small compared to
#: the amount of computation" (§V-B).
SPACE_OVERHEAD_INSTRUCTIONS: Dict[AddressSpaceKind, int] = {
    AddressSpaceKind.UNIFIED: 0,
    AddressSpaceKind.PARTIALLY_SHARED: 30,
    AddressSpaceKind.ADSM: 50,
    AddressSpaceKind.DISJOINT: 80,
}


class FastSimulator:
    """Segment-analytic trace simulator."""

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        comm_params: Optional[CommParams] = None,
    ) -> None:
        self.system = system or SystemConfig()
        self.comm_params = comm_params or CommParams()

    # -- main entry point -------------------------------------------------------

    def run(self, trace: KernelTrace, point: SweepPoint) -> SimulationResult:
        """Simulate ``trace`` at one design point.

        The point decides everything beyond the trace: its channel
        (:meth:`~repro.perf.sweep.SweepPoint.channel_spec`; points with
        equal specs share one pass over the trace), the result's
        label, the ``address_space`` whose per-communication management
        instructions are charged (Figure 7 experiment), and the
        ``coherence`` variant. Its ``system``/``comm_params`` overrides
        price the whole run; ``None`` inherits this simulator's.

        The point's raw ``coherence`` publishes analytic
        invalidation-traffic estimates (``coherence.estimated_*``
        counters) for the requested protocol variant so metrics-diffing
        fast against detailed runs stays meaningful on coherent design
        points. It must be requested explicitly — unlike the detailed
        simulator, which builds the point's ``protocol_kind``, the case
        study's coherence kind is deliberately *not* consulted, so every
        historical fast-path figure stays byte-identical.
        """
        system = point.system or self.system
        priced = _ComputePricing.of(trace, system)
        comms = priced.channel_pass(
            point.channel_spec(self.system, self.comm_params),
            lambda: point.channel_for(self.system, self.comm_params),
        )

        # Address-space management instructions (Figure 7 experiment).
        sequential = priced.sequential
        if point.address_space is not None:
            extra = SPACE_OVERHEAD_INSTRUCTIONS[point.address_space] * len(priced.comms)
            sequential += system.cpu.frequency.cycles_to_seconds(extra)

        counters: Mapping[str, float] = comms.counters
        if point.coherence is not None:
            kind = resolve_protocol_kind(point.coherence)
            if kind != "none":
                counters = {
                    **counters,
                    **self.estimated_coherence_counters(
                        trace, kind, system.l3.line_bytes
                    ),
                }
        return SimulationResult(
            kernel=trace.name,
            system=point.label(),
            breakdown=TimeBreakdown(
                sequential=sequential,
                parallel=priced.parallel,
                communication=comms.communication,
            ),
            phases=comms.phases,
            counters=counters,
        )

    # -- analytic coherence-traffic estimate ----------------------------------

    def estimated_coherence_counters(
        self, trace: KernelTrace, kind: str, line_bytes: int
    ) -> Dict[str, float]:
        """Analytic invalidation-traffic estimate for protocol ``kind`` on
        ``line_bytes`` cache lines.

        Mirrors the streaming-miss philosophy of
        :meth:`AnalyticTiming.estimated_memory_counters`: each parallel
        phase's shared-window segments (``base_addr`` inside the shared
        window) cold-fill one protocol consultation per cache line of
        footprint, and where the two PUs' footprints overlap, every
        writing PU invalidates the peer once per co-resident line. Message
        counts follow the variants' cost models — a snoop invalidation
        rides the upgrade broadcast (1 message), a directory invalidation
        is a lookup + inv + ack exchange (3 messages).
        """
        line = float(line_bytes)
        shared_lines = invalidations = messages = 0.0
        for phase in trace.phases:
            if not isinstance(phase, ParallelPhase):
                continue
            cpu, gpu = phase.cpu, phase.gpu
            cpu_lines = self._shared_lines(cpu, line)
            gpu_lines = self._shared_lines(gpu, line)
            shared_lines += cpu_lines + gpu_lines
            # One consultation (snoop broadcast / directory lookup) per
            # cold fill of a shared line.
            messages += cpu_lines + gpu_lines
            if cpu_lines == 0.0 or gpu_lines == 0.0:
                continue
            lo = max(cpu.base_addr, gpu.base_addr)
            hi = min(
                cpu.base_addr + cpu.footprint_bytes,
                gpu.base_addr + gpu.footprint_bytes,
            )
            co_lines = max(0.0, (hi - lo) / line)
            writers = (cpu.mix.store_ops > 0) + (gpu.mix.store_ops > 0)
            inv = co_lines * writers
            invalidations += inv
            messages += inv * (1.0 if kind == "snoop" else 3.0)
        return {
            "coherence.estimated_shared_lines": shared_lines,
            "coherence.estimated_invalidations": invalidations,
            "coherence.estimated_messages": messages,
        }

    @staticmethod
    def _shared_lines(segment: Segment, line: float) -> float:
        """Cache lines of shared-window footprint a segment touches."""
        if segment.base_addr < SHARED_BASE or segment.mix.memory_ops == 0:
            return 0.0
        return segment.footprint_bytes / line


#: The attribute of a :class:`KernelTrace` holding its one-slot pricing
#: memo, ``(system, _ComputePricing)``, channel passes included.
#: ``KernelTrace.__getstate__`` keeps it (like every non-field attribute)
#: out of pickles and store keys, and the dataclass ``==``/``repr`` read
#: fields only.
_MEMO_SLOT = "_fast_compute_pricing"

#: The most channel passes one pricing keeps. A rank needs one per
#: mechanism (six); the case studies add their own specs.
_PASS_LIMIT = 32


@dataclass(frozen=True)
class _ComputePricing:
    """Everything :meth:`FastSimulator.run` derives from a trace and a
    system alone, independent of the design point.

    ``timings`` holds each compute phase's :class:`PhaseTiming` in phase
    order and ``None`` at each communication phase, whose timing the
    run's channel fills in. ``comms`` lists every communication phase as
    ``(index, phase, overlap target)``; ``overlap_budget`` maps each
    parallel phase's index to its duration. ``sequential``, ``parallel``
    and ``memory_counters`` sum in phase order, as a one-pass loop would,
    so every float matches bit for bit. ``passes`` memoizes each channel
    spec's :class:`_ChannelPass` over this pricing.
    """

    sequential: float
    parallel: float
    memory_counters: Tuple[float, float, float]
    timings: Tuple[Optional[PhaseTiming], ...]
    comms: Tuple[Tuple[int, CommPhase, Optional[int]], ...]
    overlap_budget: Mapping[int, float]
    #: Channel spec -> its :class:`_ChannelPass` over this pricing; at
    #: most :data:`_PASS_LIMIT` entries.
    passes: Dict[ChannelSpec, "_ChannelPass"] = field(
        default_factory=dict, compare=False, repr=False
    )

    def channel_pass(
        self, spec: Optional[ChannelSpec], channel: Callable[[], CommChannel]
    ) -> "_ChannelPass":
        """The pass of ``spec``'s channel over this pricing, run through
        ``channel()`` on first use, and on every use without a spec.

        Equal specs build channels that price every copy alike, so every
        point sharing one (in a rank, every address space of a mechanism)
        shares its pass. A sweep that varies ``comm_params`` per point
        adds a spec per point, so a full memo starts over.
        """
        if spec is None:
            return _ChannelPass.run(self, channel())
        found = self.passes.get(spec)
        if found is None:
            found = _ChannelPass.run(self, channel())
            if len(self.passes) >= _PASS_LIMIT:
                self.passes.clear()
            self.passes[spec] = found
        return found

    @classmethod
    def of(cls, trace: KernelTrace, system: SystemConfig) -> "_ComputePricing":
        """``trace`` priced on ``system``, memoized on the trace.

        One slot per trace: a rank prices each trace on one system for
        every design point, so the slot is re-priced only when the system
        changes (an equal system reuses it).
        """
        slot = trace.__dict__.get(_MEMO_SLOT)
        if slot is None or (slot[0] is not system and slot[0] != system):
            slot = (system, cls._price(trace, AnalyticTiming(system)))
            trace.__dict__[_MEMO_SLOT] = slot
        return slot[1]

    @classmethod
    def _price(cls, trace: KernelTrace, timing: AnalyticTiming) -> "_ComputePricing":
        sequential = parallel = 0.0
        mem_ops = est_misses = est_dram = 0.0
        timings: List[Optional[PhaseTiming]] = []
        comms: List[Tuple[int, CommPhase, Optional[int]]] = []
        overlap_budget: Dict[int, float] = {}
        for index, phase in enumerate(trace.phases):
            if isinstance(phase, SequentialPhase):
                # Serial code runs on one core regardless of num_cores.
                t = timing.cpu_segment_seconds(phase.segment, parallel=False)
                sequential += t
                timings.append(
                    PhaseTiming(label=phase.label, kind="sequential", seconds=t, cpu_seconds=t)
                )
                segments: Tuple[Segment, ...] = (phase.segment,)
            elif isinstance(phase, ParallelPhase):
                cpu_t = timing.cpu_segment_seconds(phase.cpu)
                gpu_t = timing.gpu_segment_seconds(phase.gpu)
                t = max(cpu_t, gpu_t)
                parallel += t
                overlap_budget[index] = t
                timings.append(
                    PhaseTiming(
                        label=phase.label,
                        kind="parallel",
                        seconds=t,
                        cpu_seconds=cpu_t,
                        gpu_seconds=gpu_t,
                    )
                )
                segments = (phase.cpu, phase.gpu)
            elif isinstance(phase, CommPhase):
                comms.append((index, phase, _overlap_phase_index(trace.phases, index)))
                timings.append(None)
                continue
            else:
                raise SimulationError(f"unknown phase type {type(phase).__name__}")
            # Analytic memory-event estimates published alongside the timing.
            for segment in segments:
                o, m, d = timing.estimated_memory_counters(segment)
                mem_ops += o
                est_misses += m
                est_dram += d
        return cls(
            sequential=sequential,
            parallel=parallel,
            memory_counters=(mem_ops, est_misses, est_dram),
            timings=tuple(timings),
            comms=tuple(comms),
            overlap_budget=MappingProxyType(overlap_budget),
        )


@dataclass(frozen=True)
class _ChannelPass:
    """One channel's pass over a :class:`_ComputePricing`: everything
    :meth:`FastSimulator.run` derives from the trace, the system and the
    channel, independent of the point's address space and label.

    ``phases`` is the run's whole phase-timing tuple (compute phases from
    the pricing, communications from the channel), ``communication`` the
    exposed total summed in phase order, and ``counters`` the channel's
    stats after the pass plus the analytic memory counters. Both are
    immutable, so every result of the pass shares them; a run with more
    counters builds its own snapshot.
    """

    phases: Tuple[PhaseTiming, ...]
    communication: float
    counters: MetricSnapshot

    @classmethod
    def run(cls, priced: _ComputePricing, channel: CommChannel) -> "_ChannelPass":
        """Price every communication of ``priced`` through ``channel``.

        Adjacent parallel phases are offered as overlap windows to
        asynchronous channels. Each parallel phase has a finite overlap
        budget (its own duration): an H2D copy before it and a D2H copy
        after it draw from the *same* budget, so the total communication
        hidden under one phase can never exceed the time that phase
        actually runs. The channel consumes the budgets, so every pass
        starts from its own copy.
        """
        overlap_budget = dict(priced.overlap_budget)
        phase_timings = list(priced.timings)
        communication = 0.0
        for index, phase, target in priced.comms:
            window = overlap_budget.get(target, 0.0) if target is not None else 0.0
            result = channel.transfer(phase, overlap_window=window)
            if target is not None and result.overlapped > 0.0:
                overlap_budget[target] = max(
                    0.0, overlap_budget[target] - result.overlapped
                )
            communication += result.exposed
            phase_timings[index] = PhaseTiming(
                label=phase.label,
                kind="communication",
                seconds=result.exposed,
                overlapped_seconds=result.overlapped,
            )
        mem_ops, est_misses, est_dram = priced.memory_counters
        counters: Dict[str, float] = dict(channel.stats())
        counters["cache.memory_ops"] = mem_ops
        counters["cache.estimated_misses"] = est_misses
        counters["dram.estimated_accesses"] = est_dram
        return cls(
            phases=tuple(phase_timings),
            communication=communication,
            counters=MetricSnapshot(counters),
        )


def _overlap_phase_index(phases: Sequence[Phase], comm_index: int) -> Optional[int]:
    """The parallel phase an async copy at ``comm_index`` hides under.

    Host-to-device copies overlap the *following* parallel phase (double
    buffering: the kernel starts on early chunks while later chunks stream
    in); device-to-host copies overlap the *preceding* one (results stream
    out as they finish). How much time the copy may actually claim is that
    phase's remaining overlap budget, tracked by :meth:`FastSimulator.run`.
    """
    comm = phases[comm_index]
    indices = (
        range(comm_index + 1, len(phases))
        if comm.direction is Direction.H2D
        else range(comm_index - 1, -1, -1)
    )
    for j in indices:
        if isinstance(phases[j], ParallelPhase):
            return j
        if isinstance(phases[j], CommPhase):
            break
    return None
