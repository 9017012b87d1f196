"""The fast (segment-analytic) simulator.

Reproduces the paper's quantitative methodology directly: compute phases
are priced by the analytic core models; communication phases are priced by
the case study's channel with the Table IV latencies; asynchronous
channels may hide copy time under the adjacent parallel phase (GMAC).

Optionally, an :class:`~repro.taxonomy.AddressSpaceKind` adds the *extra
instructions* each address space needs around communications (the §V-B
experiment, Figure 7): a handful of API instructions per communication,
which is exactly why that figure is flat.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.addrspace.layout import SHARED_BASE
from repro.config.comm import CommParams
from repro.config.presets import CaseStudy
from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.comm.base import CommChannel, make_channel
from repro.mem.coherence.api import resolve_protocol_kind
from repro.sim.analytic import AnalyticTiming
from repro.sim.results import PhaseTiming, SimulationResult, TimeBreakdown
from repro.taxonomy import AddressSpaceKind, CoherenceKind
from repro.trace.phase import CommPhase, ParallelPhase, Segment, SequentialPhase
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
        self.timing = AnalyticTiming(self.system)

    # -- channel selection ----------------------------------------------------

    def _channel_for(self, case: CaseStudy) -> CommChannel:
        return make_channel(
            case.comm,
            params=self.comm_params,
            system=self.system,
            async_overlap=case.async_overlap,
        )

    # -- main entry point -------------------------------------------------------

    def run(
        self,
        trace: KernelTrace,
        case: Optional[CaseStudy] = None,
        channel: Optional[CommChannel] = None,
        address_space: Optional[AddressSpaceKind] = None,
        system_name: Optional[str] = None,
        coherence: "str | CoherenceKind | None" = None,
    ) -> SimulationResult:
        """Simulate ``trace`` on a case-study system (or explicit channel).

        Exactly one of ``case``/``channel`` selects the communication
        mechanism; ``address_space`` adds the per-communication space
        management instructions (Figure 7 experiment).

        ``coherence`` publishes analytic invalidation-traffic estimates
        (``coherence.estimated_*`` counters) for the requested protocol
        variant so metrics-diffing fast against detailed runs stays
        meaningful on coherent design points. It must be requested
        explicitly — unlike the detailed simulator, the case study's
        coherence kind is deliberately *not* consulted, so every
        historical fast-path figure stays byte-identical.
        """
        if case is None and channel is None:
            raise SimulationError("provide a case study or a channel")
        if channel is None:
            channel = self._channel_for(case)
        name = system_name or (case.name if case else str(channel.mechanism))

        # Pass 1: price every compute phase.
        compute_seconds: Dict[int, Tuple[float, float]] = {}
        for index, phase in enumerate(trace.phases):
            if isinstance(phase, SequentialPhase):
                # Serial code runs on one core regardless of num_cores.
                t = self.timing.cpu_segment_seconds(phase.segment, parallel=False)
                compute_seconds[index] = (t, 0.0)
            elif isinstance(phase, ParallelPhase):
                cpu_t = self.timing.cpu_segment_seconds(phase.cpu)
                gpu_t = self.timing.gpu_segment_seconds(phase.gpu)
                compute_seconds[index] = (cpu_t, gpu_t)

        # Pass 2: price communications, offering adjacent parallel phases
        # as overlap windows to asynchronous channels. Each parallel phase
        # has a finite overlap budget (its own duration): an H2D copy before
        # it and a D2H copy after it draw from the *same* budget, so the
        # total communication hidden under one phase can never exceed the
        # time that phase actually runs.
        overlap_budget: Dict[int, float] = {
            index: max(cpu_t, gpu_t)
            for index, (cpu_t, gpu_t) in compute_seconds.items()
            if isinstance(trace.phases[index], ParallelPhase)
        }
        sequential = parallel = communication = 0.0
        phase_timings: List[PhaseTiming] = []
        # Analytic memory-event estimates published alongside the timing.
        mem_ops = est_misses = est_dram = 0.0
        for index, phase in enumerate(trace.phases):
            if isinstance(phase, SequentialPhase):
                t, _ = compute_seconds[index]
                sequential += t
                phase_timings.append(
                    PhaseTiming(label=phase.label, kind="sequential", seconds=t, cpu_seconds=t)
                )
                o, m, d = self.timing.estimated_memory_counters(phase.segment)
                mem_ops += o
                est_misses += m
                est_dram += d
            elif isinstance(phase, ParallelPhase):
                cpu_t, gpu_t = compute_seconds[index]
                t = max(cpu_t, gpu_t)
                parallel += t
                phase_timings.append(
                    PhaseTiming(
                        label=phase.label,
                        kind="parallel",
                        seconds=t,
                        cpu_seconds=cpu_t,
                        gpu_seconds=gpu_t,
                    )
                )
                for segment in (phase.cpu, phase.gpu):
                    o, m, d = self.timing.estimated_memory_counters(segment)
                    mem_ops += o
                    est_misses += m
                    est_dram += d
            elif isinstance(phase, CommPhase):
                target = self._overlap_phase_index(trace, index)
                window = overlap_budget.get(target, 0.0) if target is not None else 0.0
                result = channel.transfer(phase, overlap_window=window)
                if target is not None and result.overlapped > 0.0:
                    overlap_budget[target] = max(
                        0.0, overlap_budget[target] - result.overlapped
                    )
                communication += result.exposed
                phase_timings.append(
                    PhaseTiming(
                        label=phase.label,
                        kind="communication",
                        seconds=result.exposed,
                        overlapped_seconds=result.overlapped,
                    )
                )
            else:
                raise SimulationError(f"unknown phase type {type(phase).__name__}")

        # Address-space management instructions (Figure 7 experiment).
        if address_space is not None:
            extra = SPACE_OVERHEAD_INSTRUCTIONS[address_space] * trace.num_communications
            extra_seconds = self.system.cpu.frequency.cycles_to_seconds(extra)
            sequential += extra_seconds

        counters: Dict[str, float] = dict(channel.stats())
        counters["cache.memory_ops"] = mem_ops
        counters["cache.estimated_misses"] = est_misses
        counters["dram.estimated_accesses"] = est_dram
        if coherence is not None:
            kind = resolve_protocol_kind(coherence)
            if kind != "none":
                counters.update(self.estimated_coherence_counters(trace, kind))
        return SimulationResult(
            kernel=trace.name,
            system=name,
            breakdown=TimeBreakdown(
                sequential=sequential,
                parallel=parallel,
                communication=communication,
            ),
            phases=tuple(phase_timings),
            counters=counters,
        )

    # -- analytic coherence-traffic estimate ----------------------------------

    def estimated_coherence_counters(
        self, trace: KernelTrace, kind: str
    ) -> Dict[str, float]:
        """Analytic invalidation-traffic estimate for protocol ``kind``.

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
        line = float(self.system.l3.line_bytes)
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

    @staticmethod
    def _overlap_phase_index(trace: KernelTrace, comm_index: int) -> Optional[int]:
        """The parallel phase an async copy at ``comm_index`` hides under.

        Host-to-device copies overlap the *following* parallel phase
        (double buffering: the kernel starts on early chunks while later
        chunks stream in); device-to-host copies overlap the *preceding*
        one (results stream out as they finish). How much time the copy may
        actually claim is that phase's remaining overlap budget, tracked by
        :meth:`run`.
        """
        phases = trace.phases
        # Look forward for H2D, backward for D2H.
        from repro.trace.phase import Direction

        comm = phases[comm_index]
        assert isinstance(comm, CommPhase)
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
