"""The detailed (cycle-approximate) simulator.

Expands every segment into concrete instructions and drives them through
the branch predictor, cache hierarchy, ring, optional directory, and DRAM
of :func:`repro.sim.system.build_machine`. Full Table III traces reach
millions of instructions, so callers normally pass ``scale`` to shrink the
compute phases (communication sizes are preserved — see
:meth:`repro.trace.KernelTrace.scaled`); ablation C cross-checks this
model against the fast simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.addrspace.base import AddressSpace, make_address_space
from repro.config.comm import CommParams
from repro.config.presets import CaseStudy
from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.comm.base import CommChannel, make_channel
from repro.mem.cache.replacement import ReplacementPolicy
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.perf.compiled import SHARED_COMPILE_CACHE, SegmentCompileCache
from repro.sim.engine import run_parallel_interleaved
from repro.sim.mmu import TranslationFront, stage_trace
from repro.sim.results import PhaseTiming, SimulationResult, TimeBreakdown
from repro.sim.system import Machine, build_machine
from repro.taxonomy import AddressSpaceKind, CoherenceKind, ProcessingUnit
from repro.trace.phase import CommPhase, Direction, ParallelPhase, SequentialPhase
from repro.trace.stream import KernelTrace

__all__ = ["DetailedSimulator"]


class DetailedSimulator:
    """Instruction-by-instruction trace simulation on the Table II machine."""

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        comm_params: Optional[CommParams] = None,
        l3_policy: Optional[ReplacementPolicy] = None,
        interleave_parallel: bool = True,
        l1_prefetch: bool = False,
        gpu_mode: str = "heuristic",
        tracer: Tracer = NULL_TRACER,
        compiled: bool = True,
        interleave_quantum: int = 1,
        compile_cache: Optional[SegmentCompileCache] = None,
    ) -> None:
        self.system = system or SystemConfig()
        self.comm_params = comm_params or CommParams()
        self.l3_policy = l3_policy
        #: Attach next-line prefetchers to both L1 data caches.
        self.l1_prefetch = l1_prefetch
        #: GPU scheduler: "heuristic" (warp-divided stalls) or "warp" (a
        #: real greedy warp scheduler).
        self.gpu_mode = gpu_mode
        #: Whether parallel phases run the two cores in timestamp order
        #: (contention-aware) or back-to-back (no cross-PU contention).
        self.interleave_parallel = interleave_parallel
        #: Span tracer (disabled by default; near-zero overhead when off).
        self.tracer = tracer
        #: Execute segments through the compiled hot path
        #: (:mod:`repro.perf.compiled`). Bit-identical to the legacy
        #: generator path; ``False`` forces the legacy expansion (used by
        #: the parity suite and the perf harness baseline).
        self.compiled = compiled
        #: Interleave granularity for parallel phases; 1 is exact, larger
        #: values are a documented approximation (see
        #: :func:`repro.sim.engine.run_parallel_interleaved`).
        if interleave_quantum < 1:
            raise SimulationError(
                f"interleave quantum must be >= 1, got {interleave_quantum}"
            )
        self.interleave_quantum = interleave_quantum
        #: Segment-compilation memo; defaults to the process-wide cache so
        #: design points sharing a trace compile each segment once.
        self.compile_cache = (
            compile_cache if compile_cache is not None else SHARED_COMPILE_CACHE
        )
        self.last_machine: Optional[Machine] = None
        self.last_mmus: "Optional[Dict[ProcessingUnit, TranslationFront]]" = None

    def run(
        self,
        trace: KernelTrace,
        case: Optional[CaseStudy] = None,
        channel: Optional[CommChannel] = None,
        scale: float = 1.0,
        system_name: Optional[str] = None,
        address_space: "AddressSpaceKind | AddressSpace | None" = None,
        coherence: "str | CoherenceKind | None" = None,
    ) -> SimulationResult:
        """Simulate ``trace`` (optionally scaled down) in detail.

        A fresh machine is built per run (caches start cold, as in the
        paper's per-benchmark simulations); it remains inspectable on
        ``self.last_machine`` afterwards.

        With ``address_space`` set (a kind or a prebuilt model), every
        memory access translates through a per-PU TLB and page table: the
        trace is first staged into regions each PU may legally reach (see
        :func:`repro.sim.mmu.stage_trace`), TLB misses pay page walks,
        first touches pay faults, and reachability violations raise.

        ``coherence`` overrides the protocol variant over the shared
        window (``"none" | "snoop" | "directory"`` or a
        :class:`~repro.taxonomy.CoherenceKind`); when omitted it derives
        from the case study's coherence kind, which keeps the historical
        behaviour (only hardware kinds build a protocol).
        """
        if case is None and channel is None:
            raise SimulationError("provide a case study or a channel")
        if channel is None:
            channel = make_channel(
                case.comm,
                params=self.comm_params,
                system=self.system,
                async_overlap=case.async_overlap,
            )
        name = system_name or (case.name if case else str(channel.mechanism))
        if scale != 1.0:
            trace = trace.scaled(scale)

        space: Optional[AddressSpace] = None
        if address_space is not None:
            space = (
                address_space
                if isinstance(address_space, AddressSpace)
                else make_address_space(address_space, self.system)
            )
            trace = stage_trace(trace, space)

        if coherence is None and case is not None:
            coherence = case.coherence
        machine = build_machine(
            self.system,
            l3_policy=self.l3_policy,
            coherence=coherence,
            l1_prefetch=self.l1_prefetch,
            gpu_mode=self.gpu_mode,
        )
        self.last_machine = machine
        self.last_mmus = None
        if space is not None:
            cpu_mmu = TranslationFront(ProcessingUnit.CPU, space, machine.cpu_core.memory)
            gpu_mmu = TranslationFront(ProcessingUnit.GPU, space, machine.gpu_core.memory)
            machine.cpu_core.memory = cpu_mmu
            machine.gpu_core.memory = gpu_mmu
            self.last_mmus = {ProcessingUnit.CPU: cpu_mmu, ProcessingUnit.GPU: gpu_mmu}

        cpu_freq = self.system.cpu.frequency
        gpu_freq = self.system.gpu.frequency

        sequential = parallel = communication = 0.0
        now = 0.0
        last_parallel_seconds = 0.0
        pending_h2d: List[CommPhase] = []
        phase_timings: List[PhaseTiming] = []

        # Hoisted tracing state: with the NULL tracer the per-phase cost is
        # a single falsy check — no track label, no timestamp math, no
        # sample dict allocations.
        tracer = self.tracer
        tracing = tracer.enabled
        track = f"{trace.name} @ {name}" if tracing else ""
        compiled = self.compiled
        compile_get = self.compile_cache.get

        def sample_memory(at_seconds: float) -> None:
            """Emit memory-hierarchy 'C' counter samples at ``at_seconds``."""
            ts = at_seconds * 1e6
            tracer.counter(
                track, "l3", "l3", ts,
                {"hits": machine.l3.hits, "misses": machine.l3.misses},
            )
            tracer.counter(track, "ring", "ring", ts, {"messages": machine.ring.messages})
            tracer.counter(
                track, "dram", "dram", ts,
                {"requests": machine.dram.stats().get("requests", 0.0)},
            )

        def resolve_pending(window: float) -> None:
            nonlocal communication, now
            for comm in pending_h2d:
                result = channel.transfer(comm, overlap_window=window)
                if tracing:
                    tracer.complete(
                        track,
                        "comm-link",
                        comm.label,
                        now * 1e6,
                        result.exposed * 1e6,
                        args={"overlapped_us": result.overlapped * 1e6},
                    )
                communication += result.exposed
                now += result.exposed
                phase_timings.append(
                    PhaseTiming(
                        label=comm.label,
                        kind="communication",
                        seconds=result.exposed,
                        overlapped_seconds=result.overlapped,
                    )
                )
            pending_h2d.clear()

        for phase in trace.phases:
            if isinstance(phase, SequentialPhase):
                cycles = machine.cpu_core.run_segment(
                    compile_get(phase.segment)
                    if compiled
                    else phase.segment.instructions(),
                    start_seconds=now,
                )
                seconds = cpu_freq.cycles_to_seconds(cycles)
                if tracing:
                    tracer.complete(track, "cpu-core", phase.label, now * 1e6, seconds * 1e6)
                sequential += seconds
                now += seconds
                if tracing:
                    sample_memory(now)
                phase_timings.append(
                    PhaseTiming(
                        label=phase.label,
                        kind="sequential",
                        seconds=seconds,
                        cpu_seconds=seconds,
                    )
                )
            elif isinstance(phase, ParallelPhase):
                if self.interleave_parallel:
                    outcome = run_parallel_interleaved(
                        machine.cpu_core,
                        machine.gpu_core,
                        compile_get(phase.cpu) if compiled else phase.cpu,
                        compile_get(phase.gpu) if compiled else phase.gpu,
                        start_seconds=now,
                        quantum=self.interleave_quantum,
                    )
                    cpu_seconds = outcome.cpu_seconds
                    gpu_seconds = outcome.gpu_seconds
                else:
                    cpu_cycles = machine.cpu_core.run_segment(
                        compile_get(phase.cpu)
                        if compiled
                        else phase.cpu.instructions(),
                        start_seconds=now,
                    )
                    gpu_cycles = machine.gpu_core.run_segment(
                        compile_get(phase.gpu)
                        if compiled
                        else phase.gpu.instructions(),
                        start_seconds=now,
                    )
                    cpu_seconds = cpu_freq.cycles_to_seconds(cpu_cycles)
                    gpu_seconds = gpu_freq.cycles_to_seconds(gpu_cycles)
                seconds = max(cpu_seconds, gpu_seconds)
                # Any deferred H2D copies overlapped with this phase.
                resolve_pending(seconds)
                if tracing:
                    tracer.complete(track, "cpu-core", phase.label, now * 1e6, cpu_seconds * 1e6)
                    tracer.complete(track, "gpu-core", phase.label, now * 1e6, gpu_seconds * 1e6)
                parallel += seconds
                now += seconds
                if tracing:
                    sample_memory(now)
                last_parallel_seconds = seconds
                phase_timings.append(
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
                    # Defer: an async channel overlaps with the phase that
                    # *follows* the copy.
                    pending_h2d.append(phase)
                    continue
                result = channel.transfer(phase, overlap_window=last_parallel_seconds)
                if tracing:
                    tracer.complete(
                        track,
                        "comm-link",
                        phase.label,
                        now * 1e6,
                        result.exposed * 1e6,
                        args={"overlapped_us": result.overlapped * 1e6},
                    )
                communication += result.exposed
                now += result.exposed
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
        resolve_pending(0.0)

        counters: Dict[str, float] = dict(channel.stats())
        for component, stats in machine.stats().items():
            for key, value in stats.items():
                counters[f"{component}.{key}"] = value
        if self.last_mmus is not None:
            for pu, mmu in self.last_mmus.items():
                for key, value in mmu.stats().items():
                    counters[f"mmu.{pu}.{key}"] = value
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
