"""The detailed (cycle-approximate) simulator.

Drives every instruction of a trace through the branch predictor, cache
hierarchy, ring, optional directory, and DRAM of
:func:`repro.sim.system.build_machine`. Full Table III traces reach
millions of instructions, so callers normally pass ``scale`` to shrink the
compute phases (communication sizes are preserved — see
:meth:`repro.trace.KernelTrace.scaled`); ablation C cross-checks this
model against the fast simulator.

A run is the one production phase walk,
:func:`repro.perf.sweep.walk_phases`, over a batch of one machine; the
per-instruction generator expansion survives only as the reference
oracle in :mod:`repro.sim.reference`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.addrspace.base import AddressSpace, make_address_space
from repro.config.comm import CommParams
from repro.config.presets import CaseStudy
from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.comm.base import CommChannel, make_channel
from repro.mem.cache.replacement import ReplacementPolicy
from repro.perf import sweep
from repro.perf.compiled import SHARED_COMPILE_CACHE, SegmentCompileCache

# Not called here: the benchmark's ``engine.interleaved`` span
# (``perfbench/layers.py``) patches this module's binding too.
from repro.sim.engine import run_parallel_interleaved  # noqa: F401
from repro.sim.mmu import stage_trace
from repro.sim.results import PhaseTiming, SimulationResult, TimeBreakdown
from repro.sim.system import Machine, build_machine
from repro.taxonomy import AddressSpaceKind, CoherenceKind
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
        #: Segment-compilation memo; defaults to the process-wide cache so
        #: design points sharing a trace compile each segment once.
        self.compile_cache = (
            compile_cache if compile_cache is not None else SHARED_COMPILE_CACHE
        )
        self.last_machine: Optional[Machine] = None
        self.last_mmus: Optional[sweep.Mmus] = None

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
        self.last_mmus = (
            sweep.install_translation(machine, space) if space is not None else None
        )
        breakdown, phases = self._walk(trace, machine, channel)
        return SimulationResult(
            kernel=trace.name,
            system=name,
            breakdown=breakdown,
            phases=phases,
            counters=sweep.merged_counters(channel, machine, self.last_mmus),
        )

    def _walk(
        self, trace: KernelTrace, machine: Machine, channel: CommChannel
    ) -> Tuple[TimeBreakdown, Tuple[PhaseTiming, ...]]:
        """The phase walk: :func:`repro.perf.sweep.walk_phases` with N=1."""
        return sweep.walk_phases(
            trace, [machine], [channel], self.compile_cache, self.interleave_parallel
        )[0]
