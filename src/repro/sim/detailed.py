"""The detailed (cycle-approximate) simulator.

Drives every instruction of a trace through the branch predictor, cache
hierarchy, ring, optional directory, and DRAM of
:func:`repro.sim.system.build_machine`. Full Table III traces reach
millions of instructions, so callers normally pass ``scale`` to shrink the
compute phases (communication sizes are preserved — see
:meth:`repro.trace.KernelTrace.scaled`); ablation C cross-checks this
model against the fast simulator.

A run is one point of :class:`repro.perf.sweep.MachineSimulator`: the
one production phase walk, :func:`repro.perf.sweep.walk_phases`, over
the point's machine. The per-instruction generator expansion survives
only as the reference oracle in :mod:`repro.sim.reference`, which
overrides the ``_walk`` hook.
"""

from __future__ import annotations

from typing import Optional

from repro.addrspace.base import AddressSpace
from repro.config.presets import CaseStudy
from repro.errors import SimulationError
from repro.comm.base import CommChannel
from repro.perf.sweep import MachineSimulator, SweepPoint

# Not called here: the benchmark's ``engine.interleaved`` span
# (``perfbench/layers.py``) patches this module's binding too.
from repro.sim.engine import run_parallel_interleaved  # noqa: F401
from repro.sim.results import SimulationResult
from repro.taxonomy import AddressSpaceKind, CoherenceKind
from repro.trace.stream import KernelTrace

__all__ = ["DetailedSimulator"]


class DetailedSimulator(MachineSimulator):
    """Instruction-by-instruction trace simulation on the Table II machine."""

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

        ``case`` or an explicit ``channel`` (which wins over the case's)
        selects the communication mechanism; label and protocol are
        decided by the :class:`~repro.perf.sweep.SweepPoint` they form.

        With ``address_space`` set (a kind or a prebuilt model), every
        memory access translates through a per-PU TLB and page table: the
        trace is first staged into regions each PU may legally reach (see
        :func:`repro.sim.mmu.stage_trace`), TLB misses pay page walks,
        first touches pay faults, and reachability violations raise.

        ``coherence`` overrides the protocol variant over the shared
        window (``"none" | "snoop" | "directory"`` or a
        :class:`~repro.taxonomy.CoherenceKind`); when omitted it derives
        from the case study's coherence kind (only hardware kinds build a
        protocol).
        """
        if case is None and channel is None:
            raise SimulationError("provide a case study or a channel")
        point = SweepPoint(
            case=case,
            mechanism=channel.mechanism if case is None else None,
            address_space=address_space,
            system_name=system_name,
            coherence=coherence,
        )
        if scale != 1.0:
            trace = trace.scaled(scale)
        return self._simulate(trace, point, channel)
