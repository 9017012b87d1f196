"""Address translation for the detailed simulator.

§II-A1 notes that per-PU page-table formats "complicate TLB designs and
memory management units"; this module makes those costs visible:

- :class:`TranslationFront` wraps a PU's top memory level with a TLB and
  the PU's page table from a real :class:`~repro.addrspace.base.AddressSpace`
  model. TLB misses pay a page-walk latency; first touches of unmapped
  pages pay an OS fault cost; and **reachability is enforced** — a PU
  touching an address its space forbids raises
  :class:`~repro.errors.AccessViolationError`, exactly as the model demands;
- :func:`stage_trace` rewrites a kernel trace's segment base addresses into
  regions each PU may legally reach under a given address space (what the
  runtime's allocation + transfer calls accomplish in a real system);
- :func:`stage_shared_trace` rebases the data an address space *shares*
  into the shared window, so a coherence protocol over that window sees
  the sharing the space actually exposes (the coherence-overhead
  experiment's staging).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.addrspace.base import AddressSpace
from repro.addrspace.layout import CPU_PRIVATE_BASE, GPU_PRIVATE_BASE, SHARED_BASE
from repro.addrspace.tlb import TLB
from repro.errors import SimulationError
from repro.mem.level import MemoryLevel
from repro.taxonomy import AddressSpaceKind, ProcessingUnit
from repro.trace.phase import CommPhase, ParallelPhase, Phase, Segment, SequentialPhase
from repro.trace.stream import KernelTrace

__all__ = ["TranslationFront", "stage_trace", "stage_shared_trace"]

#: Page-table-walk latency (two-level walk hitting the cache hierarchy).
DEFAULT_WALK_SECONDS = 30e-9
#: OS cost of servicing a minor page fault.
DEFAULT_FAULT_SECONDS = 1e-6


class TranslationFront(MemoryLevel):
    """TLB + page-table translation in front of a PU's cache hierarchy."""

    def __init__(
        self,
        pu: ProcessingUnit,
        space: AddressSpace,
        below: MemoryLevel,
        tlb_entries: int = 64,
        walk_seconds: float = DEFAULT_WALK_SECONDS,
        fault_seconds: float = DEFAULT_FAULT_SECONDS,
    ) -> None:
        if walk_seconds < 0 or fault_seconds < 0:
            raise SimulationError("walk/fault latencies must be non-negative")
        self.pu = pu
        self.space = space
        self.below = below
        self.page_table = space.page_tables[pu]
        self.tlb = TLB(tlb_entries, self.page_table.page_bytes)
        self.walk_seconds = walk_seconds
        self.fault_seconds = fault_seconds
        self.name = f"mmu[{pu}]"
        self.walks = 0
        self.faults_serviced = 0
        self.translation_latency = 0.0

    def access(
        self, addr: int, is_write: bool = False, issue_time: float = 0.0, explicit: bool = False
    ) -> float:
        extra = 0.0
        frame = self.tlb.lookup(addr)
        if frame is None:
            # Walk the page table; reachability is checked by the space.
            self.walks += 1
            extra += self.walk_seconds
            faults_before = self.page_table.page_faults
            self.space.translate(self.pu, addr, on_demand=True)
            if self.page_table.page_faults > faults_before:
                self.faults_serviced += 1
                extra += self.fault_seconds
            frame = self.page_table.translate(addr) // self.page_table.page_bytes
            self.tlb.install(addr, frame)
        self.translation_latency += extra
        below = self.below.access(addr, is_write, issue_time + extra, explicit)
        return below + extra

    def stats(self) -> Dict[str, float]:
        data: Dict[str, float] = dict(self.tlb.stats())
        data["walks"] = self.walks
        data["faults_serviced"] = self.faults_serviced
        data["translation_latency_s"] = self.translation_latency
        return data


def _gpu_placement(kind: AddressSpaceKind) -> "tuple[ProcessingUnit, bool]":
    """(home PU, shared?) for data the GPU computes on, per address space.

    Mirrors what the programming model's allocation calls do: a disjoint
    space stages GPU data in GPU-private memory; PAS and ADSM put it in the
    shared window; a unified space can leave it anywhere (we home it on the
    GPU as the locality hint).
    """
    if kind in (AddressSpaceKind.PARTIALLY_SHARED, AddressSpaceKind.ADSM):
        return ProcessingUnit.GPU, True
    return ProcessingUnit.GPU, False


def stage_trace(trace: KernelTrace, space: AddressSpace) -> KernelTrace:
    """Rebase every segment into a region its PU may reach under ``space``.

    CPU and sequential segments land in CPU-private memory; GPU segments
    land where the space's programming model would stage them (see
    :func:`_gpu_placement`). Buffers are deduplicated by original base
    address, so a region touched by several phases is allocated once.
    """
    placements: Dict[int, int] = {}
    counter = [0]

    def rebase(segment: Segment) -> Segment:
        if segment.footprint_bytes == 0:
            return segment
        key = segment.base_addr
        if key not in placements:
            counter[0] += 1
            name = f"stage-{counter[0]}-{segment.label or 'buf'}"
            if segment.pu is ProcessingUnit.GPU:
                home, shared = _gpu_placement(space.kind)
            else:
                home, shared = ProcessingUnit.CPU, False
            allocation = space.alloc(
                name, segment.footprint_bytes, pu=home, shared=shared
            )
            placements[key] = allocation.addr
        return Segment(
            pu=segment.pu,
            mix=segment.mix,
            base_addr=placements[key],
            footprint_bytes=segment.footprint_bytes,
            elem_bytes=segment.elem_bytes,
            label=segment.label,
        )

    phases: List[Phase] = []
    for phase in trace.phases:
        if isinstance(phase, SequentialPhase):
            phases.append(SequentialPhase(label=phase.label, segment=rebase(phase.segment)))
        elif isinstance(phase, ParallelPhase):
            phases.append(
                ParallelPhase(label=phase.label, cpu=rebase(phase.cpu), gpu=rebase(phase.gpu))
            )
        else:
            phases.append(phase)
    return KernelTrace(name=trace.name, phases=tuple(phases))


def stage_shared_trace(trace: KernelTrace, kind: AddressSpaceKind) -> KernelTrace:
    """Rebase the data ``kind`` shares between the PUs into the shared window.

    The raw kernel traces keep their buffers in the private regions, so a
    coherence protocol watching the shared window (see
    :class:`~repro.sim.system.CoherentFront`) never fires on them. This
    staging expresses how much of the working set each address space
    actually exposes to coherent sharing:

    - **unified** — every address is reachable by every PU, so the whole
      trace moves into the shared window (hardware coherence over a
      unified space covers all data);
    - **partially shared / ADSM** — the kernel-phase buffers live in the
      shared window (that is where the programming model stages GPU data);
      serial-phase CPU work stays private;
    - **disjoint** — nothing is shared; the trace is returned unchanged,
      and a protocol over it measures zero traffic.

    The rebase is a pure offset shift (``addr - CPU_PRIVATE_BASE +
    SHARED_BASE``), so segments that overlapped in the private layout —
    the CPU and GPU halves of a parallel phase working the same array —
    overlap identically in the shared window, which is exactly what the
    protocol's invalidation traffic measures.

    One producer-consumer rule on top of the shift: in a shared space a
    sequential phase that works on a *result* buffer (the raw trace keeps
    those in the output region) consumes the GPU's data **in place** —
    that is the point of coherent shared memory; the disjoint path's
    explicit copy-out is what makes such a phase private. Those segments
    rebase onto the most recent parallel GPU segment's staged base, so the
    CPU's merge/update work hits lines the GPU holds Modified — the
    migratory sharing that drives the protocols' invalidation and
    downgrade traffic.
    """
    if kind is AddressSpaceKind.DISJOINT:
        return trace
    share_serial = kind is AddressSpaceKind.UNIFIED

    def rebase(segment: Segment) -> Segment:
        if segment.footprint_bytes == 0 or segment.base_addr >= SHARED_BASE:
            return segment
        return Segment(
            pu=segment.pu,
            mix=segment.mix,
            base_addr=segment.base_addr - CPU_PRIVATE_BASE + SHARED_BASE,
            footprint_bytes=segment.footprint_bytes,
            elem_bytes=segment.elem_bytes,
            label=segment.label,
        )

    phases: List[Phase] = []
    last_gpu_base: Optional[int] = None
    for phase in trace.phases:
        if isinstance(phase, SequentialPhase):
            segment = phase.segment
            consumes_results = (
                last_gpu_base is not None
                and segment.footprint_bytes > 0
                and GPU_PRIVATE_BASE <= segment.base_addr < SHARED_BASE
            )
            if consumes_results:
                segment = Segment(
                    pu=segment.pu,
                    mix=segment.mix,
                    base_addr=last_gpu_base,
                    footprint_bytes=segment.footprint_bytes,
                    elem_bytes=segment.elem_bytes,
                    label=segment.label,
                )
            elif share_serial:
                segment = rebase(segment)
            phases.append(SequentialPhase(label=phase.label, segment=segment))
        elif isinstance(phase, ParallelPhase):
            cpu = rebase(phase.cpu)
            gpu = rebase(phase.gpu)
            if gpu.footprint_bytes > 0:
                last_gpu_base = gpu.base_addr
            phases.append(ParallelPhase(label=phase.label, cpu=cpu, gpu=gpu))
        else:
            phases.append(phase)
    return KernelTrace(name=trace.name, phases=tuple(phases))
