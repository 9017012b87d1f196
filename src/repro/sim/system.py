"""Builds the full detailed machine from a :class:`SystemConfig`.

Topology (Table II): each PU's private hierarchy reaches the shared,
tiled L3 over the ring; the L3 reaches the DRAM controllers over the ring;
a coherence protocol (optional — the ``none | snoop | directory`` axis)
keeps shared-window data coherent between the PUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.addrspace.layout import SHARED_BASE
from repro.mem.cache.cache import Cache
from repro.mem.cache.hierarchy import build_cpu_hierarchy, build_gpu_hierarchy
from repro.mem.cache.replacement import HybridLocalityPolicy, ReplacementPolicy
from repro.mem.coherence.api import CoherenceProtocol, protocol_for
from repro.mem.coherence.directory import Directory
from repro.mem.coherence.protocol import set_block_state
from repro.mem.dram.controller import DramSystem
from repro.mem.interconnect.ring import RingNetwork, RingPath
from repro.mem.level import MemoryLevel
from repro.sim.cpu.core import CpuCore
from repro.sim.gpu.core import GpuCore
from repro.taxonomy import CoherenceKind, ProcessingUnit

__all__ = ["Machine", "CoherentFront", "build_machine"]


class CoherentFront(MemoryLevel):
    """Per-PU front-end enforcing protocol coherence on shared addresses.

    Wraps a PU's top-level cache: accesses to the shared window consult the
    coherence protocol (directory or snoop bus) first; when the peer holds
    a conflicting copy, its private caches are invalidated and the protocol
    messages are charged as ring traversals on the critical path. The
    protocol's per-line MESI state is mirrored onto the local L1's
    :class:`~repro.mem.cache.block.CacheBlock` after each access.
    """

    def __init__(
        self,
        pu: ProcessingUnit,
        below: MemoryLevel,
        protocol: CoherenceProtocol,
        ring: RingNetwork,
        peer_caches: "list[Cache]",
        shared_predicate: Callable[[int], bool],
    ) -> None:
        self.pu = pu
        self.below = below
        self.protocol = protocol
        self.ring = ring
        self.peer_caches = peer_caches
        self.shared_predicate = shared_predicate
        self.name = f"coherent-front[{pu}]"
        self.coherence_latency = 0.0
        #: The local L1's block lookup, when the wrapped level exposes one
        #: (it always does in the standard topology).
        self._block_for = getattr(below, "block_for", None)

    def access(
        self, addr: int, is_write: bool = False, issue_time: float = 0.0, explicit: bool = False
    ) -> float:
        extra = 0.0
        shared = self.shared_predicate(addr)
        if shared:
            action = self.protocol.access(addr, self.pu, is_write)
            if action.invalidate_peer:
                for cache in self.peer_caches:
                    cache.invalidate_line(addr)
            if action.extra_latency_messages:
                extra = action.extra_latency_messages * self.ring.transit_seconds(
                    str(self.pu), str(self.pu.other), 16
                )
                self.coherence_latency += extra
        below = self.below.access(addr, is_write, issue_time, explicit)
        if shared and self._block_for is not None:
            block = self._block_for(addr)
            if block is not None:
                set_block_state(block, self.protocol.state_of(addr, self.pu))
        return below + extra

    def stats(self) -> Dict[str, float]:
        data = dict(self.protocol.stats())
        data["coherence_latency_s"] = self.coherence_latency
        return data


@dataclass
class Machine:
    """The assembled detailed machine."""

    config: SystemConfig
    dram: DramSystem
    ring: RingNetwork
    l3: Cache
    cpu_l1d: Cache
    cpu_l2: Cache
    gpu_l1d: Cache
    cpu_core: CpuCore
    gpu_core: GpuCore
    directory: Optional[Directory] = None
    #: The active coherence protocol — the :attr:`directory` when the
    #: machine runs the directory variant, a
    #: :class:`~repro.mem.coherence.snoop.SnoopBus` for the snoop variant,
    #: ``None`` for ``coherence="none"``.
    protocol: Optional[CoherenceProtocol] = None

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-component counters, keyed by component name."""
        data: Dict[str, Dict[str, float]] = {
            "cpu_core": self.cpu_core.stats(),
            "gpu_core": self.gpu_core.stats(),
            "cpu.l1d": self.cpu_l1d.stats(),
            "cpu.l2": self.cpu_l2.stats(),
            "gpu.l1d": self.gpu_l1d.stats(),
            "l3": self.l3.stats(),
            "ring": self.ring.stats(),
            "dram": self.dram.stats(),
        }
        if self.directory is not None:
            data["directory"] = self.directory.stats()
        elif self.protocol is not None:
            data[self.protocol.kind] = self.protocol.stats()
        return data


def _is_shared_addr(addr: int) -> bool:
    return addr >= SHARED_BASE


def build_machine(
    config: Optional[SystemConfig] = None,
    l3_policy: Optional[ReplacementPolicy] = None,
    shared_predicate: Callable[[int], bool] = _is_shared_addr,
    l1_prefetch: bool = False,
    gpu_mode: str = "heuristic",
    coherence: "Union[str, CoherenceKind, None]" = None,
) -> Machine:
    """Assemble the Table II machine.

    ``l3_policy`` installs a custom shared-cache replacement policy (pass a
    :class:`HybridLocalityPolicy` for the §II-B5 hybrid scheme);
    ``coherence`` selects the protocol variant over the shared window
    (``"none"``, ``"snoop"``, ``"directory"``, or a
    :class:`~repro.taxonomy.CoherenceKind`; default ``"none"``);
    ``l1_prefetch`` attaches next-line
    prefetchers to both L1 data caches; ``gpu_mode`` selects the GPU
    scheduler (``"heuristic"`` or ``"warp"``).
    """
    from repro.mem.cache.prefetch import NextLinePrefetcher

    config = config or SystemConfig()
    dram = DramSystem(config.dram, line_bytes=config.l3.line_bytes)
    ring = RingNetwork(config.interconnect, ["cpu", "gpu", "l3", "mc"])
    l3_below = RingPath(ring, "l3", "mc", dram, payload_bytes=config.l3.line_bytes)
    l3 = Cache(config.l3, config.cpu.frequency, next_level=l3_below, policy=l3_policy)

    cpu_path = RingPath(ring, "cpu", "l3", l3, payload_bytes=config.l3.line_bytes)
    cpu_l1d, cpu_l2 = build_cpu_hierarchy(
        config.cpu,
        cpu_path,
        l1_prefetcher=NextLinePrefetcher() if l1_prefetch else None,
    )
    gpu_path = RingPath(ring, "gpu", "l3", l3, payload_bytes=config.l3.line_bytes)
    gpu_l1d = build_gpu_hierarchy(
        config.gpu,
        gpu_path,
        l1_prefetcher=NextLinePrefetcher() if l1_prefetch else None,
    )

    protocol = protocol_for(coherence, config.l3.line_bytes)
    cpu_top: MemoryLevel = cpu_l1d
    gpu_top: MemoryLevel = gpu_l1d
    if protocol is not None:
        cpu_top = CoherentFront(
            ProcessingUnit.CPU, cpu_l1d, protocol, ring, [gpu_l1d], shared_predicate
        )
        gpu_top = CoherentFront(
            ProcessingUnit.GPU, gpu_l1d, protocol, ring, [cpu_l1d, cpu_l2], shared_predicate
        )

    cpu_core = CpuCore(config.cpu, cpu_top)
    gpu_core = GpuCore(config.gpu, gpu_top, mode=gpu_mode)
    return Machine(
        config=config,
        dram=dram,
        ring=ring,
        l3=l3,
        cpu_l1d=cpu_l1d,
        cpu_l2=cpu_l2,
        gpu_l1d=gpu_l1d,
        cpu_core=cpu_core,
        gpu_core=gpu_core,
        directory=protocol if isinstance(protocol, Directory) else None,
        protocol=protocol,
    )
