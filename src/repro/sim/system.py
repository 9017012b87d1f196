"""Builds the full detailed machine from a :class:`SystemConfig`.

Topology (Table II): each PU's private hierarchy reaches the shared,
tiled L3 over the ring; the L3 reaches the DRAM controllers over the ring;
a coherence protocol (optional — the ``none | snoop | directory`` axis)
keeps shared-window data coherent between the PUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.addrspace.layout import SHARED_BASE
from repro.mem.cache.cache import Cache
from repro.mem.cache.hierarchy import build_cpu_hierarchy, build_gpu_hierarchy
from repro.mem.cache.replacement import HybridLocalityPolicy, ReplacementPolicy
from repro.mem.coherence.api import CoherenceProtocol, protocol_for
from repro.mem.coherence.directory import Directory
from repro.mem.dram.controller import DramSystem
from repro.mem.interconnect.ring import REQUEST_BYTES, RingNetwork, RingPath
from repro.mem.level import MemoryLevel, Probe
from repro.sim.cpu.core import CpuCore
from repro.sim.gpu.core import GpuCore
from repro.taxonomy import CoherenceKind, ProcessingUnit

__all__ = ["Machine", "CoherentFront", "build_machine"]


class CoherentFront(MemoryLevel):
    """Per-PU front-end enforcing protocol coherence on shared addresses.

    Wraps a PU's top-level cache. Accesses at or above ``shared_base``
    (the shared window) take the protocol's bound step for this PU
    (:meth:`~repro.mem.coherence.api.CoherenceProtocol.accessor`) first;
    when the peer holds a conflicting copy, its private caches are
    invalidated and the protocol messages are charged as ring traversals
    on the critical path, each one PU-to-PU leg priced once at
    construction.

    Below the shared window the peer never invalidates this PU's caches,
    so :meth:`private_window` hands the wrapped L1's probe to the core for
    those addresses, and :meth:`miss` finishes their missed probes in the
    L1.
    """

    def __init__(
        self,
        pu: ProcessingUnit,
        below: MemoryLevel,
        protocol: CoherenceProtocol,
        ring: RingNetwork,
        peer_caches: "list[Cache]",
        shared_base: int = SHARED_BASE,
    ) -> None:
        self.pu = pu
        self.below = below
        self.protocol = protocol
        self.ring = ring
        self.peer_caches = peer_caches
        self.shared_base = shared_base
        self.name = f"coherent-front[{pu}]"
        self.coherence_latency = 0.0
        self._step = protocol.accessor(pu)
        #: The latency of one protocol message to the peer PU.
        self._message_leg = ring.leg_seconds(str(pu), str(pu.other), REQUEST_BYTES)

    def private_window(self) -> "Tuple[int, Probe]":
        limit, probe = self.below.private_window()
        return min(limit, self.shared_base), probe

    def miss(
        self, addr: int, is_write: bool = False, issue_time: float = 0.0, explicit: bool = False
    ) -> float:
        if addr < self.shared_base:
            return self.below.miss(addr, is_write, issue_time, explicit)
        return self.access(addr, is_write, issue_time, explicit)

    def access(
        self, addr: int, is_write: bool = False, issue_time: float = 0.0, explicit: bool = False
    ) -> float:
        if addr < self.shared_base:
            return self.below.access(addr, is_write, issue_time, explicit)
        extra = 0.0
        action = self._step(addr, is_write)
        if action.invalidate_peer:
            for cache in self.peer_caches:
                cache.invalidate_line(addr)
        if action.extra_latency_messages:
            # One message is counted per access, whatever the multiple.
            self.ring.record(1, REQUEST_BYTES)
            extra = action.extra_latency_messages * self._message_leg
            self.coherence_latency += extra
        return self.below.access(addr, is_write, issue_time, explicit) + extra

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


def build_machine(
    config: Optional[SystemConfig] = None,
    l3_policy: Optional[ReplacementPolicy] = None,
    shared_base: int = SHARED_BASE,
    l1_prefetch: bool = False,
    gpu_mode: str = "heuristic",
    coherence: "Union[str, CoherenceKind, None]" = None,
) -> Machine:
    """Assemble the Table II machine.

    ``l3_policy`` installs a custom shared-cache replacement policy (pass a
    :class:`HybridLocalityPolicy` for the §II-B5 hybrid scheme);
    ``coherence`` selects the protocol variant over the shared window
    (``"none"``, ``"snoop"``, ``"directory"``, or a
    :class:`~repro.taxonomy.CoherenceKind`; default ``"none"``), the
    addresses at or above ``shared_base``;
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
            ProcessingUnit.CPU, cpu_l1d, protocol, ring, [gpu_l1d], shared_base
        )
        gpu_top = CoherentFront(
            ProcessingUnit.GPU, gpu_l1d, protocol, ring, [cpu_l1d, cpu_l2], shared_base
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
