"""Memory-system substrates: caches, coherence, interconnect, DRAM.

This package implements the hardware side of the paper's Table II machine:

- :mod:`repro.mem.cache` — set-associative caches with MSHRs and the
  hybrid locality-aware replacement policy of §II-B5;
- :mod:`repro.mem.coherence` — a MESI directory over the shared L3 plus a
  software-coherence (runtime flush) alternative;
- :mod:`repro.mem.interconnect` — the ring-bus network;
- :mod:`repro.mem.dram` — DDR3-1333 with FR-FCFS controllers;
- :mod:`repro.mem.cacti` — a CACTI-like latency/energy model calibrated to
  the paper's Table II cache latencies.

Every level implements one scalar method,
:meth:`repro.mem.level.MemoryLevel.access` (address, write flag, issue
time, explicit flag in; latency in seconds out), so components from
different clock domains compose.
"""

from repro.mem.level import MemoryLevel, FixedLatencyMemory

__all__ = [
    "MemoryLevel",
    "FixedLatencyMemory",
]
