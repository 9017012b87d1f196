"""The GPU's 16 KB software-managed cache (scratchpad).

Explicitly managed locality on the GPU side: the program ``push``-es data
in, after which loads/stores to those addresses hit at scratchpad latency
and never touch the demand hierarchy. Capacity is enforced: pushing past
16 KB evicts the oldest region (the programmer overcommitted).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Tuple

from repro.errors import LocalityError

__all__ = ["Scratchpad"]


class Scratchpad:
    """Address-range-tracked software-managed memory."""

    def __init__(self, capacity_bytes: int, latency_cycles: int = 2) -> None:
        if capacity_bytes < 0:
            raise LocalityError("scratchpad capacity must be non-negative")
        if latency_cycles < 1:
            raise LocalityError("scratchpad latency must be >= 1 cycle")
        self.capacity_bytes = capacity_bytes
        self.latency_cycles = latency_cycles
        self._regions: "OrderedDict[int, int]" = OrderedDict()  # base -> size
        self.pushes = 0
        self.evicted_regions = 0
        self.hits = 0

    @property
    def empty(self) -> bool:
        """Whether no region is resident (every access misses)."""
        return not self._regions

    @property
    def used_bytes(self) -> int:
        return sum(self._regions.values())

    def push(self, base: int, size: int) -> None:
        """Place ``[base, base+size)`` into the scratchpad."""
        if size <= 0:
            raise LocalityError("pushed region must have positive size")
        if size > self.capacity_bytes:
            raise LocalityError(
                f"region of {size} bytes exceeds scratchpad capacity "
                f"{self.capacity_bytes}"
            )
        self._regions.pop(base, None)
        while self.used_bytes + size > self.capacity_bytes:
            self._regions.popitem(last=False)
            self.evicted_regions += 1
        self._regions[base] = size
        self.pushes += 1

    def contains(self, addr: int) -> bool:
        for base, size in self._regions.items():
            if base <= addr < base + size:
                return True
        return False

    def access(self, addr: int) -> "int | None":
        """Latency in cycles if resident, else None."""
        if self.contains(addr):
            self.hits += 1
            return self.latency_cycles
        return None

    def clear(self) -> None:
        self._regions.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "pushes": self.pushes,
            "evicted_regions": self.evicted_regions,
            "hits": self.hits,
            "used_bytes": self.used_bytes,
        }
