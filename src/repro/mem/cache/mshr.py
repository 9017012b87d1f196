"""Miss-status holding registers.

The detailed simulator is trace-driven and services one request at a time,
so the MSHR file's role is (a) modelling *miss merging* — a miss to a line
that is already outstanding inside the miss window piggybacks on the
in-flight fill instead of paying the full miss penalty — and (b) bounding
memory-level parallelism for the core models' stall calculations.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from repro.errors import ConfigError
from repro.obs.metrics import MetricRegistry

__all__ = ["MSHRFile"]


class MSHRFile:
    """Tracks lines with in-flight fills.

    ``lookup(line, now)`` returns the remaining latency if the line's fill
    is still in flight (a merged miss), else ``None``. ``allocate`` records
    a new outstanding fill completing at ``now + latency``; when the file
    is full the oldest entry is retired (its fill has long completed in a
    sequential trace-driven model).
    """

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ConfigError("MSHR file needs at least one entry")
        self.entries = entries
        self._inflight: "OrderedDict[int, float]" = OrderedDict()
        self.metrics = MetricRegistry("mshr")
        self._merges = self.metrics.counter(
            "mshr_merges", unit="misses", description="misses merged onto in-flight fills"
        )
        self._allocations = self.metrics.counter(
            "mshr_allocations", unit="fills", description="new outstanding fills recorded"
        )

    def lookup(self, line_addr: int, now: float) -> "float | None":
        """Remaining fill latency for a merged miss, or None."""
        done_at = self._inflight.get(line_addr)
        if done_at is None:
            return None
        if done_at <= now:
            del self._inflight[line_addr]
            return None
        self._merges.inc()
        return done_at - now

    def allocate(self, line_addr: int, now: float, latency: float) -> None:
        """Record a new outstanding fill."""
        self._allocations.value += 1
        if line_addr in self._inflight:
            self._inflight.move_to_end(line_addr)
        while len(self._inflight) >= self.entries:
            self._inflight.popitem(last=False)
        self._inflight[line_addr] = now + latency

    @property
    def outstanding(self) -> int:
        return len(self._inflight)

    @property
    def merges(self) -> int:
        return self._merges.value

    @property
    def allocations(self) -> int:
        return self._allocations.value

    def stats(self) -> Dict[str, int]:
        return self.metrics.as_dict()

    def reset(self) -> None:
        self._inflight.clear()
        self.metrics.reset()
