"""The common interface every memory level implements."""

from __future__ import annotations

import abc
from typing import Dict

from repro.errors import SimulationError

__all__ = ["MemoryLevel", "FixedLatencyMemory"]


class MemoryLevel(abc.ABC):
    """Anything an access can be sent into: cache, link, DRAM, a front.

    One scalar method, :meth:`access`, walks an access down the hierarchy;
    :meth:`private_hit` is its shortcut for accesses a PU serves alone.
    Levels account time in **seconds** so components clocked differently
    (CPU caches at 3.5 GHz, DRAM at 667 MHz) compose without unit bugs.
    """

    name: str = "memory-level"

    @abc.abstractmethod
    def access(
        self, addr: int, is_write: bool = False, issue_time: float = 0.0, explicit: bool = False
    ) -> float:
        """Service one access issued at ``issue_time`` seconds.

        Returns the total latency in seconds from this level down.
        ``explicit`` marks accesses to explicitly managed (``push``-ed)
        data for the §II-B5 hybrid locality replacement policy.
        """

    def private_hit(self, addr: int, is_write: bool) -> "float | None":
        """Serve an access that stays inside the issuing PU's private
        levels and return its latency, or change nothing and return
        ``None``.

        A served access touches no state a peer PU can reach, so the core
        steppers run it without pausing for the interleaving engine. The
        default serves nothing: translation fronts, ring paths, DRAM and
        test memories always take :meth:`access`.
        """
        return None

    def reset_stats(self) -> None:
        """Clear accumulated counters (default: nothing to clear)."""

    def stats(self) -> Dict[str, int]:
        """Accumulated counters for reports (default: empty)."""
        return {}


class FixedLatencyMemory(MemoryLevel):
    """A backing store with a constant access latency.

    Used as the bottom of small test hierarchies and as the 'ideal memory'
    in analytic cross-checks.
    """

    def __init__(self, latency: float, name: str = "fixed-memory") -> None:
        if latency < 0:
            raise SimulationError("latency must be non-negative")
        self.latency = latency
        self.name = name
        self._accesses = 0
        self._reads = 0
        self._writes = 0

    def access(
        self, addr: int, is_write: bool = False, issue_time: float = 0.0, explicit: bool = False
    ) -> float:
        self._accesses += 1
        if is_write:
            self._writes += 1
        else:
            self._reads += 1
        return self.latency

    def reset_stats(self) -> None:
        self._accesses = self._reads = self._writes = 0

    def stats(self) -> Dict[str, int]:
        return {
            "accesses": self._accesses,
            "reads": self._reads,
            "writes": self._writes,
        }
