"""The common interface every memory level implements."""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["MemoryLevel", "FixedLatencyMemory", "Probe", "WHOLE_WINDOW"]

#: A probe limit above every 64-bit address: a level whose hits are all
#: private returns it from :meth:`MemoryLevel.private_window`. An int, so
#: the cores compare int with int; an address past it would only skip the
#: probe and take ``access``, which gives the same result.
WHOLE_WINDOW = 1 << 64

#: A level's private probe: ``probe(addr, is_write, explicit=False)`` is a
#: latency in seconds, or ``None`` with nothing changed.
Probe = Callable[..., Optional[float]]


class MemoryLevel(abc.ABC):
    """Anything an access can be sent into: cache, link, DRAM, a front.

    One scalar method, :meth:`access`, walks an access down the hierarchy.
    The cores split it in two where they can: :meth:`private_window` hands
    them a probe for the accesses a PU serves alone, and :meth:`miss`
    finishes an access whose probe missed, so no level looks a line up
    twice.
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

    def private_window(self) -> "Tuple[int, Probe]":
        """``(limit, probe)``: the private probe of this level and the
        addresses it may be asked about.

        For an address below ``limit``, ``probe(addr, is_write,
        explicit=False)`` either serves the access inside the issuing PU's
        private levels and returns its latency, or changes nothing and
        returns ``None``; the caller then finishes the access with
        :meth:`miss`. A probe and then, if it missed, :meth:`miss` is
        :meth:`access`. A served access touches no state a peer PU can
        reach, so the core steppers run it without pausing for the
        interleaving engine. Addresses at or above ``limit`` are not probed
        and take :meth:`access`. The default limit is 0, so translation
        fronts, ring paths, DRAM and test memories are never probed.
        """
        return 0, _never_hit

    def miss(
        self, addr: int, is_write: bool = False, issue_time: float = 0.0, explicit: bool = False
    ) -> float:
        """Finish an access whose private probe just returned ``None``.

        Equal to :meth:`access` on the same arguments, less the probe.
        Between the probe and this call the peer PU may have run, but the
        peer only ever invalidates this PU's private lines, so a probe that
        missed would still miss. The default is :meth:`access`.
        """
        return self.access(addr, is_write, issue_time, explicit)

    def reset_stats(self) -> None:
        """Clear accumulated counters (default: nothing to clear)."""

    def stats(self) -> Dict[str, int]:
        """Accumulated counters for reports (default: empty)."""
        return {}


def _never_hit(addr: int, is_write: bool, explicit: bool = False) -> None:
    """The probe of a level with no private window: it serves nothing."""
    return None


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
