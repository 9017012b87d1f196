"""The ring-bus network joining cores, L3 tiles, and memory controllers.

A bidirectional ring: a message takes the shorter direction, paying
``hop_latency`` cycles per hop plus serialization time for its payload on
the link. The network also tracks aggregate traffic so sweeps can reason
about utilization.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import ConfigError
from repro.config.system import InterconnectConfig
from repro.mem.level import MemoryLevel
from repro.obs.metrics import MetricRegistry
from repro.units import ceil_div

__all__ = ["REQUEST_BYTES", "RingNetwork", "RingPath"]

#: Payload of a request or protocol message (address and command).
REQUEST_BYTES = 16


class RingNetwork:
    """A bidirectional ring with named stops.

    >>> ring = RingNetwork(InterconnectConfig(), ["cpu", "gpu", "l3", "mc"])
    >>> ring.hops("cpu", "l3")
    2
    >>> ring.hops("cpu", "mc")
    1
    """

    def __init__(self, config: InterconnectConfig, stops: Sequence[str]) -> None:
        if len(stops) < 2:
            raise ConfigError("a ring needs at least two stops")
        if len(set(stops)) != len(stops):
            raise ConfigError("ring stops must be unique")
        self.config = config
        self.stops: List[str] = list(stops)
        self._index: Dict[str, int] = {name: i for i, name in enumerate(stops)}
        self.metrics = MetricRegistry("ring")
        self._messages = self.metrics.counter(
            "messages", unit="messages", description="ring traversals"
        )
        self._bytes_moved = self.metrics.counter(
            "bytes_moved", unit="bytes", description="payload bytes serialized"
        )

    def hops(self, src: str, dst: str) -> int:
        """Hops along the shorter direction between two stops."""
        try:
            a, b = self._index[src], self._index[dst]
        except KeyError as exc:
            raise ConfigError(f"unknown ring stop {exc.args[0]!r}") from exc
        distance = abs(a - b)
        return min(distance, len(self.stops) - distance)

    def leg_seconds(self, src: str, dst: str, payload_bytes: int) -> float:
        """One-way message latency: per-hop cost plus serialization.

        Pure: counts no traffic. Fixed paths price their legs once with it
        and :meth:`record` each traversal.
        """
        if payload_bytes < 0:
            raise ConfigError("payload must be non-negative")
        hop_cycles = self.hops(src, dst) * self.config.hop_latency
        ser_cycles = ceil_div(max(payload_bytes, 1), self.config.link_bytes_per_cycle)
        return self.config.frequency.cycles_to_seconds(hop_cycles + ser_cycles)

    def record(self, messages: int, payload_bytes: int) -> None:
        """Count ``messages`` traversals carrying ``payload_bytes`` in all."""
        self._messages.value += messages
        self._bytes_moved.value += payload_bytes

    def transit_seconds(self, src: str, dst: str, payload_bytes: int) -> float:
        """Count one message and return its :meth:`leg_seconds`."""
        seconds = self.leg_seconds(src, dst, payload_bytes)
        self.record(1, payload_bytes)
        return seconds

    @property
    def messages(self) -> int:
        return self._messages.value

    @property
    def bytes_moved(self) -> int:
        return self._bytes_moved.value

    def stats(self) -> Dict[str, int]:
        return self.metrics.as_dict()


class RingPath(MemoryLevel):
    """A fixed source->destination ring traversal wrapping a lower level.

    Sits between a private L2 and the shared L3 (or between the L3 and a
    memory controller): each access pays the ring transit both ways around
    the downstream access, a 16-byte request and a ``payload_bytes``
    reply. Both legs are priced once, at construction.
    """

    def __init__(
        self,
        ring: RingNetwork,
        src: str,
        dst: str,
        below: MemoryLevel,
        payload_bytes: int = 64,
    ) -> None:
        self.ring = ring
        self.src = src
        self.dst = dst
        self.below = below
        self.payload_bytes = payload_bytes
        self.name = f"ring[{src}->{dst}]"
        self._request_leg = ring.leg_seconds(src, dst, REQUEST_BYTES)
        self._reply_leg = ring.leg_seconds(dst, src, payload_bytes)
        self._round_trip_bytes = REQUEST_BYTES + payload_bytes
        # The ring's two counters, bumped in place by each traversal.
        self._messages = ring._messages
        self._bytes_moved = ring._bytes_moved

    def access(
        self, addr: int, is_write: bool = False, issue_time: float = 0.0, explicit: bool = False
    ) -> float:
        self._messages.value += 2
        self._bytes_moved.value += self._round_trip_bytes
        request_leg = self._request_leg
        below = self.below.access(addr, is_write, issue_time + request_leg, explicit)
        return request_leg + below + self._reply_leg

    def stats(self) -> Dict[str, int]:
        return self.ring.stats()
