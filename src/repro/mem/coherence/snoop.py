"""Broadcast (bus-snooping) coherence over the shared address window.

Where the :class:`~repro.mem.coherence.directory.Directory` pays
indirection — a lookup message on cold accesses and an explicit
invalidate/ack pair on conflicting writes — a snooping bus announces every
cold access and every upgrade to the peer directly. The trade the sweep
exposes:

- snoop pays a broadcast probe on **every** cold access (plus a data
  response whenever the peer holds the line), so read-shared working sets
  cost more than under a directory;
- conflicts resolve in the broadcast itself (bus order is the
  acknowledgement), so invalidating writes and S→M upgrades cost *fewer*
  messages than the directory's three-hop exchange.
"""

from __future__ import annotations

from typing import Tuple

from repro.mem.coherence.api import CoherenceProtocol
from repro.mem.coherence.protocol import MESIState

__all__ = ["SnoopBus"]


class SnoopBus(CoherenceProtocol):
    """MESI kept coherent by broadcast probes on a shared bus."""

    kind = "snoop"

    def __init__(self, line_bytes: int = 64) -> None:
        super().__init__(line_bytes)
        self._broadcasts = self.metrics.counter(
            "broadcasts", unit="messages", description="bus probes announced to the peer"
        )
        self._snoop_hits = self.metrics.counter(
            "snoop_hits", unit="messages", description="probes answered from a peer copy"
        )
        self._invalidations_sent = self.metrics.counter(
            "invalidations_sent",
            unit="lines",
            description="peer copies invalidated by a broadcast",
        )
        self._upgrades = self.metrics.counter(
            "upgrades", unit="lines", description="S->M upgrades announced on the bus"
        )
        self._tabulate()

    # -- counter views (mirroring Directory's attribute surface) -----------

    @property
    def broadcasts(self) -> int:
        return self._broadcasts.value

    @property
    def snoop_hits(self) -> int:
        return self._snoop_hits.value

    @property
    def invalidations_sent(self) -> int:
        return self._invalidations_sent.value

    @property
    def upgrades(self) -> int:
        return self._upgrades.value

    @staticmethod
    def _messages(
        local: MESIState,
        remote: MESIState,
        is_write: bool,
        new_local: MESIState,
        invalidate: bool,
    ) -> Tuple[int, Tuple[str, ...]]:
        messages = 0
        bumps = []
        if local is MESIState.INVALID:
            # Cold access: probe the bus; a holding peer supplies the line.
            bumps.append("broadcasts")
            messages += 1
            if remote is not MESIState.INVALID:
                bumps.append("snoop_hits")
                messages += 1
        elif is_write and local is MESIState.SHARED:
            # Upgrade broadcast; bus order acknowledges it implicitly.
            bumps.append("broadcasts")
            messages += 1
        if invalidate:
            # The kill rode the broadcast — no separate invalidate/ack pair.
            bumps.append("invalidations_sent")
        if local is MESIState.SHARED and new_local is MESIState.MODIFIED:
            bumps.append("upgrades")
        return messages, tuple(bumps)
