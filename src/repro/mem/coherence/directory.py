"""A two-PU directory over the shared address window, plus software coherence.

The paper's shared-space options keep coherent data either with hardware
coherence (directory or snooping — see
:mod:`repro.mem.coherence.snoop`) or "purely by software coherence
support" (a runtime that flushes/invalidates at synchronization points).
Both appear here:

- :class:`Directory` tracks MESI state per line per PU, tells the system
  when to invalidate the peer's private copies, and counts protocol
  traffic. Its message rule: a requester without a copy pays one
  lookup message; an invalidating write pays an invalidate and an ack;
  a read of a peer's M/E copy pays one writeback/share message (a
  downgrade); an S->M write counts an upgrade;
- :class:`SoftwareCoherence` models the runtime alternative: no per-access
  cost, but every synchronization point (kernel boundary) pays a flush of
  the dirty shared lines.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.mem.coherence.api import CoherenceAction, CoherenceProtocol
from repro.mem.coherence.protocol import MESIState
from repro.obs.metrics import MetricRegistry
from repro.taxonomy import ProcessingUnit

__all__ = ["Directory", "SoftwareCoherence", "CoherenceAction"]


class Directory(CoherenceProtocol):
    """Per-line MESI bookkeeping for the two PUs behind a sharer directory.

    The directory is *not* a MemoryLevel: the system model consults it on
    each shared-space access and applies the returned action (invalidating
    peer caches, charging message latency).
    """

    kind = "directory"

    def __init__(self, line_bytes: int = 64) -> None:
        super().__init__(line_bytes)
        self._invalidations_sent = self.metrics.counter(
            "invalidations_sent",
            unit="lines",
            description="peer copies invalidated on behalf of a writer",
        )
        self._downgrades = self.metrics.counter(
            "downgrades", unit="lines", description="remote M/E copies demoted to S"
        )
        self._upgrades = self.metrics.counter(
            "upgrades", unit="lines", description="local S copies promoted to M"
        )
        self._tabulate()

    # -- counter views ------------------------------------------------------

    @property
    def invalidations_sent(self) -> int:
        return self._invalidations_sent.value

    @property
    def downgrades(self) -> int:
        return self._downgrades.value

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
            messages += 1  # directory lookup / fetch permission
        if invalidate:
            bumps.append("invalidations_sent")
            messages += 2  # invalidate + ack
        if not is_write and remote in (MESIState.MODIFIED, MESIState.EXCLUSIVE):
            bumps.append("downgrades")
            messages += 1  # writeback / share request
        if local is MESIState.SHARED and new_local is MESIState.MODIFIED:
            bumps.append("upgrades")
        return messages, tuple(bumps)


class SoftwareCoherence:
    """Runtime-managed coherence: flush dirty shared lines at sync points.

    ``record_write`` notes dirty shared lines during execution;
    ``sync`` returns the number of lines that must be written back and
    clears the dirty set (the caller charges per-line cost).
    """

    def __init__(self, line_bytes: int = 64) -> None:
        self.line_bytes = line_bytes
        self._dirty: Dict[ProcessingUnit, set] = {pu: set() for pu in ProcessingUnit}
        self.metrics = MetricRegistry("coherence.software")
        self._syncs = self.metrics.counter(
            "syncs", unit="events", description="synchronization points serviced"
        )
        self._lines_flushed = self.metrics.counter(
            "lines_flushed", unit="lines", description="dirty shared lines written back"
        )

    @property
    def syncs(self) -> int:
        return self._syncs.value

    @property
    def lines_flushed(self) -> int:
        return self._lines_flushed.value

    def record_write(self, addr: int, pu: ProcessingUnit) -> None:
        self._dirty[pu].add(addr & ~(self.line_bytes - 1))

    def dirty_lines(self, pu: ProcessingUnit) -> int:
        return len(self._dirty[pu])

    def sync(self, pu: ProcessingUnit) -> int:
        """Synchronize ``pu``'s shared writes; returns lines flushed."""
        flushed = len(self._dirty[pu])
        self._dirty[pu].clear()
        self._syncs.inc()
        if flushed:
            self._lines_flushed.inc(flushed)
        return flushed

    def stats(self) -> Dict[str, int]:
        return self.metrics.as_dict()

    def reset_stats(self) -> None:
        self.metrics.reset()
