"""Memory controllers and the multi-controller DRAM system.

The trace-driven model services requests in order, so FR-FCFS's
row-hit-first behaviour appears through the open-page row-buffer model
(:mod:`repro.mem.dram.bank`); the "ready" part of FR-FCFS is approximated
by a short queueing window that lets a row-hit request bypass the data-bus
backlog of earlier row-miss requests.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config.system import DramConfig
from repro.errors import ConfigError
from repro.mem.dram.bank import Bank
from repro.mem.dram.timing import DramTiming
from repro.mem.level import MemoryLevel
from repro.obs.metrics import MetricRegistry
from repro.units import Bandwidth

__all__ = ["MemoryController", "DramSystem"]


class MemoryController:
    """One channel: a set of banks plus a shared data bus.

    ``service`` returns the total controller latency for a line fetch:
    queueing delay (data-bus contention) + bank array latency + burst time.
    """

    def __init__(self, config: DramConfig, line_bytes: int = 64) -> None:
        self.config = config
        self.timing = DramTiming.from_config(config)
        self.banks: List[Bank] = [Bank(self.timing) for _ in range(config.banks_per_controller)]
        per_channel = config.bandwidth.bytes_per_second / config.num_controllers
        self.channel_bandwidth = Bandwidth(per_channel)
        self.line_bytes = line_bytes
        self._bus_free_at = 0.0
        self.metrics = MetricRegistry("dram.controller")
        self._requests = self.metrics.counter(
            "requests", unit="requests", description="line fetches serviced"
        )
        self._queue_delay = self.metrics.histogram(
            "queue_delay", unit="s", description="data-bus backlog per request"
        )

    def _locate(self, addr: int) -> "tuple[int, int]":
        """(bank, row) for an address: line-interleaved across banks."""
        line = addr // self.line_bytes
        bank = line % len(self.banks)
        row = addr // self.config.row_bytes
        return bank, row

    def service(self, addr: int, now: float) -> float:
        """Latency in seconds to return the line at ``addr`` requested at
        ``now``."""
        self._requests.inc()
        bank_index, row = self._locate(addr)
        bank = self.banks[bank_index]
        array = bank.access_latency(row)
        burst = self.channel_bandwidth.seconds_for(self.line_bytes)
        # Row hits may bypass a short backlog (the FR part of FR-FCFS).
        backlog = max(0.0, self._bus_free_at - now)
        if bank.timing.row_hit == array and backlog > 0:
            backlog = max(0.0, backlog - self.timing.row_miss)
        self._queue_delay.observe(backlog)
        start = now + backlog + array
        self._bus_free_at = start + burst
        return backlog + array + burst

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def queue_delay_total(self) -> float:
        return self._queue_delay.total

    def stats(self) -> Dict[str, float]:
        hits = sum(b.row_hits for b in self.banks)
        misses = sum(b.row_misses for b in self.banks)
        closed = sum(b.row_closed_accesses for b in self.banks)
        return {
            "requests": self.requests,
            "row_hits": hits,
            "row_misses": misses,
            "row_closed": closed,
            "queue_delay_total_s": self.queue_delay_total,
        }


class DramSystem(MemoryLevel):
    """All controllers; the bottom of every hierarchy.

    Addresses interleave across controllers at line granularity, matching
    the fine-grained channel interleaving of desktop memory systems.
    """

    name = "dram"

    def __init__(self, config: DramConfig, line_bytes: int = 64) -> None:
        if config.num_controllers < 1:
            raise ConfigError("need at least one controller")
        self.config = config
        self.line_bytes = line_bytes
        self.controllers: List[MemoryController] = [
            MemoryController(config, line_bytes) for _ in range(config.num_controllers)
        ]

    def controller_for(self, addr: int) -> MemoryController:
        line = addr // self.line_bytes
        return self.controllers[line % len(self.controllers)]

    def access(
        self, addr: int, is_write: bool = False, issue_time: float = 0.0, explicit: bool = False
    ) -> float:
        return self.controller_for(addr).service(addr, issue_time)

    def average_latency_seconds(self) -> float:
        """Unloaded average access latency (used by analytic models)."""
        timing = DramTiming.from_config(self.config)
        burst = self.controllers[0].channel_bandwidth.seconds_for(self.line_bytes)
        # Streaming workloads mostly hit the open row.
        return 0.7 * timing.row_hit + 0.3 * timing.row_miss + burst

    def stats(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for controller in self.controllers:
            for key, value in controller.stats().items():
                merged[key] = merged.get(key, 0) + value
        return merged
