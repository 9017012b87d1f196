"""Tests for the DDR3/FR-FCFS DRAM model."""

import pytest

from repro.config.system import DramConfig
from repro.mem.dram.bank import Bank
from repro.mem.dram.controller import DramSystem, MemoryController
from repro.mem.dram.timing import DramTiming


@pytest.fixture
def config():
    return DramConfig()


@pytest.fixture
def timing(config):
    return DramTiming.from_config(config)


class TestTiming:
    def test_row_hit_is_cheapest(self, timing):
        assert timing.row_hit < timing.row_closed < timing.row_miss

    def test_row_miss_is_precharge_activate_cas(self, config, timing):
        period = config.frequency.period
        expected = (config.t_rp + config.t_rcd + config.t_cl) * period
        assert timing.row_miss == pytest.approx(expected)


class TestBank:
    def test_first_access_is_row_closed(self, timing):
        bank = Bank(timing)
        assert bank.access_latency(row=5) == pytest.approx(timing.row_closed)
        assert bank.row_closed_accesses == 1

    def test_same_row_hits(self, timing):
        bank = Bank(timing)
        bank.access_latency(5)
        assert bank.access_latency(5) == pytest.approx(timing.row_hit)
        assert bank.row_hits == 1

    def test_row_conflict(self, timing):
        bank = Bank(timing)
        bank.access_latency(5)
        assert bank.access_latency(6) == pytest.approx(timing.row_miss)
        assert bank.open_row == 6

    def test_precharge_closes_row(self, timing):
        bank = Bank(timing)
        bank.access_latency(5)
        bank.precharge()
        assert bank.access_latency(5) == pytest.approx(timing.row_closed)


class TestController:
    def test_streaming_mostly_row_hits(self, config):
        mc = MemoryController(config)
        for addr in range(0, 64 * 64, 64):
            mc.service(addr, now=1e-3 * addr)
        stats = mc.stats()
        assert stats["row_hits"] > stats["row_misses"]

    def test_back_to_back_row_conflicts_queue(self, config):
        mc = MemoryController(config)
        # Same bank (8 banks, line-interleaved), different row: the second
        # request pays the bus backlog plus the full row-miss latency.
        mc.service(0, now=0.0)
        conflicted = mc.service(config.row_bytes * 8, now=0.0)
        timing = DramTiming.from_config(config)
        assert conflicted > timing.row_miss

    def test_row_hit_bypasses_backlog(self, config):
        # FR-FCFS: a ready (row-hit) request may bypass queued row misses.
        mc = MemoryController(config)
        first = mc.service(0, now=0.0)
        hit = mc.service(8 * 64, now=0.0)  # same bank, same row
        assert hit < first

    def test_spread_requests_do_not_queue(self, config):
        mc = MemoryController(config)
        mc.service(0, now=0.0)
        later = mc.service(0, now=1.0)
        # Far apart in time: no backlog, pure row hit + burst.
        timing = DramTiming.from_config(config)
        burst = mc.channel_bandwidth.seconds_for(64)
        assert later == pytest.approx(timing.row_hit + burst)


class TestDramSystem:
    def test_interleaves_across_controllers(self, config):
        dram = DramSystem(config)
        seen = set()
        for addr in range(0, 64 * 8, 64):
            seen.add(id(dram.controller_for(addr)))
        assert len(seen) == config.num_controllers

    def test_access_returns_positive_latency(self, config):
        dram = DramSystem(config)
        assert dram.access(0x1000) > 0
        assert dram.stats()["requests"] == 1

    def test_average_latency_in_plausible_range(self, config):
        dram = DramSystem(config)
        avg = dram.average_latency_seconds()
        assert 5e-9 < avg < 100e-9

    def test_stats_aggregate(self, config):
        dram = DramSystem(config)
        for addr in range(0, 64 * 16, 64):
            dram.access(addr)
        assert dram.stats()["requests"] == 16
