"""Tests for the memory-level interface and fixed-latency backing store."""

import pytest

from repro.errors import SimulationError
from repro.mem.level import FixedLatencyMemory, MemoryLevel


class TestMemoryLevel:
    def test_access_is_the_one_abstract_method(self):
        assert MemoryLevel.__abstractmethods__ == frozenset({"access"})
        assert not hasattr(MemoryLevel, "access_latency")


class TestFixedLatencyMemory:
    def test_constant_latency(self):
        mem = FixedLatencyMemory(42e-9)
        for addr in (0, 0x1000, 0xFFFF):
            assert mem.access(addr) == 42e-9

    def test_always_hits(self):
        # Every access is serviced here at the fixed latency, whatever its
        # issue time or flags.
        mem = FixedLatencyMemory(1e-9, name="store")
        assert mem.access(0) == 1e-9
        assert mem.access(0, is_write=True, issue_time=5.0, explicit=True) == 1e-9
        assert mem.stats()["accesses"] == 2

    def test_read_write_accounting(self):
        mem = FixedLatencyMemory(0.0)
        mem.access(0)
        mem.access(0, is_write=True)
        mem.access(0, is_write=True)
        assert mem.stats() == {"accesses": 3, "reads": 1, "writes": 2}

    def test_reset_stats(self):
        mem = FixedLatencyMemory(0.0)
        mem.access(0)
        mem.reset_stats()
        assert mem.stats()["accesses"] == 0

    def test_rejects_negative_latency(self):
        with pytest.raises(SimulationError):
            FixedLatencyMemory(-1.0)
