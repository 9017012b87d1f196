"""Tests for the ring-bus interconnect."""

import pytest

from repro.config.system import InterconnectConfig
from repro.errors import ConfigError
from repro.mem.interconnect.ring import RingNetwork, RingPath
from repro.mem.level import FixedLatencyMemory


@pytest.fixture
def ring():
    return RingNetwork(InterconnectConfig(), ["cpu", "gpu", "l3", "mc"])


class TestTopology:
    def test_adjacent_hop(self, ring):
        assert ring.hops("cpu", "gpu") == 1

    def test_takes_shorter_direction(self, ring):
        assert ring.hops("cpu", "mc") == 1  # wrap-around beats 3 forward hops

    def test_opposite_side(self, ring):
        assert ring.hops("cpu", "l3") == 2

    def test_symmetric(self, ring):
        for a in ring.stops:
            for b in ring.stops:
                assert ring.hops(a, b) == ring.hops(b, a)

    def test_self_is_zero(self, ring):
        assert ring.hops("l3", "l3") == 0

    def test_unknown_stop(self, ring):
        with pytest.raises(ConfigError):
            ring.hops("cpu", "npu")

    def test_needs_two_stops(self):
        with pytest.raises(ConfigError):
            RingNetwork(InterconnectConfig(), ["solo"])

    def test_unique_stops(self):
        with pytest.raises(ConfigError):
            RingNetwork(InterconnectConfig(), ["a", "a"])


class TestTiming:
    def test_transit_includes_serialization(self, ring):
        small = ring.transit_seconds("cpu", "gpu", 16)
        large = ring.transit_seconds("cpu", "gpu", 1024)
        assert large > small

    def test_more_hops_cost_more(self, ring):
        near = ring.transit_seconds("cpu", "gpu", 64)
        far = ring.transit_seconds("cpu", "l3", 64)
        assert far > near

    def test_traffic_accounting(self, ring):
        ring.transit_seconds("cpu", "l3", 64)
        ring.transit_seconds("l3", "cpu", 64)
        assert ring.stats() == {"messages": 2, "bytes_moved": 128}


class TestRingPath:
    def test_round_trip_added_to_below(self, ring):
        below = FixedLatencyMemory(50e-9, "below")
        path = RingPath(ring, "cpu", "l3", below)
        assert path.access(0) > 50e-9
        assert below.stats()["accesses"] == 1

    def test_issue_time_forwarded_with_request_leg(self, ring):
        class Recorder(FixedLatencyMemory):
            def access(self, addr, is_write=False, issue_time=0.0, explicit=False):
                self.seen = issue_time
                return super().access(addr, is_write, issue_time, explicit)

        below = Recorder(0.0, "rec")
        path = RingPath(ring, "cpu", "l3", below)
        path.access(0, issue_time=1.0)
        assert below.seen > 1.0
