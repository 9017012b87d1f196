"""Tests for the set-associative cache model."""

import pytest

from repro.config.system import CacheConfig
from repro.errors import SimulationError
from repro.mem.cache.cache import Cache
from repro.mem.cache.replacement import HybridLocalityPolicy
from repro.mem.level import FixedLatencyMemory
from repro.units import GHZ, KB, Frequency

FREQ = Frequency(1 * GHZ)
BACKING_LATENCY = 100e-9


def make_cache(size=4 * KB, ways=4, latency=2, policy=None, mshr=16):
    config = CacheConfig("test", size, ways=ways, latency=latency, mshr_entries=mshr)
    backing = FixedLatencyMemory(BACKING_LATENCY, "backing")
    return Cache(config, FREQ, next_level=backing, policy=policy), backing


class _RecordingMemory(FixedLatencyMemory):
    """A backing store that remembers every access it services."""

    def __init__(self):
        super().__init__(BACKING_LATENCY, "recording")
        self.requests = []

    def access(self, addr, is_write=False, issue_time=0.0, explicit=False):
        self.requests.append((addr, is_write))
        return super().access(addr, is_write, issue_time, explicit)


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        cache, _ = make_cache()
        cache.access(0x100)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.access(0x100)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_miss_latency_includes_backing(self):
        cache, _ = make_cache()
        latency = cache.access(0x100, issue_time=1.0)
        assert latency == pytest.approx(2e-9 + BACKING_LATENCY)

    def test_hit_latency(self):
        cache, _ = make_cache()
        cache.access(0x200)
        assert cache.access(0x200) == pytest.approx(2e-9)

    def test_same_line_different_offsets_hit(self):
        cache, _ = make_cache()
        cache.access(0x100)
        cache.access(0x13C)  # same 64B line
        assert cache.hits == 1

    def test_hit_level_names(self):
        # The miss is supplied by the backing store, the hit by this cache.
        cache, backing = make_cache()
        cache.access(0x0)
        assert backing.stats()["accesses"] == 1
        cache.access(0x0)
        assert cache.hits == 1
        assert backing.stats()["accesses"] == 1

    def test_miss_rate(self):
        cache, _ = make_cache()
        for addr in range(0, 64 * 10, 64):
            cache.access(addr)
        assert cache.miss_rate == 1.0


class TestEvictionAndWriteback:
    def test_eviction_on_conflict(self):
        # 4KB, 4 ways, 64B lines -> 16 sets; addresses 16*64 apart conflict.
        cache, _ = make_cache()
        stride = 16 * 64
        for i in range(5):  # 5 lines into a 4-way set
            cache.access(i * stride)
        assert cache.evictions == 1

    def test_lru_victim(self):
        cache, _ = make_cache()
        stride = 16 * 64
        for i in range(4):
            cache.access(i * stride)
        cache.access(0)  # refresh line 0
        cache.access(4 * stride)  # evicts line 1 (LRU)
        assert cache.contains(0)
        assert not cache.contains(stride)

    def test_dirty_eviction_writes_back(self):
        cache, _ = make_cache()
        stride = 16 * 64
        cache.access(0, is_write=True)
        for i in range(1, 5):
            cache.access(i * stride)
        assert cache.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache, _ = make_cache()
        stride = 16 * 64
        for i in range(5):
            cache.access(i * stride)
        assert cache.writebacks == 0

    def test_flush_counts_dirty_lines(self):
        cache, _ = make_cache()
        cache.access(0, is_write=True)
        cache.access(64, is_write=True)
        cache.access(128)
        assert cache.flush() == 2
        assert not cache.contains(0)

    def test_flush_forwards_writeback_traffic_to_next_level(self):
        """Regression: a software-coherence flush must push its dirty data
        into the next level, or lower-level traffic stats under-report."""
        cache, backing = make_cache()
        cache.access(0, is_write=True)
        cache.access(64, is_write=True)
        cache.access(128)
        writes_before = backing.stats()["writes"]
        cache.flush()
        assert backing.stats()["writes"] == writes_before + 2
        assert cache.writebacks == 2

    def test_flush_writeback_reconstructs_the_line_address(self):
        recorder = _RecordingMemory()
        config = CacheConfig("test", 4 * KB, ways=4, latency=2)
        cache = Cache(config, FREQ, next_level=recorder)
        addr = 0x1540  # arbitrary line well past set 0
        cache.access(addr, is_write=True)
        recorder.requests.clear()
        cache.flush()
        # One write of the victim's line address.
        assert recorder.requests == [((addr // 64) * 64, True)]

    def test_dirty_fill_eviction_is_counted_but_sends_no_traffic(self):
        # A 2-set direct-mapped cache: lines 0 and 128 share set 0.
        config = CacheConfig("tiny", 128, ways=1, latency=2)
        backing = FixedLatencyMemory(BACKING_LATENCY, "backing")
        cache = Cache(config, FREQ, next_level=backing)
        cache.access(0, is_write=True)
        cache.access(128, is_write=True)  # evicts dirty line 0
        assert cache.writebacks == 1
        assert backing.stats()["accesses"] == 2  # the two demand fetches only
        # flush does send its dirty line (128) below.
        cache.flush()
        assert cache.writebacks == 2
        assert backing.stats()["accesses"] == 3

    def test_push_line_dirty_victim_writes_back_to_next_level(self):
        """Regression: an explicit push evicting a dirty victim dropped the
        victim's data instead of writing it back."""
        cache, backing = make_cache()
        stride = 16 * 64
        for i in range(4):  # fill one set with dirty lines
            cache.access(i * stride, is_write=True)
        writes_before = backing.stats()["writes"]
        cache.push_line(4 * stride)
        assert cache.writebacks == 1
        assert backing.stats()["writes"] == writes_before + 1

    def test_push_line_clean_victim_stays_silent(self):
        cache, backing = make_cache()
        stride = 16 * 64
        for i in range(4):
            cache.access(i * stride)
        accesses_before = backing.stats()["accesses"]
        cache.push_line(4 * stride)
        assert cache.writebacks == 0
        assert backing.stats()["accesses"] == accesses_before


class TestMSHRMerging:
    def test_concurrent_miss_to_same_line_merges(self):
        cache, backing = make_cache()
        first = cache.access(0x100, issue_time=0.0)
        # Within the fill window: flush line first so it misses again.
        cache.invalidate_line(0x100)
        second = cache.access(0x104, issue_time=10e-9)
        assert second < first

    def test_merge_after_fill_completes_pays_full(self):
        cache, _ = make_cache()
        cache.access(0x100, issue_time=0.0)
        cache.invalidate_line(0x100)
        late = cache.access(0x100, issue_time=1.0)  # long after fill done
        assert late == pytest.approx(2e-9 + BACKING_LATENCY)


class TestExplicitManagement:
    def test_push_line_installs_without_demand_miss(self):
        cache, backing = make_cache()
        cache.push_line(0x300)
        assert cache.contains(0x300)
        assert cache.is_explicit(0x300)
        assert backing.stats()["accesses"] == 0

    def test_explicit_request_sets_bit(self):
        cache, _ = make_cache()
        cache.access(0x500, explicit=True)
        assert cache.is_explicit(0x500)

    def test_push_on_resident_line_upgrades(self):
        cache, _ = make_cache()
        cache.access(0x600)
        assert not cache.is_explicit(0x600)
        cache.push_line(0x600)
        assert cache.is_explicit(0x600)


class TestInvalidation:
    def test_invalidate_present_line(self):
        cache, _ = make_cache()
        cache.access(0x40)
        assert cache.invalidate_line(0x40)
        assert not cache.contains(0x40)

    def test_invalidate_absent_line(self):
        cache, _ = make_cache()
        assert not cache.invalidate_line(0x9999)

    def test_stats_and_reset(self):
        cache, _ = make_cache()
        cache.access(0)
        cache.access(0)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        cache.reset_stats()
        assert cache.stats()["hits"] == 0

    def test_reset_stats_also_resets_the_prefetcher(self):
        """Regression: reset_stats zeroed the cache counters but left the
        prefetcher's issued/useful counts accumulating across epochs."""
        from repro.mem.cache.prefetch import NextLinePrefetcher

        config = CacheConfig("test", 4 * KB, ways=4, latency=2)
        backing = FixedLatencyMemory(BACKING_LATENCY, "backing")
        cache = Cache(
            config, FREQ, next_level=backing, prefetcher=NextLinePrefetcher()
        )
        cache.access(0)  # miss -> prefetch issued
        cache.access(64)  # hits the prefetched line -> useful
        assert cache.stats()["prefetches_issued"] > 0
        assert cache.stats()["prefetches_useful"] > 0
        cache.reset_stats()
        assert cache.stats()["prefetches_issued"] == 0
        assert cache.stats()["prefetches_useful"] == 0
        assert cache.stats()["prefetch_accuracy"] == 0.0


class TestErrors:
    def test_negative_address_rejected_on_miss(self):
        cache, backing = make_cache()
        with pytest.raises(SimulationError, match="negative address"):
            cache.access(-64)
        assert cache.misses == 0
        assert backing.stats()["accesses"] == 0

    def test_miss_without_next_level(self):
        config = CacheConfig("lonely", 4 * KB, ways=4)
        cache = Cache(config, FREQ)
        with pytest.raises(SimulationError):
            cache.access(0)
