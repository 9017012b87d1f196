"""Tests for the next-line prefetcher."""

import pytest

from repro.config.system import CacheConfig
from repro.errors import ConfigError
from repro.mem.cache.cache import Cache
from repro.mem.cache.prefetch import NextLinePrefetcher
from repro.mem.cache.replacement import HybridLocalityPolicy
from repro.mem.level import FixedLatencyMemory
from repro.units import GHZ, KB, Frequency


def make_cache(prefetcher=None, policy=None, size=4 * KB, ways=4):
    config = CacheConfig("pf-test", size, ways=ways)
    backing = FixedLatencyMemory(100e-9)
    cache = Cache(
        config,
        Frequency(1 * GHZ),
        next_level=backing,
        policy=policy,
        prefetcher=prefetcher,
    )
    return cache, backing


def stream(cache, lines, start=0):
    time = 0.0
    for i in range(lines):
        cache.access(start + i * 64, issue_time=time)
        time += 1e-9


class TestPrefetcherUnit:
    def test_lines_to_prefetch(self):
        pf = NextLinePrefetcher(degree=2)
        assert pf.lines_to_prefetch(0x1000, 64) == [0x1040, 0x1080]
        assert pf.issued == 2

    def test_accuracy(self):
        pf = NextLinePrefetcher()
        pf.lines_to_prefetch(0, 64)
        pf.record_useful()
        assert pf.accuracy == 1.0

    def test_degree_validated(self):
        with pytest.raises(ConfigError):
            NextLinePrefetcher(degree=0)


class TestCacheIntegration:
    def test_streaming_hit_rate_improves(self):
        plain, _ = make_cache()
        prefetching, _ = make_cache(prefetcher=NextLinePrefetcher())
        stream(plain, 32)
        stream(prefetching, 32)
        assert prefetching.misses < plain.misses
        # Alternate lines prefetched: roughly half the misses disappear.
        assert prefetching.misses <= plain.misses // 2 + 1

    def test_prefetch_accuracy_high_on_streams(self):
        pf = NextLinePrefetcher()
        cache, _ = make_cache(prefetcher=pf)
        stream(cache, 64)
        assert pf.accuracy > 0.9

    def test_prefetch_traffic_reaches_next_level(self):
        pf = NextLinePrefetcher()
        cache, backing = make_cache(prefetcher=pf)
        cache.access(0)
        # One demand fill plus one prefetch fill.
        assert backing.stats()["accesses"] == 2

    def test_prefetch_adds_no_demand_latency(self):
        with_pf, _ = make_cache(prefetcher=NextLinePrefetcher())
        without, _ = make_cache()
        a = with_pf.access(0)
        b = without.access(0)
        assert a == pytest.approx(b)

    def test_useful_flag_cleared_after_first_hit(self):
        pf = NextLinePrefetcher()
        cache, _ = make_cache(prefetcher=pf)
        cache.access(0)
        cache.access(64, issue_time=1.0)  # prefetched hit
        cache.access(64, issue_time=2.0)  # normal hit
        assert pf.useful == 1

    def test_random_accesses_waste_prefetches(self):
        pf = NextLinePrefetcher()
        cache, _ = make_cache(prefetcher=pf)
        import random

        rng = random.Random(3)
        for i in range(64):
            cache.access(rng.randrange(0, 1 << 20, 64), issue_time=float(i))
        assert pf.accuracy < 0.5

    def test_prefetch_never_evicts_explicit_blocks(self):
        """Prefetch fills are implicit: §II-B5 protection applies."""
        pf = NextLinePrefetcher(degree=4)
        policy = HybridLocalityPolicy(ways=4, max_explicit_ways=3)
        cache, _ = make_cache(prefetcher=pf, policy=policy)
        num_sets = cache.config.num_sets
        stride = num_sets * 64
        protected = [i * stride for i in range(3)]  # 3 explicit ways in set 0
        for addr in protected:
            cache.push_line(addr)
        stream(cache, 128, start=3 * stride)
        for addr in protected:
            assert cache.contains(addr)
            assert cache.is_explicit(addr)

    def test_stats_include_prefetcher(self):
        cache, _ = make_cache(prefetcher=NextLinePrefetcher())
        cache.access(0)
        stats = cache.stats()
        assert stats["prefetches_issued"] == 1
