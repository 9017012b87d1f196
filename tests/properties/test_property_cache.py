"""Property-based tests for the cache model invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import CacheConfig
from repro.mem.cache.cache import Cache
from repro.mem.cache.replacement import HybridLocalityPolicy
from repro.mem.level import FixedLatencyMemory
from repro.units import GHZ, KB, Frequency

addresses = st.integers(min_value=0, max_value=1 << 20)
ops = st.lists(
    st.tuples(addresses, st.booleans(), st.booleans()),  # (addr, is_write, explicit)
    min_size=1,
    max_size=300,
)


def build_cache(policy=None):
    config = CacheConfig("prop", 2 * KB, ways=4, mshr_entries=8)
    return Cache(
        config,
        Frequency(1 * GHZ),
        next_level=FixedLatencyMemory(50e-9),
        policy=policy,
    )


class TestCacheInvariants:
    @given(trace=ops)
    @settings(max_examples=60, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, trace):
        cache = build_cache()
        for i, (addr, is_write, _explicit) in enumerate(trace):
            cache.access(addr, is_write=is_write, issue_time=float(i))
        assert cache.hits + cache.misses == len(trace)

    @given(trace=ops)
    @settings(max_examples=60, deadline=None)
    def test_latency_always_at_least_hit_latency(self, trace):
        cache = build_cache()
        for i, (addr, is_write, _explicit) in enumerate(trace):
            latency = cache.access(addr, is_write=is_write, issue_time=float(i))
            assert latency >= cache.hit_latency - 1e-15

    @given(trace=ops)
    @settings(max_examples=60, deadline=None)
    def test_immediate_reaccess_always_hits(self, trace):
        cache = build_cache()
        for i, (addr, is_write, _explicit) in enumerate(trace):
            cache.access(addr, is_write=is_write, issue_time=float(i))
            hits_before = cache.hits
            cache.access(addr, is_write=False, issue_time=float(i) + 0.5)
            assert cache.hits == hits_before + 1

    @given(trace=ops)
    @settings(max_examples=60, deadline=None)
    def test_writebacks_never_exceed_evictions_plus_flushes(self, trace):
        cache = build_cache()
        for i, (addr, is_write, _explicit) in enumerate(trace):
            cache.access(addr, is_write=is_write, issue_time=float(i))
        dirty_flushed = cache.flush()
        assert cache.writebacks <= cache.evictions + dirty_flushed + 1


class TestHybridInvariant:
    @given(trace=ops)
    @settings(max_examples=60, deadline=None)
    def test_explicit_lines_never_evicted_by_implicit_fills(self, trace):
        """The §II-B5 guarantee, under arbitrary interleavings: an implicit
        access must never displace a resident explicit line. (Explicit
        traffic may displace explicit lines when the capped region fills.)"""
        cache = build_cache(policy=HybridLocalityPolicy(ways=4, max_explicit_ways=2))
        line = cache.config.line_bytes
        tracked = set()
        for i, (addr, is_write, explicit) in enumerate(trace):
            if explicit:
                cache.access(addr, is_write=is_write, explicit=True, issue_time=float(i))
                line_addr = addr & ~(line - 1)
                if cache.is_explicit(line_addr):
                    tracked.add(line_addr)
                # Explicit traffic may have displaced other explicit lines.
                tracked = {a for a in tracked if cache.is_explicit(a)}
            else:
                before = {a for a in tracked if cache.is_explicit(a)}
                cache.access(addr, is_write=is_write, issue_time=float(i))
                for resident in before:
                    assert cache.contains(resident)
                    assert cache.is_explicit(resident)
