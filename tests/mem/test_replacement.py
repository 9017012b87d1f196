"""Tests for replacement policies, especially the §II-B5 hybrid policy."""

import pytest

from repro.errors import ConfigError
from repro.mem.cache.block import CacheBlock
from repro.mem.cache.replacement import HybridLocalityPolicy, LRUPolicy


def make_set(ways, fill=0, explicit=()):
    """``ways`` blocks; the first ``fill`` hold tag ``i`` last used at tick ``i``."""
    return [
        CacheBlock(tag=i, valid=True, explicit=i in explicit, last_use=i)
        if i < fill
        else CacheBlock()
        for i in range(ways)
    ]


class TestLRU:
    def test_prefers_invalid(self):
        blocks = make_set(4, fill=2)
        assert LRUPolicy().victim(blocks, False) == 2

    def test_picks_least_recent(self):
        blocks = make_set(4, fill=4)
        blocks[0].last_use = 100
        assert LRUPolicy().victim(blocks, False) == 1

    def test_on_access_updates_recency(self):
        # The cache stamps recency itself; the policy reads it.
        blocks = make_set(2, fill=2)
        policy = LRUPolicy()
        blocks[0].last_use = 50
        assert policy.victim(blocks, False) == 1


class TestHybridProtection:
    """'An implicitly-managed cache block cannot evict an explicitly-managed
    cache block.'"""

    def test_implicit_fill_avoids_explicit_blocks(self):
        blocks = make_set(4, fill=4, explicit=(0, 1))
        policy = HybridLocalityPolicy(ways=4)
        victim = policy.victim(blocks, incoming_explicit=False)
        assert victim in (2, 3)

    def test_implicit_fill_rejected_when_all_explicit(self):
        blocks = make_set(4, fill=4, explicit=(0, 1, 2, 3))
        policy = HybridLocalityPolicy(ways=4)
        assert policy.victim(blocks, incoming_explicit=False) is None
        assert policy.protected_evictions_avoided == 1

    def test_implicit_fill_prefers_invalid(self):
        blocks = make_set(4, fill=3, explicit=(0,))
        policy = HybridLocalityPolicy(ways=4)
        assert policy.victim(blocks, incoming_explicit=False) == 3

    def test_explicit_fill_evicts_implicit_first(self):
        blocks = make_set(4, fill=4, explicit=(0,))
        blocks[1].last_use = 1
        blocks[2].last_use = 0  # LRU implicit
        blocks[3].last_use = 2
        policy = HybridLocalityPolicy(ways=4)
        assert policy.victim(blocks, incoming_explicit=True) == 2


class TestExplicitRegionCap:
    """'The explicitly managed cache size must be smaller than the total
    size of the physically shared cache.'"""

    def test_cap_must_be_below_ways(self):
        with pytest.raises(ConfigError):
            HybridLocalityPolicy(ways=4, max_explicit_ways=4)

    def test_cap_must_be_positive(self):
        with pytest.raises(ConfigError):
            HybridLocalityPolicy(ways=4, max_explicit_ways=0)

    def test_default_cap_is_ways_minus_one(self):
        assert HybridLocalityPolicy(ways=8).max_explicit_ways == 7

    def test_explicit_overflow_evicts_explicit_lru(self):
        blocks = make_set(4, fill=4, explicit=(0, 1))
        blocks[0].last_use = 5
        blocks[1].last_use = 3  # LRU explicit
        policy = HybridLocalityPolicy(ways=4, max_explicit_ways=2)
        assert policy.victim(blocks, incoming_explicit=True) == 1

    def test_needs_two_ways(self):
        with pytest.raises(ConfigError):
            HybridLocalityPolicy(ways=1)

    def test_way_count_mismatch_detected(self):
        from repro.errors import LocalityError

        policy = HybridLocalityPolicy(ways=4)
        with pytest.raises(LocalityError):
            policy.victim(make_set(8), False)
