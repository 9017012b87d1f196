"""Tests for the set-associative cache model."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import CacheConfig
from repro.errors import SimulationError
from repro.mem.cache.block import CacheBlock
from repro.mem.cache.cache import EMPTY, Cache
from repro.mem.cache.prefetch import NextLinePrefetcher
from repro.mem.cache.replacement import HybridLocalityPolicy, LRUPolicy
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


class TestProbeThenMiss:
    """A cache driven the way the cores drive it (the ``private_window``
    probe, then ``miss`` when it misses) against one driven by ``access``
    alone, on the same stream: the same latencies, counters, traffic
    below, residency and recency."""

    OPS = ("read", "write", "explicit read", "invalidate", "push", "flush")

    @staticmethod
    def _build(case):
        policy = HybridLocalityPolicy(4, max_explicit_ways=2) if case == "hybrid" else LRUPolicy()
        # 2 KB, 4 ways, 64 B lines: 8 sets; 48 lines make 6 per set.
        config = CacheConfig("diff", 2 * KB, ways=4, latency=2, mshr_entries=4)
        backing = _RecordingMemory()
        prefetcher = NextLinePrefetcher() if case == "lru+prefetch" else None
        cache = Cache(config, FREQ, next_level=backing, policy=policy, prefetcher=prefetcher)
        return cache, backing

    @staticmethod
    def _state(cache):
        """The tick and every way's block fields, set by set."""
        return cache._tick, [
            None
            if blocks is None
            else [
                (b.tag, b.valid, b.dirty, b.explicit, b.prefetched, b.last_use)
                for b in blocks
            ]
            for blocks in cache._sets
        ]

    @pytest.mark.parametrize("case", ["lru", "hybrid", "lru+prefetch"])
    @given(
        stream=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=47),
                st.integers(min_value=0, max_value=63),
                st.sampled_from(OPS),
            ),
            max_size=250,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_same_latencies_counters_and_residency(self, case, stream):
        probed, probed_below = self._build(case)
        plain, plain_below = self._build(case)
        limit, probe = probed.private_window()
        for step, (line, offset, op) in enumerate(stream):
            addr = line * 64 + offset
            issue_time = step * 20e-9
            if op in ("read", "write", "explicit read"):
                is_write = op == "write"
                explicit = op == "explicit read"
                assert addr < limit
                latency = probe(addr, is_write, explicit)
                if latency is None:
                    latency = probed.miss(addr, is_write, issue_time, explicit)
                assert latency == plain.access(addr, is_write, issue_time, explicit)
            elif op == "invalidate":
                assert probed.invalidate_line(addr) == plain.invalidate_line(addr)
            elif op == "push":
                probed.push_line(addr)
                plain.push_line(addr)
            else:
                assert probed.flush() == plain.flush()
            assert self._state(probed) == self._state(plain)
        assert probed.stats() == plain.stats()
        assert probed_below.requests == plain_below.requests
        assert probed_below.stats() == plain_below.stats()
        TestPinnedStorage._assert_line_map_exact(probed)


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

    def test_lru_ties_go_to_the_lowest_way(self):
        def blocks(*uses):
            return [CacheBlock(tag=i, valid=True, last_use=use) for i, use in enumerate(uses)]

        policy = LRUPolicy()
        assert policy.victim(blocks(4, 4, 4, 4), False) == 0
        assert policy.victim(blocks(9, 3, 7, 3), False) == 1
        assert policy.victim(blocks(9, 8, 7, 7), True) == 2
        # The first invalid way wins over any valid one, however old.
        ways = blocks(1, 0, 5, 0)
        ways[2] = CacheBlock()
        ways[3] = CacheBlock()
        assert policy.victim(ways, False) == 2

    @given(
        ways=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=6)),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_lru_victim_is_first_invalid_else_min_recency(self, ways):
        blocks = [CacheBlock(tag=i, valid=v, last_use=use) for i, (v, use) in enumerate(ways)]
        invalid = [i for i, block in enumerate(blocks) if not block.valid]
        expected = (
            invalid[0] if invalid else min(range(len(blocks)), key=lambda i: blocks[i].last_use)
        )
        assert LRUPolicy().victim(blocks, False) == expected

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


class TestPinnedStorage:
    """A seeded mixed stream of reads, writes, invalidations, pushes and
    flushes, pinned to values computed before the lazy sets shared one
    empty block: a change to block storage must not move a count, a
    victim way, a write below or a resident line's bits."""

    #: case -> (cache stats, backing stats, victim count, victim digest,
    #: residency digest). The digests are the first 16 hex digits of the
    #: SHA-256 of the ``repr`` of the victim list and of the snapshots.
    PINNED = {
        "lru": (
            {
                "hits": 557, "misses": 562, "evictions": 237, "writebacks": 283,
                "bypasses": 0, "invalidations": 89, "flushes": 13,
                "mshr_merges": 1, "mshr_allocations": 561,
            },
            {"accesses": 740, "reads": 339, "writes": 401},
            661,
            "d5fbc0eb0bfc4b00",
            "85acf58788b404dc",
        ),
        "lru+prefetch": (
            {
                "hits": 630, "misses": 489, "evictions": 396, "writebacks": 306,
                "bypasses": 0, "invalidations": 94, "flushes": 13,
                "mshr_merges": 1, "mshr_allocations": 488,
                "prefetches_issued": 488, "prefetches_useful": 126,
                "prefetch_accuracy": 0.2581967213114754,
            },
            {"accesses": 934, "reads": 591, "writes": 343},
            864,
            "794e69465ddff5b8",
            "17fd0443cfea13a1",
        ),
        "hybrid+prefetch": (
            {
                "hits": 626, "misses": 493, "evictions": 385, "writebacks": 293,
                "bypasses": 11, "invalidations": 93, "flushes": 13,
                "mshr_merges": 3, "mshr_allocations": 490,
                "prefetches_issued": 490, "prefetches_useful": 109,
                "prefetch_accuracy": 0.22244897959183674,
            },
            {"accesses": 935, "reads": 586, "writes": 349},
            862,
            "ecbaa050158e1f31",
            "a63def7b05582b09",
        ),
    }

    @staticmethod
    def _resident(cache):
        """Every resident line with its dirty/explicit/prefetched bits and
        recency tick, in line order."""
        out = []
        for line in range(49):
            block = cache.block_for(line * 64)
            if block is not None:
                out.append(
                    (line, block.dirty, block.explicit, block.prefetched, block.last_use)
                )
        return out

    @staticmethod
    def _assert_line_map_exact(cache):
        """The ``line -> block`` map holds exactly the valid blocks, and
        each entry is the very block in set ``line % sets`` whose tag is
        ``line // sets``."""
        sets = len(cache._sets)
        valid = [
            block
            for blocks in cache._sets
            if blocks is not None
            for block in blocks
            if block.valid
        ]
        assert len(cache._block_of) == len(valid)
        assert {id(block) for block in cache._block_of.values()} == {
            id(block) for block in valid
        }
        for line, block in cache._block_of.items():
            assert block.valid and block.tag == line // sets
            assert any(way is block for way in cache._sets[line % sets])

    @classmethod
    def _drive(cls, case):
        policy = (
            HybridLocalityPolicy(4, max_explicit_ways=2)
            if case.startswith("hybrid")
            else LRUPolicy()
        )
        victims = []
        choose = policy.victim

        def recording_victim(blocks, incoming_explicit):
            way = choose(blocks, incoming_explicit)
            victims.append(way)
            return way

        policy.victim = recording_victim
        # 2 KB, 4 ways, 64 B lines: 8 sets, and 48 lines make 6 per set.
        config = CacheConfig("pinned", 2 * KB, ways=4, latency=2, mshr_entries=4)
        backing = FixedLatencyMemory(BACKING_LATENCY, "backing")
        cache = Cache(
            config,
            FREQ,
            next_level=backing,
            policy=policy,
            prefetcher=NextLinePrefetcher() if case.endswith("prefetch") else None,
        )
        rng = random.Random(2012)
        snapshots = []
        for step in range(1500):
            if step % 100 == 0:
                snapshots.append(cls._resident(cache))
                cls._assert_line_map_exact(cache)
            addr = rng.randrange(48) * 64 + rng.randrange(64)
            issue_time = step * 20e-9
            op = rng.random()
            if op < 0.45:
                cache.access(addr, False, issue_time, rng.random() < 0.1)
            elif op < 0.75:
                cache.access(addr, True, issue_time)
            elif op < 0.85:
                cache.invalidate_line(addr)
            elif op < 0.99:
                cache.push_line(addr)
            else:
                cache.flush()
        snapshots.append(cls._resident(cache))
        cls._assert_line_map_exact(cache)
        return cache, backing, victims, snapshots

    @staticmethod
    def _digest(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()[:16]

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_counts_victims_and_residency_are_pinned(self, case):
        cache, backing, victims, snapshots = self._drive(case)
        stats, backing_stats, victim_count, victim_digest, resident_digest = (
            self.PINNED[case]
        )
        assert cache.stats() == stats
        assert backing.stats() == backing_stats
        assert len(victims) == victim_count
        assert self._digest(victims) == victim_digest
        assert self._digest(snapshots) == resident_digest
        # Sets share one empty block until a fill replaces it; nothing
        # may have written to it.
        assert EMPTY == CacheBlock()
