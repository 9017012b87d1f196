"""Ablation B: the hybrid locality-aware replacement policy (§II-B5).

The paper describes the hardware (§II-B5) but could not evaluate locality
management quantitatively (§V-D). This ablation measures the mechanism the
hardware provides: explicitly placed (pushed) hot data surviving an
implicit streaming sweep through a shared cache, versus plain LRU.
"""

from repro.config.system import CacheConfig
from repro.mem.cache.cache import Cache
from repro.mem.cache.replacement import HybridLocalityPolicy, LRUPolicy
from repro.mem.level import FixedLatencyMemory
from repro.units import GHZ, KB, Frequency

HOT_BASE = 0x1000_0000
HOT_BYTES = 8 * KB
STREAM_BASE = 0x2000_0000
STREAM_BYTES = 512 * KB
LINE = 64


def build_l3(policy):
    config = CacheConfig("l3-model", 64 * KB, ways=8, latency=20)
    return Cache(
        config, Frequency(3.5 * GHZ), next_level=FixedLatencyMemory(50e-9), policy=policy
    )


def run_workload(policy):
    """Push hot data, stream a large array, then re-read the hot data.

    Returns (hot_hits, hot_accesses) for the re-read pass.
    """
    cache = build_l3(policy)
    for addr in range(HOT_BASE, HOT_BASE + HOT_BYTES, LINE):
        cache.push_line(addr)
    time = 0.0
    for addr in range(STREAM_BASE, STREAM_BASE + STREAM_BYTES, LINE):
        cache.access(addr, issue_time=time)
        time += 1e-9
    hits_before = cache.hits
    accesses_before = cache.accesses
    for addr in range(HOT_BASE, HOT_BASE + HOT_BYTES, LINE):
        cache.access(addr, issue_time=time, explicit=True)
        time += 1e-9
    return cache.hits - hits_before, cache.accesses - accesses_before


def test_hybrid_vs_lru(benchmark, write_artifact):
    def regenerate():
        hybrid_hits, total = run_workload(HybridLocalityPolicy(ways=8, max_explicit_ways=4))
        lru_hits, _ = run_workload(LRUPolicy())
        return {"hybrid": hybrid_hits / total, "lru": lru_hits / total}

    rates = benchmark(regenerate)
    write_artifact(
        "ablation_locality",
        "hot-data re-read hit rate after a streaming sweep\n"
        f"hybrid (explicit-protected): {rates['hybrid']:.1%}\n"
        f"plain LRU:                   {rates['lru']:.1%}",
    )
    # The protected cache keeps all pushed lines; LRU loses them all to
    # the stream.
    assert rates["hybrid"] == 1.0
    assert rates["lru"] == 0.0


def test_explicit_cap_respected_under_pressure(benchmark):
    """Explicit insertions can never occupy a whole set."""

    def regenerate():
        cache = build_l3(HybridLocalityPolicy(ways=8, max_explicit_ways=4))
        num_sets = cache.config.num_sets
        stride = num_sets * LINE
        target_set_addr = 0x0
        for i in range(32):  # far more explicit lines than the cap
            cache.push_line(target_set_addr + i * stride)
        # An implicit fill must still find a way.
        cache.access(target_set_addr + 100 * stride)
        hits_before = cache.hits
        cache.access(target_set_addr + 100 * stride, issue_time=1.0)
        return cache.hits == hits_before + 1

    assert benchmark(regenerate)
