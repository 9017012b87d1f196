"""Tests for the per-PU hierarchy builders."""

import pytest

from repro.config.system import CpuConfig, GpuConfig
from repro.mem.cache.hierarchy import build_cpu_hierarchy, build_gpu_hierarchy
from repro.mem.cache.prefetch import NextLinePrefetcher
from repro.mem.cache.replacement import HybridLocalityPolicy
from repro.mem.level import FixedLatencyMemory


@pytest.fixture
def backing():
    return FixedLatencyMemory(100e-9, "backing")


class TestCpuHierarchy:
    def test_l1_chains_to_l2_chains_to_below(self, backing):
        l1d, l2 = build_cpu_hierarchy(CpuConfig(), backing)
        assert l1d.next_level is l2
        assert l2.next_level is backing

    def test_miss_walks_the_chain(self, backing):
        l1d, l2 = build_cpu_hierarchy(CpuConfig(), backing)
        l1d.access(0x1000)
        assert l1d.misses == 1 and l2.misses == 1
        assert backing.stats()["accesses"] == 1

    def test_l2_hit_after_l1_invalidation(self, backing):
        l1d, l2 = build_cpu_hierarchy(CpuConfig(), backing)
        l1d.access(0x2000)
        l1d.invalidate_line(0x2000)
        l1d.access(0x2000, issue_time=1.0)
        assert l1d.misses == 2 and l2.hits == 1
        assert backing.stats()["accesses"] == 1

    def test_custom_policy_and_prefetcher(self, backing):
        prefetcher = NextLinePrefetcher()
        policy = HybridLocalityPolicy(ways=8)
        l1d, _ = build_cpu_hierarchy(
            CpuConfig(), backing, l1_policy=policy, l1_prefetcher=prefetcher
        )
        assert l1d.policy is policy
        assert l1d.prefetcher is prefetcher


class TestGpuHierarchy:
    def test_no_l2(self, backing):
        l1d = build_gpu_hierarchy(GpuConfig(), backing)
        assert l1d.next_level is backing

    def test_geometry_matches_config(self, backing):
        config = GpuConfig()
        l1d = build_gpu_hierarchy(config, backing)
        assert l1d.config is config.l1d
