"""The rank engine: partition laws, byte-identity and store resume.

Three layers. :func:`~repro.exec.sweepjob.plan_shards` must be a true,
deterministic, timing-key-colocating partition — Hypothesis pins the set
algebra. Above it, ``rank_design_points`` must produce the same ranking
at every shard and job count, resume from any committed prefix of a
durable store at any shard count, and keep the persistent pool at its full width across
uneven shard waves (the pool-sizing regression).
"""

import shutil

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.explorer import Explorer
from repro.core.space import DesignSpace
from repro.errors import ConfigError, SimulationError
from repro.exec.cache import SHARED_TRACE_CACHE, ResultCache, TraceCache
from repro.exec.retry import RetryPolicy
from repro.exec.runner import ParallelRunner
from repro.exec.sweepjob import ShardJob, plan_shards, run_shard
from repro.faults.spec import FaultPlan
from repro.kernels.registry import all_kernels
from repro.store import ResultStore

POINTS = DesignSpace().feasible_points()
#: A stride through the space: many timing-key groups, several points each.
SPREAD = POINTS[::24]
KERNELS = list(all_kernels())[:2]


def _flat(evaluations):
    return [
        (
            e.point.label,
            e.mean_seconds,
            e.mean_comm_fraction,
            e.comm_lines_total,
            e.locality_options,
        )
        for e in evaluations
    ]


class TestPlanShards:
    @given(
        start=st.integers(min_value=0, max_value=len(POINTS) - 1),
        count=st.integers(min_value=0, max_value=200),
        shards=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_is_a_true_partition(self, start, count, shards):
        points = POINTS[start : start + count]
        plan = plan_shards(points, shards)
        assert len(plan) == shards
        seen = [index for bucket in plan for index in bucket]
        assert sorted(seen) == list(range(len(points)))
        assert len(seen) == len(set(seen))

    @given(
        start=st.integers(min_value=0, max_value=len(POINTS) - 1),
        count=st.integers(min_value=1, max_value=200),
        shards=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_timing_keys_colocate(self, start, count, shards):
        points = POINTS[start : start + count]
        plan = plan_shards(points, shards)
        home = {}
        for shard_index, bucket in enumerate(plan):
            for index in bucket:
                key = points[index].timing_key
                assert home.setdefault(key, shard_index) == shard_index

    @given(
        count=st.integers(min_value=0, max_value=200),
        shards=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, count, shards):
        points = POINTS[:count]
        assert plan_shards(points, shards) == plan_shards(points, shards)

    def test_buckets_are_sorted(self):
        for bucket in plan_shards(POINTS[:100], 4):
            assert bucket == sorted(bucket)

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ConfigError):
            plan_shards(POINTS[:4], 0)
        with pytest.raises(ConfigError):
            plan_shards(POINTS[:4], -2)

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_full_space_balances_units(self, shards):
        """Without faults a timing group costs one simulation per kernel
        whatever its size, so the groups spread evenly over the shards."""
        units = [
            len({POINTS[index].timing_key for index in bucket})
            for bucket in plan_shards(POINTS, shards)
        ]
        assert sum(units) == len({p.timing_key for p in POINTS})
        assert max(units) - min(units) <= 1

    def test_weights_balance_points_under_faults(self):
        """With a weight per point (a fault plan simulates every point),
        a group weighs its member count."""
        weights = [1] * len(POINTS)
        loads = [len(bucket) for bucket in plan_shards(POINTS, 4, weights=weights)]
        largest = max(
            sum(1 for p in POINTS if p.timing_key == key)
            for key in {p.timing_key for p in POINTS}
        )
        assert max(loads) - min(loads) <= largest

    def test_more_shards_than_keys_leaves_empties(self):
        points = POINTS[:3]
        keys = {p.timing_key for p in points}
        plan = plan_shards(points, 12)
        assert sum(1 for bucket in plan if bucket) <= len(keys)


class TestRunShard:
    def test_dedup_counts_and_evaluations(self):
        points = POINTS[:12]
        groups = {}
        for point in points:
            groups.setdefault(point.timing_key, []).append(point)
        shard = ShardJob(
            points=tuple(members[0] for members in groups.values()),
            traces=tuple(SHARED_TRACE_CACHE.get(k) for k in KERNELS),
            sizes=tuple(len(members) for members in groups.values()),
        )
        outcome = run_shard(shard)
        # One pair of means per unit (timing group), not per point.
        assert len(outcome.means) == len(groups)
        distinct_keys = {p.timing_key for p in points}
        assert outcome.cache_misses == len(distinct_keys) * len(KERNELS)
        assert outcome.cache_hits == (len(points) - len(distinct_keys)) * len(
            KERNELS
        )
        assert len(outcome.ran) == outcome.cache_misses
        explorer = Explorer(trace_cache=TraceCache(), result_cache=ResultCache())
        for members, means in zip(groups.values(), outcome.means):
            for point in members:
                evaluation = explorer.evaluate_design_point(point, KERNELS)
                assert (evaluation.mean_seconds, evaluation.mean_comm_fraction) == means

    def test_exhausted_retries_raise_in_the_parent(self):
        explorer = Explorer(
            trace_cache=TraceCache(),
            faults=FaultPlan.parse("pcie:fail=1.0"),
            retry=RetryPolicy(retries=1, base_delay=0.0),
        )
        with pytest.raises(SimulationError, match="failed after 2 attempt"):
            explorer.rank_design_points(POINTS[:6], KERNELS)
        # The shard's per-job retry reached the parent's counters; the
        # shard itself was not re-run.
        assert explorer.run_stats.retry_attempts == 1
        assert explorer.run_stats.retries_exhausted == 1


def _auto(jobs):
    return max(2 * jobs, 1)


class TestShardedRankIdentity:
    @pytest.fixture(scope="class")
    def reference(self):
        return _flat(
            Explorer(
                trace_cache=TraceCache(), result_cache=ResultCache()
            ).rank_design_points(SPREAD, KERNELS)
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("shards", [None, 1, 3, "auto"])
    def test_one_engine_is_identical(self, reference, shards, jobs):
        explorer = Explorer(
            jobs=jobs, trace_cache=TraceCache(), result_cache=ResultCache()
        )
        try:
            ranked = explorer.rank_design_points(
                SPREAD,
                KERNELS,
                shards=_auto(jobs) if shards == "auto" else shards,
            )
        finally:
            explorer.runner.close()
        assert _flat(ranked) == reference

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ConfigError):
            Explorer(trace_cache=TraceCache()).rank_design_points(
                POINTS[:4], KERNELS, shards=0
            )

    def test_distinct_results_write_through_the_memo(self):
        cache = ResultCache()
        explorer = Explorer(jobs=2, trace_cache=TraceCache(), result_cache=cache)
        explorer.rank_design_points(POINTS[:40], KERNELS, shards=4)
        stats = cache.stats()
        assert stats["entries"] > 0
        assert explorer.last_results

    def test_cache_counters_match_the_dedup(self):
        explorer = Explorer(jobs=2, trace_cache=TraceCache())
        points = POINTS[:40]
        explorer.rank_design_points(points, KERNELS, shards=4)
        distinct = {p.timing_key for p in points}
        assert explorer.run_stats.cache_misses == len(distinct) * len(KERNELS)
        assert explorer.run_stats.cache_hits == (
            (len(points) - len(distinct)) * len(KERNELS)
        )


def _store_rank(root, points, shards=None, jobs=2):
    """Rank against a store at ``root``; (flattened ranking, explorer)."""
    store = ResultStore(root)
    try:
        explorer = Explorer(jobs=jobs, trace_cache=TraceCache(), store=store)
        try:
            ranked = explorer.rank_design_points(
                points, KERNELS, shards=shards
            )
        finally:
            explorer.runner.close()
        return _flat(ranked), explorer
    finally:
        store.close()


def _keep_commits(root, count):
    """Simulate a kill: keep only the first ``count`` journal commits."""
    journal = root / "journal.jsonl"
    lines = journal.read_bytes().splitlines(keepends=True)
    assert len(lines) > count
    journal.write_bytes(b"".join(lines[:count]))


class TestStoreResume:
    POINTS = POINTS[::150]

    def test_every_journal_prefix_resumes_identically(self, tmp_path):
        """A kill after any commit: the rerun recomputes only what the
        store lost, and every rerun gives the same ranking."""
        full, _ = _store_rank(tmp_path / "full", self.POINTS, shards=4)
        journal = (tmp_path / "full" / "journal.jsonl").read_bytes()
        lines = journal.splitlines(keepends=True)
        # One commit per distinct result plus one per timing-key group.
        groups = {p.timing_key for p in self.POINTS}
        assert len(groups) > 1
        assert len(lines) == len(groups) * (len(KERNELS) + 1)
        for keep in range(len(lines) + 1):
            root = tmp_path / f"cut-{keep}"
            shutil.copytree(tmp_path / "full", root)
            (root / "journal.jsonl").write_bytes(b"".join(lines[:keep]))
            resumed, _ = _store_rank(
                root, self.POINTS, shards=None if keep % 2 else 3
            )
            assert resumed == full, f"resume after {keep} commit(s) differs"


class TestCheckpointInterop:
    """A store written at one shard count resumes at any other."""

    GROUPS = len({p.timing_key for p in SPREAD})

    def _kill_late(self, root):
        """Drop the last commits, so half the group records are lost."""
        lines = (root / "journal.jsonl").read_bytes().splitlines()
        _keep_commits(root, len(lines) - self.GROUPS // 2)

    def test_sharded_resumes_a_flat_checkpoint(self, tmp_path):
        root = tmp_path / "store"
        # One in-process shard, killed before its last group records.
        serial, _ = _store_rank(root, SPREAD, jobs=1)
        self._kill_late(root)
        resumed, explorer = _store_rank(root, SPREAD, shards=4)
        assert resumed == serial
        assert 0 < explorer.run_stats.cache_misses < self.GROUPS * len(KERNELS)

    def test_flat_resumes_a_sharded_checkpoint(self, tmp_path):
        root = tmp_path / "store"
        sharded, _ = _store_rank(root, SPREAD, shards=4)
        self._kill_late(root)
        resumed, explorer = _store_rank(root, SPREAD, jobs=1)
        assert resumed == sharded
        assert 0 < explorer.run_stats.cache_misses < self.GROUPS * len(KERNELS)

    def test_sharded_checkpoint_round_trips_bit_exact(self, tmp_path):
        root = tmp_path / "store"
        first, _ = _store_rank(root, SPREAD, shards=4)
        # Every group is stored: the rerun loads, simulates nothing.
        rerun, explorer = _store_rank(root, SPREAD, shards=4)
        assert rerun == first
        assert explorer.run_stats.cache_misses == 0
        assert explorer.last_results == []


class TestPoolSizing:
    def test_pool_persists_across_uneven_waves(self):
        """The sizing regression: ``min(jobs, len(items))`` per call used
        to shrink the pool on a short wave; the persistent pool must keep
        its full width and identity across calls."""
        runner = ParallelRunner(jobs=4)
        try:
            # Two items, four jobs: the old per-call sizing would build a
            # two-worker pool here and leave it that way.
            assert runner.map(len, [[1], [1, 2]], stage="short") == [1, 2]
            pool_after_short = runner._pool
            assert pool_after_short is not None
            assert pool_after_short._max_workers == 4
            assert runner.map(len, [[1]] * 9, stage="long") == [1] * 9
            assert runner._pool is pool_after_short
        finally:
            runner.close()

    def test_prestart_spawns_the_full_pool(self):
        runner = ParallelRunner(jobs=2)
        try:
            assert runner.prestart() is True
            assert runner._pool is not None
            assert len(runner._pool._processes) == 2
        finally:
            runner.close()

    def test_prestart_is_a_no_op_serially(self):
        runner = ParallelRunner(jobs=1)
        assert runner.prestart() is False
        assert runner._pool is None

    def test_close_tears_down_and_rebuilds_lazily(self):
        runner = ParallelRunner(jobs=2)
        assert runner.map(len, [[1, 2]], stage="a") == [2]
        runner.close()
        assert runner._pool is None
        assert runner.map(len, [[1, 2, 3]], stage="b") == [3]
        runner.close()
