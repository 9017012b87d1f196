"""Tests for the order-preserving parallel runner and the memoized job path."""

import pytest

from repro.comm.base import IdealChannel
from repro.config.presets import CASE_STUDIES, case_study
from repro.core.explorer import Explorer
from repro.core.space import DesignSpace
from repro.errors import ConfigError, SimulationError
from repro.exec.cache import ResultCache, TraceCache
from repro.exec.job import SimJob, run_sim_job
from repro.exec.runner import ParallelRunner
from repro.kernels.registry import kernel


def _always_fails(item):
    raise ValueError(f"doomed: {item}")


class TestSimJobValidation:
    def test_requires_a_mechanism_selector(self):
        with pytest.raises(SimulationError):
            SimJob(trace=kernel("reduction").trace())

    def test_rejects_two_selectors(self):
        with pytest.raises(SimulationError):
            SimJob(
                trace=kernel("reduction").trace(),
                case=case_study("CPU+GPU"),
                channel=IdealChannel(),
            )

    def test_rejects_nonpositive_worker_count(self):
        with pytest.raises(ConfigError):
            ParallelRunner(jobs=0)

    def test_rejects_nonpositive_job_timeout(self):
        with pytest.raises(ConfigError):
            ParallelRunner(job_timeout=0)
        with pytest.raises(ConfigError):
            ParallelRunner(job_timeout=-1.5)
        # NaN compares false with everything and infinity overflows the
        # pool's wait: neither may slip past the range check.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="finite"):
                ParallelRunner(job_timeout=bad)

    def test_zero_retries_means_exactly_one_attempt(self):
        # NO_RETRY (retries=0) is one attempt, no backoff sleep, and a
        # wrapped SimulationError naming the single attempt.
        sleeps = []
        runner = ParallelRunner(jobs=1, sleep=sleeps.append)
        with pytest.raises(SimulationError, match=r"after 1 attempt"):
            runner.map(_always_fails, [1], stage="test")
        assert runner.stats.retry_attempts == 0
        assert runner.stats.retries_exhausted == 1
        assert sleeps == []


class TestCacheKey:
    def test_key_excludes_the_display_label(self):
        trace = kernel("reduction").trace()
        a = SimJob(trace=trace, case=case_study("CPU+GPU"), system_name="left")
        b = SimJob(trace=trace, case=case_study("CPU+GPU"), system_name="right")
        assert a.cache_key() == b.cache_key()

    def test_explicit_channel_is_uncacheable(self):
        job = SimJob(trace=kernel("reduction").trace(), channel=IdealChannel())
        assert job.cache_key() is None

    def test_different_cases_get_different_keys(self):
        trace = kernel("reduction").trace()
        a = SimJob(trace=trace, case=case_study("CPU+GPU"))
        b = SimJob(trace=trace, case=case_study("LRB"))
        assert a.cache_key() != b.cache_key()


class TestMapFallbacks:
    def test_single_worker_runs_in_process_in_order(self):
        runner = ParallelRunner(jobs=1)
        assert runner.map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_unpicklable_payload_falls_back_in_process(self):
        offset = 10
        runner = ParallelRunner(jobs=4)
        # A closure never pickles, so the pool path is impossible; the
        # runner must degrade to the serial loop, preserving order.
        assert runner.map(lambda x: x + offset, list(range(5))) == [
            10, 11, 12, 13, 14,
        ]

    def test_map_records_stats(self):
        runner = ParallelRunner(jobs=1)
        runner.map(lambda x: x, [1, 2, 3], stage="probe")
        assert runner.stats.jobs_submitted == 3
        assert runner.stats.jobs_completed == 3
        assert "probe" in runner.stats.stage_seconds


class TestPoolEquality:
    def test_pool_results_match_serial(self):
        """jobs>1 fans out over processes yet returns identical results."""
        trace = kernel("reduction").trace()
        jobs = [
            SimJob(trace=trace, case=case) for case in CASE_STUDIES.values()
        ]
        serial = [run_sim_job(job) for job in jobs]
        parallel = ParallelRunner(jobs=2).map(run_sim_job, jobs)
        assert parallel == serial


class TestRunJobsMemoization:
    def _jobs(self, labels):
        trace = kernel("reduction").trace()
        return [
            SimJob(trace=trace, case=case_study("CPU+GPU"), system_name=label)
            for label in labels
        ]

    def test_duplicate_keys_simulate_once(self):
        runner = ParallelRunner(jobs=1)
        memo = ResultCache()
        results = runner.run_jobs(self._jobs(["a", "b", "c"]), result_cache=memo)
        assert runner.stats.jobs_submitted == 1  # one distinct simulation
        assert [r.system for r in results] == ["a", "b", "c"]
        timings = {r.total_seconds for r in results}
        assert len(timings) == 1

    def test_warm_cache_submits_nothing(self):
        runner = ParallelRunner(jobs=1)
        memo = ResultCache()
        runner.run_jobs(self._jobs(["a"]), result_cache=memo)
        assert runner.stats.jobs_submitted == 1
        again = runner.run_jobs(self._jobs(["b"]), result_cache=memo)
        assert runner.stats.jobs_submitted == 1  # no new simulations
        assert runner.stats.cache_hits == 1
        assert again[0].system == "b"

    def test_duplicates_resolve_without_a_cache(self):
        runner = ParallelRunner(jobs=1)
        results = runner.run_jobs(self._jobs(["a", "b"]))
        assert runner.stats.jobs_submitted == 1
        assert [r.system for r in results] == ["a", "b"]

    def test_explicit_channels_bypass_the_memo(self):
        trace = kernel("reduction").trace()
        jobs = [
            SimJob(trace=trace, channel=IdealChannel(), system_name="x"),
            SimJob(trace=trace, channel=IdealChannel(), system_name="y"),
        ]
        runner = ParallelRunner(jobs=1)
        memo = ResultCache()
        runner.run_jobs(jobs, result_cache=memo)
        assert runner.stats.jobs_submitted == 2  # both really ran
        assert memo.lookups == 0 and len(memo) == 0

    def test_stats_see_the_cache_delta_not_totals(self):
        runner = ParallelRunner(jobs=1)
        memo = ResultCache()
        runner.run_jobs(self._jobs(["a", "b"]), result_cache=memo)
        runner.run_jobs(self._jobs(["c", "d"]), result_cache=memo)
        # 1 miss + 1 in-batch dedup hit, then 2 hits.
        assert runner.stats.cache_misses == 1
        assert runner.stats.cache_hits == 3


class TestSerialParallelEquality:
    """The tentpole acceptance check: jobs=N output == jobs=1 output."""

    def _explorer(self, jobs):
        # Private caches so both explorers do all their own work.
        return Explorer(jobs=jobs, trace_cache=TraceCache(), result_cache=ResultCache())

    def test_rank_design_points_identical_at_any_job_count(self):
        points = DesignSpace().feasible_points()
        serial = self._explorer(1).rank_design_points(points)
        parallel = self._explorer(4).rank_design_points(points)
        assert len(serial) == len(parallel) == len(points)
        for s, p in zip(serial, parallel):
            assert s.point == p.point  # same ordering
            assert s.mean_seconds == p.mean_seconds  # bit-identical, no approx
            assert s.mean_comm_fraction == p.mean_comm_fraction
            assert s.comm_lines_total == p.comm_lines_total
            assert s.locality_options == p.locality_options

    def test_case_studies_identical_at_any_job_count(self):
        serial = self._explorer(1).run_case_studies()
        parallel = self._explorer(2).run_case_studies()
        assert serial == parallel

    def test_rank_collapses_the_space_into_few_simulations(self):
        """1457 points x 6 kernels share a handful of distinct timings."""
        explorer = self._explorer(1)
        points = DesignSpace().feasible_points()
        explorer.rank_design_points(points)
        # Simulations run are the in-shard dedup misses; every other
        # (point, kernel) pair reuses one of them.
        distinct = explorer.run_stats.cache_misses
        total = len(points) * 6
        assert distinct < total / 50
        assert explorer.run_stats.cache_hits + distinct == total


class TestCompileCounters:
    """``exec.compile.*`` counts the segment compiles of every detailed job
    the Explorer runs — in pool workers and in-process alike."""

    SCALE = 0.002

    @pytest.fixture(autouse=True)
    def _cold_compile_cache(self):
        # Forked workers inherit this process's compile cache: start cold
        # so the first run really compiles.
        from repro.perf.compiled import SHARED_COMPILE_CACHE

        SHARED_COMPILE_CACHE.clear()

    def _coherence_run(self, jobs):
        explorer = Explorer(
            jobs=jobs, detailed_scale=self.SCALE, trace_cache=TraceCache()
        )
        try:
            explorer.run_coherence_overhead([kernel("reduction")])
        finally:
            explorer.runner.close()
        return explorer

    def test_in_process_run_counts_its_compiles(self):
        explorer = self._coherence_run(jobs=1)
        assert explorer.run_stats.compile_misses > 0

    def test_pool_run_counts_its_compiles(self):
        explorer = self._coherence_run(jobs=2)
        assert explorer.run_stats.compile_misses > 0
