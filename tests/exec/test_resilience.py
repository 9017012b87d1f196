"""Tests for the runner's resilience machinery: retries, timeouts, worker
supervision, and graceful degradation.

Pool tests use module-level functions (pools pickle their work) whose
misbehaviour is keyed off sentinel files under tmp_path, so the first call
crashes/hangs and every later call succeeds — which is exactly the
transient-failure shape the supervision exists for.
"""

import os
import time

import pytest

from repro.errors import CommunicationError, ConfigError, SimulationError
from repro.exec.job import SimJob, run_sim_job
from repro.exec.retry import RetryPolicy, backoff_schedule
from repro.exec.runner import MAX_POOL_RESTARTS, ParallelRunner
from repro.faults.spec import FaultPlan
from repro.kernels.registry import kernel
from repro.config.presets import case_study

NO_SLEEP = RetryPolicy(retries=2, base_delay=0.0, max_delay=0.0, jitter=0.0)


def _double(x):
    return x * 2


def _crash_first_call(arg):
    """Dies (hard, like a segfault) the first time the sentinel is absent."""
    sentinel, value = arg
    if value == 0 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(13)
    return value * 2


def _hang_first_call(arg):
    """Sleeps well past the test's job timeout on its first invocation."""
    sentinel, value = arg
    if value == 0 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        time.sleep(5)
    return value * 2


def _crash_in_workers(arg):
    """Crashes every time it runs outside the submitting process."""
    parent_pid, value = arg
    if os.getpid() != parent_pid:
        os._exit(13)
    return value * 2


class TestInProcessRetry:
    def test_transient_failure_is_retried_to_success(self):
        calls = []

        def flaky(x):
            calls.append(x)
            if len(calls) < 3:
                raise ValueError("transient")
            return x * 2

        runner = ParallelRunner(jobs=1, retry=NO_SLEEP)
        assert runner.map(flaky, [21]) == [42]
        assert len(calls) == 3
        assert runner.stats.retry_attempts == 2
        assert runner.stats.retries_exhausted == 0

    def test_exhausted_retries_wrap_the_original_exception(self):
        def always_fails(x):
            raise ValueError("broken payload")

        runner = ParallelRunner(jobs=1, retry=RetryPolicy(retries=0))
        with pytest.raises(SimulationError) as excinfo:
            runner.map(always_fails, [1])
        assert "after 1 attempt(s)" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert runner.stats.retries_exhausted == 1

    def test_failure_message_carries_the_job_identity(self):
        job = SimJob(
            trace=kernel("reduction").trace(),
            case=case_study("CPU+GPU"),
            fault_plan=FaultPlan.parse("*:fail=1.0,attempts=1"),
        )
        runner = ParallelRunner(jobs=1, retry=RetryPolicy(retries=1, base_delay=0.0, max_delay=0.0, jitter=0.0))
        with pytest.raises(SimulationError) as excinfo:
            runner.run_jobs([job])
        message = str(excinfo.value)
        assert "reduction @ CPU+GPU" in message
        assert "after 2 attempt(s)" in message
        assert isinstance(excinfo.value.__cause__, CommunicationError)

    def test_backoff_delays_follow_the_policy_schedule(self):
        slept = []
        policy = RetryPolicy(retries=3, base_delay=0.05, seed=9)

        def always_fails(x):
            raise ValueError("nope")

        runner = ParallelRunner(jobs=1, retry=policy, sleep=slept.append)
        with pytest.raises(SimulationError):
            runner.map(always_fails, [1])
        assert tuple(slept) == backoff_schedule(policy)
        assert runner.stats.retry_attempts == 3


class TestFaultAttemptReseeding:
    def test_harness_retry_sees_a_fresh_fault_sequence(self):
        """A fault-failed job must not re-fail identically forever: the
        retry ordinal perturbs the injection seed."""
        plan = FaultPlan.parse("seed=1;*:fail=0.4,attempts=1")
        job = SimJob(
            trace=kernel("reduction").trace(),
            case=case_study("CPU+GPU"),
            fault_plan=plan,
        )
        outcomes = []
        for attempt in range(6):
            try:
                run_sim_job(job.for_attempt(attempt))
                outcomes.append("ok")
            except CommunicationError:
                outcomes.append("fail")
        assert len(set(outcomes)) == 2  # some attempts fail, some succeed

    def test_for_attempt_is_identity_without_faults(self):
        job = SimJob(trace=kernel("reduction").trace(), case=case_study("CPU+GPU"))
        assert job.for_attempt(3) is job

    def test_fault_jobs_are_uncacheable(self):
        job = SimJob(
            trace=kernel("reduction").trace(),
            case=case_study("CPU+GPU"),
            fault_plan=FaultPlan.parse("pcie:fail=0.1"),
        )
        assert job.cache_key() is None

    def test_describe_names_kernel_point_and_attempt(self):
        job = SimJob(
            trace=kernel("dct").trace(),
            case=case_study("CPU+GPU"),
            fault_plan=FaultPlan.parse("pcie:fail=0.1"),
        )
        assert job.describe() == "dct @ CPU+GPU"
        assert job.for_attempt(1).describe() == "dct @ CPU+GPU (attempt 2)"


class TestPoolFallbacks:
    def test_pool_creation_failure_degrades_to_in_process(self, monkeypatch):
        def no_pools(*args, **kwargs):
            raise OSError("no process support in this sandbox")

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", no_pools
        )
        runner = ParallelRunner(jobs=4)
        assert runner.map(_double, [1, 2, 3]) == [2, 4, 6]

    def test_unpicklable_batch_still_retries(self):
        calls = []
        bound = 2  # closure => unpicklable => serial fallback

        def flaky(x):
            calls.append(x)
            if len(calls) <= bound:
                raise ValueError("transient")
            return x

        runner = ParallelRunner(jobs=4, retry=NO_SLEEP)
        assert runner.map(flaky, [7]) == [7]
        assert runner.stats.retry_attempts == 2


class TestWorkerSupervision:
    def test_crashed_worker_jobs_are_redispatched(self, tmp_path):
        sentinel = str(tmp_path / "crashed")
        items = [(sentinel, v) for v in range(4)]
        runner = ParallelRunner(jobs=2, retry=NO_SLEEP)
        assert runner.map(_crash_first_call, items) == [0, 2, 4, 6]
        assert runner.stats.worker_restarts >= 1
        assert runner.stats.retry_attempts >= 1

    def test_hung_job_times_out_and_retries(self, tmp_path):
        sentinel = str(tmp_path / "hung")
        items = [(sentinel, v) for v in range(2)]
        runner = ParallelRunner(jobs=2, retry=NO_SLEEP, job_timeout=0.5)
        assert runner.map(_hang_first_call, items) == [0, 2]
        assert runner.stats.timeouts == 1

    def test_repeated_crashes_finish_in_process(self):
        items = [(os.getpid(), v) for v in range(3)]
        runner = ParallelRunner(
            jobs=2,
            retry=RetryPolicy(retries=10, base_delay=0.0, max_delay=0.0, jitter=0.0),
        )
        assert runner.map(_crash_in_workers, items) == [0, 2, 4]
        assert runner.stats.worker_restarts == MAX_POOL_RESTARTS + 1

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ConfigError):
            ParallelRunner(job_timeout=0.0)


class TestGracefulDegradation:
    def test_detailed_failure_degrades_to_the_fast_model(self, monkeypatch):
        def broken_run(self, *args, **kwargs):
            raise SimulationError("detailed machine exploded")

        monkeypatch.setattr("repro.sim.detailed.DetailedSimulator.run", broken_run)
        job = SimJob(
            trace=kernel("reduction").trace().scaled(0.02),
            case=case_study("CPU+GPU"),
            detailed=True,
        )
        runner = ParallelRunner(jobs=1)
        (result,) = runner.run_jobs([job])
        assert result.degraded
        assert result.total_seconds > 0
        assert "[degraded]" in result.summary()
        assert runner.stats.degraded_results == 1

    def test_detailed_case_job_keeps_its_protocol_under_faults(self):
        """A fault plan wraps the case's channel; it must not drop the
        case's coherence protocol from the detailed machine. The plan
        targets PCI-E, which IDEAL-HETERO does not use, so the counters
        (the directory's among them) are those of the fault-free run."""
        trace = kernel("reduction").trace().scaled(0.002)
        case = case_study("IDEAL-HETERO")
        clean = run_sim_job(SimJob(trace=trace, case=case, detailed=True))
        faulty = run_sim_job(
            SimJob(
                trace=trace,
                case=case,
                detailed=True,
                fault_plan=FaultPlan.parse("seed=1;pcie:fail=0.5"),
            )
        )
        assert any(key.startswith("directory.") for key in clean.counters)
        assert set(faulty.counters) == set(clean.counters)
        assert faulty.system == clean.system == "IDEAL-HETERO"

    def test_fast_results_are_not_flagged(self):
        job = SimJob(trace=kernel("reduction").trace(), case=case_study("CPU+GPU"))
        (result,) = ParallelRunner(jobs=1).run_jobs([job])
        assert not result.degraded
        assert "[degraded]" not in result.summary()
