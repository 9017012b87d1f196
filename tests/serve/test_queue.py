"""Tests for the bounded coalescing job queue."""

import pytest

from repro.errors import ConfigError, QueueFullError, ServeError
from repro.serve.queue import DONE, ERROR, PENDING, RUNNING, CoalescingQueue


class TestSubmit:
    def test_fifo_submit_next_finish(self):
        queue = CoalescingQueue(max_depth=4)
        a, created_a = queue.submit("ka", {"n": 1}, now=0.0)
        b, created_b = queue.submit("kb", {"n": 2}, now=0.0)
        assert created_a and created_b
        assert a.state == PENDING
        first = queue.next(timeout=0)
        assert first is a and first.state == RUNNING
        queue.finish(first, {"ok": True}, None)
        assert first.state == DONE
        assert first.future.result(timeout=0) == {"ok": True}
        assert queue.next(timeout=0) is b

    def test_coalescing_shares_one_job(self):
        queue = CoalescingQueue(max_depth=4)
        a, created = queue.submit("ka", {"n": 1}, now=0.0)
        dup, created_dup = queue.submit("ka", {"n": 1}, now=1.0)
        assert created and not created_dup
        assert dup is a
        assert a.waiters == 2
        assert queue.coalesced == 1
        assert len(queue) == 1

    def test_running_jobs_still_coalesce(self):
        # The coalescing map covers live (pending or running) jobs.
        queue = CoalescingQueue(max_depth=4)
        a, _ = queue.submit("ka", {"n": 1}, now=0.0)
        assert queue.next(timeout=0) is a
        dup, created = queue.submit("ka", {"n": 1}, now=1.0)
        assert dup is a and not created

    def test_finished_jobs_do_not_coalesce(self):
        queue = CoalescingQueue(max_depth=4)
        a, _ = queue.submit("ka", {"n": 1}, now=0.0)
        queue.finish(queue.next(timeout=0), {"ok": True}, None)
        b, created = queue.submit("ka", {"n": 1}, now=2.0)
        assert created and b is not a

    def test_backpressure_at_capacity(self):
        queue = CoalescingQueue(max_depth=2)
        queue.submit("ka", {}, now=0.0)
        queue.submit("kb", {}, now=0.0)
        with pytest.raises(QueueFullError):
            queue.submit("kc", {}, now=0.0)
        assert queue.shed == 1
        # A duplicate of an in-flight key still coalesces at capacity.
        dup, created = queue.submit("ka", {}, now=0.0)
        assert not created


class TestPolling:
    def test_get_by_id_and_describe(self):
        queue = CoalescingQueue(max_depth=4)
        a, _ = queue.submit("ka", {"n": 1}, now=0.0)
        assert queue.get(a.id) is a
        assert queue.get("job-999999") is None
        info = a.describe()
        assert info == {"job": a.id, "state": PENDING, "waiters": 1}
        queue.finish(queue.next(timeout=0), {"x": 1}, None)
        assert a.describe()["result"] == {"x": 1}

    def test_describe_error_carries_the_typed_error(self):
        queue = CoalescingQueue(max_depth=4)
        a, _ = queue.submit("ka", {}, now=0.0)
        queue.finish(queue.next(timeout=0), None, ServeError("boom"))
        info = a.describe()
        assert info["state"] == ERROR
        assert info["error"] == "ServeError"
        assert info["detail"] == "boom"

    def test_history_trims_oldest_finished(self):
        queue = CoalescingQueue(max_depth=8, history=2)
        jobs = []
        for i in range(4):
            job, _ = queue.submit(f"k{i}", {}, now=0.0)
            jobs.append(job)
            queue.finish(queue.next(timeout=0), {"i": i}, None)
        assert queue.get(jobs[0].id) is None
        assert queue.get(jobs[1].id) is None
        assert queue.get(jobs[3].id) is jobs[3]


class TestDrain:
    def test_drain_fails_all_pending(self):
        queue = CoalescingQueue(max_depth=4)
        a, _ = queue.submit("ka", {}, now=0.0)
        b, _ = queue.submit("kb", {}, now=0.0)
        assert queue.drain(ServeError("shutdown")) == 2
        for job in (a, b):
            assert job.state == ERROR
            with pytest.raises(ServeError):
                job.future.result(timeout=0)
        assert queue.next(timeout=0) is None

    def test_next_times_out_to_none(self):
        queue = CoalescingQueue(max_depth=4)
        assert queue.next(timeout=0.01) is None

    def test_bad_depth_rejected(self):
        with pytest.raises(ConfigError):
            CoalescingQueue(max_depth=0)
