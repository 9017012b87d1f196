"""The service's bounded, coalescing job queue.

Two robustness properties live here, independent of HTTP:

- **Bounded depth with explicit backpressure** — a submission past
  ``max_depth`` pending jobs raises
  :class:`~repro.errors.QueueFullError` (the daemon answers 503) instead
  of growing the queue without bound under overload.
- **Request coalescing** — two submissions with the same canonical
  request key share one :class:`Job` (and therefore one computation);
  the duplicate submitter just gets the existing handle back.

Completed jobs stay addressable for polling (``GET /v1/jobs/<id>``) in a
bounded history; the oldest finished jobs age out first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import Deque, Dict, Optional, Tuple

from repro.config import knobs
from repro.errors import QueueFullError

__all__ = ["Job", "CoalescingQueue"]

#: Job lifecycle states exposed by ``GET /v1/jobs/<id>``.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
ERROR = "error"


class Job:
    """One queued evaluation: request, identity, and a result future."""

    __slots__ = ("id", "key", "request", "future", "_state", "enqueued_at", "waiters")

    def __init__(self, job_id: str, key: str, request: dict, enqueued_at: float) -> None:
        self.id = job_id
        self.key = key
        self.request = request
        self.future: "Future[dict]" = Future()
        self._state = PENDING
        self.enqueued_at = enqueued_at
        #: Submissions sharing this job (1 = no coalescing happened).
        self.waiters = 1

    @property
    def state(self) -> str:
        """Lifecycle state; only the owning queue transitions it."""
        return self._state

    def describe(self) -> dict:
        """The polling view: state plus result/error when finished."""
        info: dict = {"job": self.id, "state": self.state, "waiters": self.waiters}
        if self.state == DONE:
            info["result"] = self.future.result()
        elif self.state == ERROR:
            exc = self.future.exception()
            info["error"] = type(exc).__name__
            info["detail"] = str(exc)
        return info


class CoalescingQueue:
    """FIFO of :class:`Job`\\ s with coalescing, bounds, and history."""

    def __init__(self, max_depth: int = 32, history: int = 256) -> None:
        self.max_depth = knobs.value("queue_depth", max_depth, "queue depth")
        self.history = history
        self._cond = threading.Condition()
        self._pending: Deque[Job] = deque()
        #: key -> live (pending or running) job, the coalescing map.
        self._live: Dict[str, Job] = {}
        #: id -> job for every job still addressable, oldest first.
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._counter = 0
        self.submitted = 0
        self.coalesced = 0
        self.shed = 0

    def __len__(self) -> int:
        with self._cond:
            return len(self._pending)

    def submit(self, key: str, request: dict, now: float) -> Tuple[Job, bool]:
        """Enqueue (or coalesce onto) the job for ``key``.

        Returns ``(job, created)``; ``created`` is ``False`` when the
        submission coalesced onto an in-flight job. Raises
        :class:`QueueFullError` when the pending queue is at capacity —
        the caller sheds load with a typed response, never blocks.
        """
        with self._cond:
            live = self._live.get(key)
            if live is not None:
                live.waiters += 1
                self.coalesced += 1
                return live, False
            if len(self._pending) >= self.max_depth:
                self.shed += 1
                raise QueueFullError(
                    f"job queue is at capacity ({self.max_depth} pending); "
                    "retry later"
                )
            self._counter += 1
            job = Job(f"job-{self._counter:06d}", key, request, now)
            self._pending.append(job)
            self._live[key] = job
            self._jobs[job.id] = job
            self.submitted += 1
            self._trim_history()
            self._cond.notify()
            return job, True

    def next(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Dequeue the next pending job (marking it running), or ``None``."""
        with self._cond:
            if not self._pending:
                self._cond.wait(timeout)
            if not self._pending:
                return None
            job = self._pending.popleft()
            job._state = RUNNING
            return job

    def finish(self, job: Job, result: Optional[dict], error: Optional[BaseException]) -> None:
        """Resolve a job's future and retire it from the coalescing map."""
        with self._cond:
            self._live.pop(job.key, None)
            if error is not None:
                job._state = ERROR
                job.future.set_exception(error)
            else:
                job._state = DONE
                job.future.set_result(result or {})
            self._trim_history()

    def get(self, job_id: str) -> Optional[Job]:
        with self._cond:
            return self._jobs.get(job_id)

    def drain(self, error: BaseException) -> int:
        """Fail every pending job (service shutdown); returns the count."""
        with self._cond:
            drained = 0
            while self._pending:
                job = self._pending.popleft()
                self._live.pop(job.key, None)
                job._state = ERROR
                job.future.set_exception(error)
                drained += 1
            return drained

    def _trim_history(self) -> None:
        """Drop the oldest *finished* jobs beyond the history bound."""
        finished = [
            job_id
            for job_id, job in self._jobs.items()
            if job.state in (DONE, ERROR)
        ]
        excess = len(self._jobs) - self.history
        for job_id in finished:
            if excess <= 0:
                break
            del self._jobs[job_id]
            excess -= 1
