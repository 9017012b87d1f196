"""Order-preserving, fault-tolerant parallel execution of simulation jobs.

:class:`ParallelRunner` fans a batch of :class:`~repro.exec.job.SimJob`s out
over a :class:`concurrent.futures.ProcessPoolExecutor` and returns results
in submission order, so a parallel run is bit-identical to a serial one
(the fast simulator is deterministic pure arithmetic and each job carries
its full configuration). Three situations fall back to a deterministic
in-process loop:

- ``jobs <= 1`` (the default) — no pool is ever created;
- a batch whose jobs do not pickle (e.g. a hand-built channel holding a
  closure) — detected up front, before any worker starts;
- pool creation failing outright (restricted environments without
  ``fork``/semaphores).

On top of the fan-out the runner owns the batch's *resilience*:

- **bounded retry** — a job that raises is re-attempted per its
  :class:`~repro.exec.retry.RetryPolicy` with deterministic exponential
  backoff; fault-injected jobs are re-seeded per attempt so a transient
  injected failure does not repeat identically;
- **per-job timeout** — a pool job whose result does not arrive within
  ``job_timeout`` seconds is charged a failed attempt and the (possibly
  hung) pool is torn down and rebuilt;
- **worker supervision** — a crashed worker (``BrokenProcessPool``) gets
  the pool rebuilt and every unfinished job re-dispatched instead of
  aborting the batch; repeated crashes degrade to the in-process loop;
- **identity-preserving errors** — a job that fails every attempt raises
  :class:`~repro.errors.SimulationError` carrying the job's label and
  design-point key, with the original exception as ``__cause__``.

The runner also owns the memo integration: batches route through a
:class:`~repro.exec.cache.ResultCache` so that duplicate jobs — the common
case when ranking a design space whose points differ only in axes that do
not affect timing — are simulated once and re-labeled on retrieval.
"""

from __future__ import annotations

import math
import pickle
import time
from typing import Callable, Dict, Hashable, List, Optional, Sequence, TypeVar

from repro.errors import ConfigError, SimulationError
from repro.exec.cache import ResultCache
from repro.exec.job import SimJob, run_sim_job_counted
from repro.exec.retry import NO_RETRY, RetryPolicy, backoff_delay
from repro.exec.stats import RunStats
from repro.obs.log import get_logger
from repro.sim.results import SimulationResult

__all__ = ["ParallelRunner", "MAX_POOL_RESTARTS"]

_log = get_logger("exec.runner")

T = TypeVar("T")
R = TypeVar("R")

#: Crash-triggered pool rebuilds tolerated per batch before the runner
#: gives up on process isolation and finishes the batch in-process.
MAX_POOL_RESTARTS = 3


def _picklable(value: object) -> bool:
    try:
        pickle.dumps(value)
    except Exception:
        return False
    return True


def _describe(item: object) -> str:
    """Job identity for error messages (compact repr for generic items)."""
    if isinstance(item, SimJob):
        return item.describe()
    text = repr(item)
    return text if len(text) <= 80 else text[:77] + "..."


def _item_for_attempt(item: T, attempt: int) -> T:
    """Re-key a job to a harness attempt (no-op for non-job items)."""
    if attempt and isinstance(item, SimJob):
        return item.for_attempt(attempt)
    return item


def _prestart_hold(seconds: float) -> bool:
    """Pool warm-up task: hold a worker busy so its siblings must spawn."""
    time.sleep(seconds)
    return True


class ParallelRunner:
    """Executes job batches, in order, across worker processes.

    ``jobs`` is the worker-process count; ``stats`` (a :class:`RunStats`)
    accumulates submission/completion counts, per-stage wall-clock, and
    the retry/timeout/crash counters. ``retry`` bounds re-attempts of
    failed jobs (default: a single attempt), ``job_timeout`` bounds each
    pool job's wall-clock, and ``sleep`` is injectable for tests.

    The worker pool is **persistent**: it is created once, sized by
    ``jobs`` (never shrunk to a small trailing batch — shard dispatch
    sends uneven waves through the same pool), reused across :meth:`map`
    calls, and torn down only by supervision (crash/timeout rebuilds) or
    :meth:`close`.
    """

    def __init__(
        self,
        jobs: int = 1,
        stats: Optional[RunStats] = None,
        retry: Optional[RetryPolicy] = None,
        job_timeout: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if job_timeout is not None and not (
            math.isfinite(job_timeout) and job_timeout > 0
        ):
            raise ConfigError(
                "job timeout must be a positive finite number of seconds, "
                f"got {job_timeout}"
            )
        self.jobs = jobs
        self.stats = stats or RunStats()
        self.retry = retry or NO_RETRY
        self.job_timeout = job_timeout
        self._sleep = sleep
        self._pool: "object | None" = None

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self) -> object:
        """The persistent pool, created on first use at full ``jobs`` width."""
        if self._pool is None:
            import concurrent.futures

            self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Shut the persistent pool down (idempotent; runner stays usable —
        the next :meth:`map` simply builds a fresh pool)."""
        self._teardown_pool()

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:
            pass

    def prestart(self, hold_seconds: float = 0.05) -> bool:
        """Spawn the full worker complement now (a *warm pool*).

        Pool executors spawn workers lazily per submission and reuse idle
        ones, so a quiet pool may hold fewer than ``jobs`` processes. This
        submits ``jobs`` brief holds that must overlap, forcing every
        worker to start before real work arrives.
        Best-effort: False when pools are unavailable here.
        """
        if self.jobs <= 1:
            return False
        try:
            pool = self._ensure_pool()
            futures = [
                pool.submit(_prestart_hold, hold_seconds) for _ in range(self.jobs)
            ]
            for future in futures:
                future.result()
        except Exception as exc:  # noqa: BLE001 - warm start is advisory
            _log.debug("pool prestart unavailable (%s)", exc)
            self._teardown_pool()
            return False
        return True

    # -- generic order-preserving map --------------------------------------

    def map(
        self,
        func: Callable[[T], R],
        items: Sequence[T],
        stage: str = "map",
    ) -> List[R]:
        """Apply ``func`` to every item, returning results in item order.

        ``func`` must be a module-level callable for the pool path; when the
        pool cannot be used (single worker, unpicklable payload, no process
        support) the same loop runs in-process, in the same order.
        """
        items = list(items)
        self.stats.record_submitted(len(items))
        with self.stats.stage(stage):
            results = self._execute(func, items)
        self.stats.record_completed(len(results))
        return results

    # -- retry plumbing ----------------------------------------------------

    def _backoff(self, attempt: int) -> None:
        """Record and serve the delay before re-attempt ``attempt`` (0-based)."""
        delay = backoff_delay(self.retry, attempt)
        self.stats.record_retry(delay)
        if delay > 0.0:
            self._sleep(delay)

    def _wrap_failure(
        self, item: object, exc: BaseException, attempts: int
    ) -> SimulationError:
        """The batch-aborting error: job identity plus the original cause."""
        self.stats.record_retry_exhausted()
        wrapped = SimulationError(
            f"job {_describe(item)} failed after {attempts} attempt(s): {exc}"
        )
        wrapped.__cause__ = exc
        return wrapped

    def _run_one(self, func: Callable[[T], R], item: T, first_attempt: int = 0) -> R:
        """One item, in-process, with the full retry budget."""
        start = min(first_attempt, self.retry.retries)
        last_exc: Optional[BaseException] = None
        for attempt in range(start, self.retry.retries + 1):
            if attempt > start or (attempt == start and last_exc is not None):
                self._backoff(attempt - 1)
            try:
                return func(_item_for_attempt(item, attempt))
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                last_exc = exc
                _log.debug(
                    "job %s failed on attempt %d/%d: %s",
                    _describe(item),
                    attempt + 1,
                    self.retry.retries + 1,
                    exc,
                )
        raise self._wrap_failure(item, last_exc, self.retry.retries + 1)

    # -- execution engines -------------------------------------------------

    def _execute(self, func: Callable[[T], R], items: List[T]) -> List[R]:
        if self.jobs <= 1 or len(items) <= 1:
            return [self._run_one(func, item) for item in items]
        if not (_picklable(func) and all(_picklable(item) for item in items)):
            _log.debug(
                "batch of %d does not pickle; running in-process", len(items)
            )
            return [self._run_one(func, item) for item in items]
        return self._execute_pool(func, items)

    def _execute_pool(self, func: Callable[[T], R], items: List[T]) -> List[R]:
        """The supervised pool engine: submit in order, collect in order.

        The **persistent** pool (``self._pool``, full ``jobs`` width even
        for a small trailing shard) is reused across batches; it is rebuilt
        after a worker crash or a job timeout, and jobs whose futures were
        casualties of a teardown are re-dispatched at their current attempt
        (only the job actually blamed is charged).
        """
        try:
            from concurrent.futures import TimeoutError as FuturesTimeout
            from concurrent.futures.process import BrokenProcessPool
        except ImportError as exc:  # pragma: no cover - exotic interpreters
            _log.debug(
                "process pools unavailable (%s); running %d items in-process",
                exc,
                len(items),
            )
            return [self._run_one(func, item) for item in items]

        try:
            pool = self._ensure_pool()
        except (OSError, ImportError, PermissionError) as exc:
            # No usable process support (sandboxed interpreter): degrade to
            # the deterministic in-process path.
            _log.debug(
                "process pool unavailable (%s); running %d items in-process",
                exc,
                len(items),
            )
            self._pool = None
            return [self._run_one(func, item) for item in items]

        results: List[Optional[R]] = [None] * len(items)
        done = [False] * len(items)
        attempts = [0] * len(items)
        crash_restarts = 0
        try:
            while not all(done):
                # submit() in order, collect in order: identical to serial.
                futures: Dict[int, object] = {}
                pool_broken = False
                try:
                    for index, item in enumerate(items):
                        if not done[index]:
                            futures[index] = pool.submit(
                                func, _item_for_attempt(item, attempts[index])
                            )
                except Exception:
                    pool_broken = True
                for index in sorted(futures):
                    if pool_broken:
                        break
                    try:
                        results[index] = futures[index].result(
                            timeout=self.job_timeout
                        )
                        done[index] = True
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except FuturesTimeout:
                        self.stats.record_timeout()
                        _log.debug(
                            "job %s exceeded its %.3fs timeout; tearing the "
                            "pool down",
                            _describe(items[index]),
                            self.job_timeout,
                        )
                        cause = SimulationError(
                            f"timed out after {self.job_timeout}s"
                        )
                        self._charge_attempt(items[index], index, attempts, cause)
                        pool_broken = True
                    except BrokenProcessPool as exc:
                        # A worker died. We cannot know which job killed it;
                        # charge the one we were waiting on and re-dispatch
                        # the rest at their current attempt.
                        self.stats.record_worker_restart()
                        crash_restarts += 1
                        _log.debug(
                            "worker crashed while running %s; rebuilding the "
                            "pool (restart %d/%d)",
                            _describe(items[index]),
                            crash_restarts,
                            MAX_POOL_RESTARTS,
                        )
                        self._charge_attempt(items[index], index, attempts, exc)
                        pool_broken = True
                    except Exception as exc:
                        # The job itself raised inside the worker; the pool
                        # is still healthy.
                        _log.debug(
                            "job %s failed on attempt %d/%d: %s",
                            _describe(items[index]),
                            attempts[index] + 1,
                            self.retry.retries + 1,
                            exc,
                        )
                        self._charge_attempt(items[index], index, attempts, exc)
                if pool_broken:
                    self._teardown_pool()
                    if crash_restarts > MAX_POOL_RESTARTS:
                        _log.debug(
                            "pool crashed %d times; finishing %d job(s) "
                            "in-process",
                            crash_restarts,
                            sum(1 for d in done if not d),
                        )
                        for index, item in enumerate(items):
                            if not done[index]:
                                results[index] = self._run_one(
                                    func, item, first_attempt=attempts[index]
                                )
                                done[index] = True
                        break
                    try:
                        pool = self._ensure_pool()
                    except (OSError, ImportError, PermissionError) as exc:
                        _log.debug(
                            "pool rebuild failed (%s); finishing %d job(s) "
                            "in-process",
                            exc,
                            sum(1 for d in done if not d),
                        )
                        self._pool = None
                        for index, item in enumerate(items):
                            if not done[index]:
                                results[index] = self._run_one(
                                    func, item, first_attempt=attempts[index]
                                )
                                done[index] = True
                        break
        except BaseException:
            # A batch-aborting error (retry exhausted, interrupt) leaves
            # futures in flight; cancel them with the pool rather than
            # leaking a wedged executor behind the persistent handle.
            self._teardown_pool()
            raise
        return results  # type: ignore[return-value]

    def _charge_attempt(
        self,
        item: object,
        index: int,
        attempts: List[int],
        exc: BaseException,
    ) -> None:
        """Consume one retry-budget unit for ``item``; raise when exhausted.

        When budget remains, the backoff delay is recorded and slept here
        (re-submission happens on the supervisor's next round).
        """
        if attempts[index] >= self.retry.retries:
            raise self._wrap_failure(item, exc, attempts[index] + 1)
        self._backoff(attempts[index])
        attempts[index] += 1

    # -- simulation batches with memoization -------------------------------

    def run_jobs(
        self,
        jobs: Sequence[SimJob],
        result_cache: Optional[ResultCache] = None,
        stage: str = "simulate",
    ) -> List[SimulationResult]:
        """Run a batch of simulation jobs, in order, through the memo cache.

        Jobs whose :meth:`~SimJob.cache_key` is already cached are served
        without simulating; duplicate keys within the batch simulate once.
        Uncacheable jobs (explicit channels, fault-injected jobs) always
        run. Each simulated job's segment-compile delta, taken where it
        ran, is folded into the ``exec.compile.*`` counters.
        """
        jobs = list(jobs)
        hits_before = result_cache.hits if result_cache is not None else 0
        misses_before = result_cache.misses if result_cache is not None else 0
        results: List[Optional[SimulationResult]] = [None] * len(jobs)
        pending_key: Dict[Hashable, int] = {}
        dedup_slots: List[int] = []
        to_run: List[SimJob] = []
        run_slots: List[int] = []

        for index, job in enumerate(jobs):
            key = job.cache_key()
            if key is None:
                to_run.append(job)
                run_slots.append(index)
                continue
            if key in pending_key:
                dedup_slots.append(index)  # resolved after the batch runs
                continue
            if result_cache is not None:
                cached = result_cache.get(key, system_name=job.system_name)
                if cached is not None:
                    results[index] = cached
                    continue
            pending_key[key] = index
            to_run.append(job)
            run_slots.append(index)

        computed = self.map(run_sim_job_counted, to_run, stage=stage)
        degraded = 0
        for slot, job, (result, compile_delta) in zip(run_slots, to_run, computed):
            self.stats.record_compile(compile_delta)
            results[slot] = result
            if result.degraded:
                degraded += 1
            key = job.cache_key()
            if key is not None and result_cache is not None:
                result_cache.put(key, result)
        if degraded:
            self.stats.record_degraded(degraded)

        if dedup_slots:
            memo = result_cache or ResultCache()
            if result_cache is None:
                for slot in run_slots:
                    key = jobs[slot].cache_key()
                    if key is not None:
                        memo.put(key, results[slot])
            for slot in dedup_slots:
                job = jobs[slot]
                results[slot] = memo.get(job.cache_key(), system_name=job.system_name)

        if result_cache is not None:
            self.stats.record_cache(
                result_cache.hits - hits_before,
                result_cache.misses - misses_before,
            )

        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]
