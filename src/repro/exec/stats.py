"""Lightweight run metrics for the exploration runtime.

A :class:`RunStats` travels with a :class:`~repro.exec.runner.ParallelRunner`
and records, per named stage, how many jobs were submitted to workers, how
many completed, and the stage's wall-clock time; cache hit rates are merged
in from the memo layer. All counts live on a :class:`~repro.obs.metrics.MetricRegistry`
(component ``exec``), so they snapshot/serialize with every other metric
surface; the object stays cheap enough to keep always-on and renders as a
one-line summary for CLI output.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

from repro.obs.metrics import MetricRegistry, MetricSnapshot, Timer

__all__ = ["RunStats"]


class RunStats:
    """Counters and wall-clock timings for one exploration run."""

    def __init__(self) -> None:
        self.metrics = MetricRegistry("exec")
        self._submitted = self.metrics.counter(
            "jobs_submitted", unit="jobs", description="jobs handed to the runner"
        )
        self._completed = self.metrics.counter(
            "jobs_completed", unit="jobs", description="jobs that returned a result"
        )
        self._cache_hits = self.metrics.counter(
            "cache_hits", unit="lookups", description="memo-cache hits"
        )
        self._cache_misses = self.metrics.counter(
            "cache_misses", unit="lookups", description="memo-cache misses"
        )
        self._retry_attempts = self.metrics.counter(
            "retry.attempts", unit="attempts", description="job re-attempts after a failure"
        )
        self._retry_sleep = self.metrics.counter(
            "retry.sleep_seconds", unit="s", description="backoff time slept before re-attempts"
        )
        self._retry_exhausted = self.metrics.counter(
            "retry.exhausted", unit="jobs", description="jobs that failed every allowed attempt"
        )
        self._timeouts = self.metrics.counter(
            "timeouts", unit="jobs", description="jobs killed for exceeding the per-job timeout"
        )
        self._worker_restarts = self.metrics.counter(
            "worker_restarts", unit="pools", description="process pools rebuilt after a crash or timeout"
        )
        self._degraded = self.metrics.counter(
            "degraded_results", unit="jobs", description="results produced by a degraded (fallback) simulator"
        )
        #: Segment-compile cache activity wherever a job ran (pool worker
        #: or in-process), folded in per job from
        #: :func:`~repro.exec.job.run_sim_job_counted` deltas by
        #: :meth:`~repro.exec.runner.ParallelRunner.run_jobs`.
        self._compile_hits = self.metrics.counter(
            "compile.hits", unit="lookups", description="worker compile-cache hits"
        )
        self._compile_misses = self.metrics.counter(
            "compile.misses", unit="lookups", description="worker segment compilations (cold lookups)"
        )
        #: One wall-clock timer per named stage, created on first use.
        self._stage_timers: Dict[str, Timer] = {}

    # -- recording ---------------------------------------------------------

    def record_submitted(self, count: int = 1) -> None:
        self._submitted.inc(count)

    def record_completed(self, count: int = 1) -> None:
        self._completed.inc(count)

    def record_cache(self, hits: int, misses: int) -> None:
        self._cache_hits.inc(hits)
        self._cache_misses.inc(misses)

    def record_retry(self, slept_seconds: float = 0.0, count: int = 1) -> None:
        self._retry_attempts.inc(count)
        self._retry_sleep.inc(slept_seconds)

    def record_retry_exhausted(self) -> None:
        self._retry_exhausted.inc()

    def record_timeout(self) -> None:
        self._timeouts.inc()

    def record_worker_restart(self) -> None:
        self._worker_restarts.inc()

    def record_degraded(self, count: int = 1) -> None:
        self._degraded.inc(count)

    def record_compile(self, delta: Dict[str, int]) -> None:
        """Fold one job's compile-cache delta into the counters."""
        self._compile_hits.inc(int(delta.get("hits", 0)))
        self._compile_misses.inc(int(delta.get("misses", 0)))

    def _stage_timer(self, name: str) -> Timer:
        timer = self._stage_timers.get(name)
        if timer is None:
            timer = self.metrics.timer(
                f"stage.{name}", description=f"wall-clock of the {name!r} stage"
            )
            self._stage_timers[name] = timer
        return timer

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a named stage; repeated stages accumulate."""
        with self._stage_timer(name).time():
            yield

    # -- reporting ---------------------------------------------------------

    @property
    def jobs_submitted(self) -> int:
        return self._submitted.value

    @property
    def jobs_completed(self) -> int:
        return self._completed.value

    @property
    def cache_hits(self) -> int:
        return self._cache_hits.value

    @property
    def cache_misses(self) -> int:
        return self._cache_misses.value

    @property
    def retry_attempts(self) -> int:
        return self._retry_attempts.value

    @property
    def retry_sleep_seconds(self) -> float:
        return self._retry_sleep.value

    @property
    def retries_exhausted(self) -> int:
        return self._retry_exhausted.value

    @property
    def timeouts(self) -> int:
        return self._timeouts.value

    @property
    def worker_restarts(self) -> int:
        return self._worker_restarts.value

    @property
    def degraded_results(self) -> int:
        return self._degraded.value

    @property
    def compile_hits(self) -> int:
        return self._compile_hits.value

    @property
    def compile_misses(self) -> int:
        return self._compile_misses.value

    @property
    def stage_seconds(self) -> Dict[str, float]:
        """Accumulated wall-clock per stage, in first-use order."""
        return {name: timer.seconds for name, timer in self._stage_timers.items()}

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def snapshot(self) -> MetricSnapshot:
        """Immutable point-in-time view of every exec metric."""
        return self.metrics.snapshot()

    def as_dict(self) -> Dict[str, float]:
        data: Dict[str, float] = {
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
        }
        for name, seconds in self.stage_seconds.items():
            data[f"seconds[{name}]"] = seconds
        return data

    def summary(self) -> str:
        stages = ", ".join(
            f"{name} {seconds * 1e3:.1f}ms"
            for name, seconds in self.stage_seconds.items()
        )
        # Resilience counters appear only when something actually went
        # wrong, so a clean run's summary stays byte-identical.
        extras = []
        if self.retry_attempts:
            extras.append(f"retries {self.retry_attempts}")
        if self.timeouts:
            extras.append(f"timeouts {self.timeouts}")
        if self.worker_restarts:
            extras.append(f"worker restarts {self.worker_restarts}")
        if self.degraded_results:
            extras.append(f"degraded {self.degraded_results}")
        return (
            f"jobs {self.jobs_completed}/{self.jobs_submitted} completed; "
            f"cache {self.cache_hits}/{self.cache_lookups} hits "
            f"({self.cache_hit_rate:.0%})"
            + (f"; {'; '.join(extras)}" if extras else "")
            + (f"; stages: {stages}" if stages else "")
        )

    def __repr__(self) -> str:
        return f"<RunStats {self.summary()}>"
