"""The parallel exploration runtime.

Everything the explorer, the sweeps, and the benchmarks use to scale
design-space exploration:

- :mod:`repro.exec.job` — :class:`SimJob`, a picklable description of one
  simulator run (fast or detailed), and the worker entry points;
- :mod:`repro.exec.sweepjob` — the rank engine's timing-key-aware shards;
- :mod:`repro.exec.runner` — :class:`ParallelRunner`, an order-preserving
  process-pool fan-out with a deterministic in-process fallback;
- :mod:`repro.exec.cache` — :class:`TraceCache` and :class:`ResultCache`
  memo layers with hit/miss accounting;
- :mod:`repro.exec.stats` — :class:`RunStats`, per-stage wall-clock and
  job/cache/resilience counters;
- :mod:`repro.exec.retry` — :class:`RetryPolicy`, deterministic seeded
  exponential backoff for failed jobs.

Resume state for long ranking sweeps lives in the durable store
(:mod:`repro.store`), one record per completed timing-key group.

Parallel runs preserve submission order and are bit-identical to serial
runs; see tests/exec/.
"""

from repro.exec.cache import SHARED_TRACE_CACHE, MemoCache, ResultCache, TraceCache
from repro.exec.job import SimJob, run_sim_job
from repro.exec.retry import NO_RETRY, RetryPolicy, backoff_delay, backoff_schedule
from repro.exec.runner import ParallelRunner
from repro.exec.stats import RunStats

__all__ = [
    "SimJob",
    "run_sim_job",
    "ParallelRunner",
    "RunStats",
    "RetryPolicy",
    "NO_RETRY",
    "backoff_delay",
    "backoff_schedule",
    "MemoCache",
    "TraceCache",
    "ResultCache",
    "SHARED_TRACE_CACHE",
]
