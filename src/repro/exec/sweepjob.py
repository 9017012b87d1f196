"""The rank engine's unit of work.

:func:`plan_shards` partitions a design-point list into timing-key-aware
shards (points that dedup to the same simulation always co-locate, so
in-shard memoization is as effective as a global memo), :class:`ShardJob`
is the picklable unit of pool work, and :func:`run_shard` evaluates one
shard whole — simulating each distinct timing key once (or, under a
fault plan, every job with its own retries) and aggregating per-point
means with :func:`mean_metrics` — returning a compact
:class:`ShardOutcome` instead of thousands of pickled results.
:meth:`repro.core.explorer.Explorer.rank_design_points` runs every
ranking this way, one shard in-process by default
(``tests/exec/test_shard.py`` pins identity across shard and job counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.config import knobs
from repro.config.comm import CommParams
from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.exec.job import SimJob, run_sim_job
from repro.exec.retry import RetryPolicy
from repro.exec.runner import ParallelRunner
from repro.faults.spec import FaultPlan
from repro.sim.results import SimulationResult
from repro.trace.stream import KernelTrace

if TYPE_CHECKING:  # pragma: no cover - import would cycle through repro.core
    from repro.core.design_point import DesignPoint

__all__ = [
    "timing_key",
    "plan_shards",
    "ShardJob",
    "ShardOutcome",
    "mean_metrics",
    "run_shard",
]


def timing_key(point: DesignPoint) -> Tuple[str, str]:
    """The axes of ``point`` that can affect simulated timing: its
    memoized :attr:`~repro.core.design_point.DesignPoint.timing_key`."""
    return point.timing_key


def plan_shards(points: Sequence[DesignPoint], shards: int) -> List[List[int]]:
    """Partition point indices into ``shards`` timing-key-aware shards.

    Points with equal :func:`timing_key` always land in the same shard, so
    each distinct simulation runs in exactly one worker and in-shard dedup
    matches the global memo's effectiveness. Key groups are placed
    largest-first onto the least-loaded shard (ties broken by shard index),
    which is deterministic; each shard's indices come back sorted, and the
    returned lists are a true partition of ``range(len(points))`` — the
    Hypothesis suite pins ∪ = all indices and pairwise ∩ = ∅.

    Shards can come back empty when there are fewer key groups than
    ``shards``; callers skip empty shards rather than padding them.
    """
    shards = knobs.value("shards", shards, "shards")
    grouped: "Dict[Tuple[str, str], List[int]]" = {}
    for index, point in enumerate(points):
        grouped.setdefault(timing_key(point), []).append(index)
    plan: List[List[int]] = [[] for _ in range(shards)]
    loads = [0] * shards
    for key, indices in sorted(
        grouped.items(), key=lambda item: (-len(item[1]), item[0])
    ):
        target = loads.index(min(loads))
        plan[target].extend(indices)
        loads[target] += len(indices)
    for bucket in plan:
        bucket.sort()
    return plan


@dataclass(frozen=True)
class ShardJob:
    """One shard of a rank sweep — a picklable unit of pool work.

    Carries the shard's points, the kernel traces themselves (all six
    pickle to ~5 KB, and shipping them means a worker and an in-process
    shard read the very traces the parent's trace cache built), the
    machine parameters, and the resilience knobs: an active
    ``fault_plan`` and the ``retry`` policy of the parent's runner,
    applied to each job.
    """

    points: Tuple[DesignPoint, ...]
    traces: Tuple[KernelTrace, ...]
    system: Optional[SystemConfig] = None
    comm_params: Optional[CommParams] = None
    fault_plan: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None


@dataclass(frozen=True)
class ShardOutcome:
    """What a shard sends back: evaluations, not result objects.

    ``evaluations`` holds one ``(label, mean_seconds, mean_comm_fraction)``
    tuple per point. ``ran`` carries one ``(cache_key, result)`` pair per
    simulation the shard actually ran — a few per timing key without
    faults, every (point, kernel) job with them (``cache_key`` is then
    ``None``: fault-injected results are never memoized) — so the parent
    can write them through its memo/durable store. ``cache_hits`` /
    ``cache_misses`` are the in-shard dedup counts, ``retries`` /
    ``retry_sleep`` the per-job re-attempts, and ``error`` the message of
    a job that failed every attempt (the shard's evaluations are then
    empty).
    """

    evaluations: Tuple[Tuple[str, float, float], ...]
    ran: Tuple[Tuple[Optional[Hashable], SimulationResult], ...]
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    retry_sleep: float = 0.0
    error: Optional[str] = None


def mean_metrics(results: Sequence[SimulationResult]) -> Tuple[float, float]:
    """``(mean_seconds, mean_comm_fraction)`` over one point's kernels.

    Sums in kernel order before one division — the single definition of
    a point's aggregate, shared by the rank engine and
    :meth:`repro.core.explorer.Explorer.evaluate_design_point`.
    """
    totals = [r.total_seconds for r in results]
    comm_fracs = [r.breakdown.communication_fraction for r in results]
    return sum(totals) / len(totals), sum(comm_fracs) / len(comm_fracs)


def run_shard(shard: ShardJob) -> ShardOutcome:
    """Evaluate one shard (in a worker, or in-process for a single shard).

    Without faults each distinct :func:`timing_key` simulates once per
    kernel and every point sharing it reuses those results. A fault plan
    seeds each job's faults from its own label, so under faults every
    (point, kernel) job runs on its own. Either way the jobs go through
    an in-shard :class:`~repro.exec.runner.ParallelRunner` carrying the
    shard's retry policy, so each job sees the attempts and fault seeds
    the parent's runner would give it.
    """
    dedup = shard.fault_plan is None
    groups: "Dict[Hashable, List[DesignPoint]]" = {}
    for point in shard.points:
        key = timing_key(point) if dedup else point.label
        groups.setdefault(key, []).append(point)
    jobs = [
        SimJob.from_design_point(
            first,
            trace=trace,
            system=shard.system,
            comm_params=shard.comm_params,
            fault_plan=shard.fault_plan,
        )
        for first in (members[0] for members in groups.values())
        for trace in shard.traces
    ]
    runner = ParallelRunner(jobs=1, retry=shard.retry)
    try:
        results = runner.map(run_sim_job, jobs, stage="shard")
    except SimulationError as exc:
        return ShardOutcome(
            evaluations=(),
            ran=(),
            retries=runner.stats.retry_attempts,
            retry_sleep=runner.stats.retry_sleep_seconds,
            error=str(exc),
        )
    width = len(shard.traces)
    evaluations: List[Tuple[str, float, float]] = []
    for index, members in enumerate(groups.values()):
        mean_seconds, mean_comm_fraction = mean_metrics(
            results[index * width : (index + 1) * width]
        )
        evaluations.extend(
            (point.label, mean_seconds, mean_comm_fraction) for point in members
        )
    return ShardOutcome(
        evaluations=tuple(evaluations),
        ran=tuple((job.cache_key(), result) for job, result in zip(jobs, results)),
        cache_hits=len(shard.points) * width - len(jobs) if dedup else 0,
        cache_misses=len(jobs) if dedup else 0,
        retries=runner.stats.retry_attempts,
        retry_sleep=runner.stats.retry_sleep_seconds,
    )
