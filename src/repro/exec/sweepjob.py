"""The rank engine's unit of work.

A rank simulates *units*, not points: one per timing group (the points
sharing a :attr:`~repro.core.design_point.DesignPoint.timing_key`), or
one per point under a fault plan, where every point draws its own fault
seeds. :func:`plan_shards` partitions the timing groups into shards,
each group whole and weighed by the simulations it runs;
:class:`ShardJob` is the picklable unit of pool work and ships one
representative point per unit; :func:`run_shard` simulates each unit
once per kernel and returns a compact :class:`ShardOutcome` holding one
``(mean_seconds, mean_comm_fraction)`` pair per unit (from
:func:`mean_metrics`) instead of thousands of pickled results.
:meth:`repro.core.explorer.Explorer.rank_design_points` runs every
ranking this way, one shard in-process by default, and expands each
unit into its members' evaluations only when it orders them
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
    "plan_shards",
    "ShardJob",
    "ShardOutcome",
    "mean_metrics",
    "run_shard",
]


def plan_shards(
    points: Sequence[DesignPoint],
    shards: int,
    weights: Optional[Sequence[int]] = None,
) -> List[List[int]]:
    """Partition point indices into ``shards`` timing-key-aware shards.

    Points with equal :attr:`~repro.core.design_point.DesignPoint.timing_key`
    always land in the same shard, so each distinct simulation runs in
    exactly one worker. A group is weighed by the simulations it runs:
    one unit, since its members share one simulation per kernel, or, with
    ``weights`` (one per point; a fault plan simulates every point on its
    own), the sum of its members' weights. Groups are placed heaviest-first
    onto the least-loaded shard (ties broken by timing key, then shard
    index), which is deterministic and keeps the loads within one
    heaviest group of each other; each shard's indices come back sorted,
    and the returned lists are a true partition of
    ``range(len(points))`` — the Hypothesis suite pins ∪ = all indices and
    pairwise ∩ = ∅.

    Shards can come back empty when there are fewer groups than
    ``shards``; callers skip empty shards rather than padding them. One
    shard is every index in order, with nothing to group or sort.
    """
    shards = knobs.value("shards", shards, "shards")
    if shards == 1:
        return [list(range(len(points)))]
    grouped: "Dict[Tuple[str, str], List[int]]" = {}
    for index, point in enumerate(points):
        grouped.setdefault(point.timing_key, []).append(index)
    weighed = sorted(
        (
            (1 if weights is None else sum(weights[i] for i in indices), key, indices)
            for key, indices in grouped.items()
        ),
        key=lambda item: (-item[0], item[1]),
    )
    plan: List[List[int]] = [[] for _ in range(shards)]
    loads = [0] * shards
    for weight, _, indices in weighed:
        target = loads.index(min(loads))
        plan[target].extend(indices)
        loads[target] += weight
    for bucket in plan:
        bucket.sort()
    return plan


@dataclass(frozen=True)
class ShardJob:
    """One shard of a rank sweep — a picklable unit of pool work.

    Carries one representative point per unit and, in ``sizes``, how many
    points each one stands for (empty: one each; only the dedup counts
    read it), the kernel traces themselves (all six pickle to ~5 KB, and
    shipping them means a worker and an in-process shard read the very
    traces the parent's trace cache built), the machine parameters, and
    the resilience knobs: an active ``fault_plan`` and the ``retry``
    policy of the parent's runner, applied to each job.
    """

    points: Tuple[DesignPoint, ...]
    traces: Tuple[KernelTrace, ...]
    sizes: Tuple[int, ...] = ()
    system: Optional[SystemConfig] = None
    comm_params: Optional[CommParams] = None
    fault_plan: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None


@dataclass(frozen=True)
class ShardOutcome:
    """What a shard sends back: means, not result objects.

    ``means`` holds one ``(mean_seconds, mean_comm_fraction)`` pair per
    unit, in the order of :attr:`ShardJob.points`. ``ran`` carries one
    ``(cache_key, result)`` pair per simulation the shard ran — one per
    (unit, kernel) (``cache_key`` is ``None`` under a fault plan:
    fault-injected results are never memoized) — so the parent can write
    them through its memo/durable store. ``cache_hits`` /
    ``cache_misses`` are the dedup counts (every member beyond a unit's
    representative is a hit per kernel; zero under a fault plan),
    ``retries`` / ``retry_sleep`` the per-job re-attempts, and ``error``
    the message of a job that failed every attempt (``means`` is then
    empty).
    """

    means: Tuple[Tuple[float, float], ...]
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

    Each point of the shard is a unit and simulates once per kernel. The
    jobs go through an in-shard :class:`~repro.exec.runner.ParallelRunner`
    carrying the shard's retry policy, so each job sees the attempts and
    fault seeds the parent's runner would give it.
    """
    jobs = [
        SimJob.from_design_point(
            point,
            trace=trace,
            system=shard.system,
            comm_params=shard.comm_params,
            fault_plan=shard.fault_plan,
        )
        for point in shard.points
        for trace in shard.traces
    ]
    runner = ParallelRunner(jobs=1, retry=shard.retry)
    try:
        results = runner.map(run_sim_job, jobs, stage="shard")
    except SimulationError as exc:
        return ShardOutcome(
            means=(),
            ran=(),
            retries=runner.stats.retry_attempts,
            retry_sleep=runner.stats.retry_sleep_seconds,
            error=str(exc),
        )
    width = len(shard.traces)
    dedup = shard.fault_plan is None
    members = sum(shard.sizes) if shard.sizes else len(shard.points)
    return ShardOutcome(
        means=tuple(
            mean_metrics(results[start : start + width])
            for start in range(0, len(results), width)
        ),
        ran=tuple((job.cache_key(), result) for job, result in zip(jobs, results)),
        cache_hits=(members - len(shard.points)) * width if dedup else 0,
        cache_misses=len(jobs) if dedup else 0,
        retries=runner.stats.retry_attempts,
        retry_sleep=runner.stats.retry_sleep_seconds,
    )
