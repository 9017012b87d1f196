"""The explorer: runs the paper's quantitative experiments.

- :meth:`Explorer.run_case_studies` — five systems x six kernels
  (Figures 5 and 6);
- :meth:`Explorer.run_address_spaces` — UNI/PAS/DIS/ADSM with ideal
  communication and a shared cache (Figure 7);
- :meth:`Explorer.evaluate_design_point` / :meth:`Explorer.rank_design_points`
  — combine performance, programmability, and option counts into the
  paper's overall judgement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.check import CheckConfig, check_trace
from repro.config import knobs
from repro.config.comm import CommParams
from repro.config.presets import CASE_STUDIES, CaseStudy
from repro.config.system import SystemConfig
from repro.core.design_point import DesignPoint
from repro.core.space import DesignSpace
from repro.core.programmability import table5_dict
from repro.errors import CheckError, DesignSpaceError, SimulationError
from repro.exec import sweepjob
from repro.exec.cache import SHARED_TRACE_CACHE, ResultCache, TraceCache
from repro.exec.job import SimJob
from repro.exec.retry import RetryPolicy
from repro.exec.runner import ParallelRunner
from repro.exec.stats import RunStats
from repro.faults.spec import FaultPlan
from repro.kernels.base import Kernel
from repro.kernels.registry import all_kernels
from repro.locality.schemes import feasible_schemes
from repro.obs.log import get_logger
from repro.sim.mmu import stage_shared_trace
from repro.sim.results import SimulationResult
from repro.store.cache import StoreBackedResultCache
from repro.store.keys import stable_digest
from repro.store.store import ResultStore
from repro.taxonomy import AddressSpaceKind, CommMechanism
from repro.trace.stream import KernelTrace

__all__ = ["Explorer", "DesignPointEvaluation"]

_log = get_logger("core.explorer")

#: Valid values for the Explorer's pre-simulation check gate.
#: ``optimize`` runs the checker with the advisory OPT/INF dataflow
#: passes enabled and logs every finding, but — like ``warn`` — never
#: refuses to simulate: optimization opportunities are not violations.
CHECK_MODES = knobs.KNOBS["check"].choices

#: Store namespace for rank-sweep records: one per timing-key group.
SWEEP_KIND = "sweep"


@functools.lru_cache(maxsize=None)
def _comm_lines_by_space() -> Mapping[AddressSpaceKind, int]:
    """Table V's total comm-handling lines per address space.

    Constant for a given repo state, but derived by lowering every
    program spec (~1 ms), so it is computed once per process; the cached
    mapping is read-only because every caller shares it.
    """
    table5 = table5_dict()
    return MappingProxyType(
        {
            space: sum(per_kernel[space] for per_kernel in table5.values())
            for space in AddressSpaceKind
        }
    )


@functools.lru_cache(maxsize=None)
def _locality_options(space: AddressSpaceKind) -> int:
    return len(feasible_schemes(space))


@dataclass(frozen=True)
class DesignPointEvaluation:
    """Aggregate metrics for one design point across the kernels."""

    point: DesignPoint
    mean_seconds: float
    mean_comm_fraction: float
    comm_lines_total: int
    locality_options: int

    def score(self) -> Tuple[float, float, float]:
        """Sort key for ranking: more options, fewer comm lines, faster.

        Mirrors the paper's weighting: versatility of design options is
        the headline criterion, programmability second, raw performance
        last (the paper shows address space barely affects performance).
        """
        return (-self.locality_options, self.comm_lines_total, self.mean_seconds)

    @classmethod
    def of(
        cls, point: DesignPoint, mean_seconds: float, mean_comm_fraction: float
    ) -> "DesignPointEvaluation":
        """An evaluation from a point's simulated means.

        The analytic columns — Table V comm lines and the locality option
        count — depend only on the address space, so simulated and stored
        evaluations alike are rebuilt here.
        """
        return cls(
            point=point,
            mean_seconds=mean_seconds,
            mean_comm_fraction=mean_comm_fraction,
            comm_lines_total=_comm_lines_by_space()[point.address_space],
            locality_options=_locality_options(point.address_space),
        )


class Explorer:
    """Runs experiment suites over kernels, case studies, and design points."""

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        comm_params: Optional[CommParams] = None,
        detailed_scale: float = 0.02,
        jobs: "int | str" = 1,
        trace_cache: Optional[TraceCache] = None,
        result_cache: Optional[ResultCache] = None,
        check: str = "off",
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        job_timeout: Optional[float] = None,
        store: Optional[ResultStore] = None,
    ) -> None:
        self.system = system or SystemConfig()
        self.comm_params = comm_params or CommParams()
        #: Trace scale of every detailed suite
        #: (:meth:`run_case_studies_detailed`, :meth:`run_coherence_overhead`).
        self.detailed_scale = detailed_scale
        #: The exploration runtime: ``jobs`` worker processes (1 = fully
        #: in-process), a trace memo shared across explorers by default,
        #: and a per-explorer result memo. Parallel runs preserve
        #: submission order, so results are identical to ``jobs=1``.
        self.run_stats = RunStats()
        #: Resilience knobs: ``faults`` wraps every job's channel in a
        #: fault-injecting decorator (see :mod:`repro.faults`), ``retry``
        #: bounds harness-level re-attempts with deterministic backoff,
        #: ``job_timeout`` caps each pool job's wall-clock. All default to
        #: off, keeping the clean path byte-identical.
        self.faults = faults if (faults is not None and faults.active) else None
        self.runner = ParallelRunner(
            jobs=jobs, stats=self.run_stats, retry=retry, job_timeout=job_timeout
        )
        self.trace_cache = trace_cache if trace_cache is not None else SHARED_TRACE_CACHE
        #: With ``store`` the result memo is backed by a durable
        #: :class:`~repro.store.store.ResultStore`: misses fall through to
        #: disk, computed results write through, so a killed run replays
        #: completed simulations on restart (see :mod:`repro.store`). An
        #: explicit ``result_cache`` wins; without either, the memo is the
        #: plain in-process :class:`ResultCache` and nothing touches disk.
        self.store = store
        if result_cache is not None:
            self.result_cache = result_cache
        elif store is not None:
            self.result_cache = StoreBackedResultCache(store)
        else:
            self.result_cache = ResultCache()
        #: Flat results of the most recent batch, in submission order —
        #: the input :func:`~repro.obs.tracing.trace_from_results` needs.
        self.last_results: List[SimulationResult] = []
        #: Pre-simulation static checker gate (``repro.check``): ``"off"``
        #: skips it entirely (default — output stays byte-identical),
        #: ``"warn"`` logs findings, ``"error"`` refuses to simulate a
        #: trace that violates its design point's obligations, and
        #: ``"optimize"`` logs correctness *and* advisory OPT/INF
        #: findings without ever gating.
        self.check = knobs.value("check", check, "check mode")
        self._check_memo: Dict[Tuple, bool] = {}

    @property
    def jobs(self) -> int:
        return self.runner.jobs

    def cache_stats(self) -> "Dict[str, Dict[str, float]]":
        """The memo layer's stats dicts, keyed by cache name.

        ``--metrics-out`` emits these as ``exec.cache.*``, serve as
        ``/metrics`` lines. ``compile`` is this process's segment-compile
        cache; the compile activity of every job the runner ran, in a
        worker or in-process, arrives separately through the
        ``exec.compile.*`` counters.
        """
        from repro.perf.compiled import SHARED_COMPILE_CACHE

        return {
            "trace": dict(self.trace_cache.stats()),
            "result": dict(self.result_cache.stats()),
            "compile": dict(SHARED_COMPILE_CACHE.stats()),
        }

    def _job(self, trace, **kwargs) -> SimJob:
        """A :class:`SimJob` pinned to this explorer's machine parameters."""
        return SimJob(
            trace=trace,
            system=self.system,
            comm_params=self.comm_params,
            fault_plan=self.faults,
            **kwargs,
        )

    def _gate(self, trace, config: CheckConfig) -> None:
        """Run the static checker on one (trace, config) pair if enabled.

        ``warn`` logs every finding; ``error`` raises :class:`CheckError`
        when the report contains error-severity findings; ``optimize``
        behaves like ``warn`` but additionally runs the OPT/INF dataflow
        passes (dead/redundant transfers, inferable declarations) —
        advisory findings that never gate. Reports are memoized per
        (trace, config), so repeated submissions of the same pair (rank's
        big fan-out) check once.
        """
        if self.check == "off":
            return
        key = (trace, config)
        if key in self._check_memo:
            ok = self._check_memo[key]
            if not ok and self.check == "error":
                raise CheckError(
                    f"{trace.name} violates the {config.label} obligations "
                    "(previously reported)"
                )
            return
        report = check_trace(trace, config, optimize=self.check == "optimize")
        for finding in report.findings:
            _log.warning("[check] %s", finding.line())
        self._check_memo[key] = not report.errors
        if self.check == "error" and report.errors:
            raise CheckError(
                f"{trace.name} violates the {config.label} obligations: "
                + "; ".join(f.line() for f in report.findings)
            )

    def run_case_studies_detailed(
        self,
        kernels: Optional[Sequence[Kernel]] = None,
        cases: Optional[Sequence[CaseStudy]] = None,
    ) -> Dict[str, Dict[str, SimulationResult]]:
        """Figure 5's grid through the detailed simulator (scaled traces).

        Slower by orders of magnitude than :meth:`run_case_studies`; used
        to confirm the fast model's orderings at instruction fidelity.
        The batch routes through the runner like every other suite, so it
        parallelizes, retries, and — when the detailed machine raises a
        :class:`~repro.errors.SimulationError` — degrades to the fast
        model per job (result flagged ``degraded``) instead of aborting.
        """
        kernels = list(kernels or all_kernels())
        cases = list(cases or CASE_STUDIES.values())
        jobs = [
            self._job(
                kernel.trace().scaled(self.detailed_scale),
                case=case,
                detailed=True,
            )
            for kernel in kernels
            for case in cases
        ]
        flat = self.runner.run_jobs(
            jobs, result_cache=self.result_cache, stage="case-studies-detailed"
        )
        self.last_results = flat
        results: Dict[str, Dict[str, SimulationResult]] = {}
        for i, kernel in enumerate(kernels):
            row = flat[i * len(cases) : (i + 1) * len(cases)]
            results[kernel.name] = {
                case.name: result for case, result in zip(cases, row)
            }
        return results

    # -- coherence-overhead experiment ----------------------------------------

    def run_coherence_overhead(
        self,
        kernels: Optional[Sequence[Kernel]] = None,
        spaces: Optional[Sequence[AddressSpaceKind]] = None,
        protocols: Sequence[str] = ("none", "snoop", "directory"),
    ) -> Dict[str, Dict[str, Dict[str, SimulationResult]]]:
        """{space: {protocol: {kernel: result}}} — the coherence sweep.

        For every address space the kernels are restaged so the data that
        space actually shares lives in the shared window
        (:func:`~repro.sim.mmu.stage_shared_trace`), then simulated in
        detail (at :attr:`detailed_scale`, ideal communication, so protocol
        traffic is the only variable) once per protocol variant. The
        ``"none"`` column is the baseline each variant's overhead is
        measured against; a disjoint space shares nothing, so its protocol
        columns measure a true zero.
        """
        kernels = list(kernels or all_kernels())
        spaces = list(spaces or AddressSpaceKind)
        staged = {
            space: {
                kernel.name: stage_shared_trace(
                    kernel.trace().scaled(self.detailed_scale), space
                )
                for kernel in kernels
            }
            for space in spaces
        }
        jobs = [
            self._job(
                staged[space][kernel.name],
                mechanism=CommMechanism.IDEAL,
                detailed=True,
                coherence=protocol,
                system_name=f"{space.short}/{protocol}",
            )
            for space in spaces
            for protocol in protocols
            for kernel in kernels
        ]
        flat = self.runner.run_jobs(
            jobs, result_cache=self.result_cache, stage="coherence-overhead"
        )
        self.last_results = flat
        results: Dict[str, Dict[str, Dict[str, SimulationResult]]] = {}
        index = 0
        for space in spaces:
            per_protocol: Dict[str, Dict[str, SimulationResult]] = {}
            for protocol in protocols:
                per_protocol[protocol] = {
                    kernel.name: flat[index + k] for k, kernel in enumerate(kernels)
                }
                index += len(kernels)
            results[space.short] = per_protocol
        return results

    # -- Figure 5 / Figure 6 -------------------------------------------------

    def run_case_studies(
        self,
        kernels: Optional[Sequence[Kernel]] = None,
        cases: Optional[Sequence[CaseStudy]] = None,
    ) -> Dict[str, Dict[str, SimulationResult]]:
        """{kernel: {system: result}} over the five §V-A systems."""
        kernels = list(kernels or all_kernels())
        cases = list(cases or CASE_STUDIES.values())
        if self.check != "off":
            for kernel in kernels:
                for case in cases:
                    self._gate(
                        self.trace_cache.get(kernel), CheckConfig.from_case_study(case)
                    )
        jobs = [
            self._job(self.trace_cache.get(kernel), case=case)
            for kernel in kernels
            for case in cases
        ]
        flat = self.runner.run_jobs(
            jobs, result_cache=self.result_cache, stage="case-studies"
        )
        self.last_results = flat
        results: Dict[str, Dict[str, SimulationResult]] = {}
        for i, kernel in enumerate(kernels):
            row = flat[i * len(cases) : (i + 1) * len(cases)]
            results[kernel.name] = {
                case.name: result for case, result in zip(cases, row)
            }
        return results

    # -- Figure 7 ---------------------------------------------------------------

    def run_address_spaces(
        self,
        kernels: Optional[Sequence[Kernel]] = None,
        spaces: Optional[Sequence[AddressSpaceKind]] = None,
    ) -> Dict[str, Dict[AddressSpaceKind, SimulationResult]]:
        """{kernel: {space: result}} with ideal communication.

        §V-B: "To isolate memory space effects, we assume that all the
        systems share the cache" and the communication overhead is ideal —
        only the per-space management instructions differ.
        """
        kernels = list(kernels or all_kernels())
        spaces = list(spaces or AddressSpaceKind)
        if self.check != "off":
            for kernel in kernels:
                for space in spaces:
                    self._gate(
                        self.trace_cache.get(kernel), CheckConfig.from_space(space)
                    )
        jobs = [
            self._job(
                self.trace_cache.get(kernel),
                mechanism=CommMechanism.IDEAL,
                address_space=space,
                system_name=space.short,
            )
            for kernel in kernels
            for space in spaces
        ]
        flat = self.runner.run_jobs(
            jobs, result_cache=self.result_cache, stage="address-spaces"
        )
        self.last_results = flat
        results: Dict[str, Dict[AddressSpaceKind, SimulationResult]] = {}
        for i, kernel in enumerate(kernels):
            row = flat[i * len(spaces) : (i + 1) * len(spaces)]
            results[kernel.name] = {
                space: result for space, result in zip(spaces, row)
            }
        return results

    # -- design-point evaluation ---------------------------------------------

    def _point_jobs(
        self, point: DesignPoint, kernels: Sequence[Kernel], detailed: bool = False
    ) -> List[SimJob]:
        """One simulation job per kernel for a feasible design point.

        ``detailed`` jobs run the detailed machine on traces scaled by
        :attr:`detailed_scale`.
        """
        point.require_feasible()
        traces = [self.trace_cache.get(kernel) for kernel in kernels]
        if self.check != "off":
            for trace in traces:
                self._gate(trace, CheckConfig.from_design_point(point))
        if detailed:
            traces = [trace.scaled(self.detailed_scale) for trace in traces]
        return [
            SimJob.from_design_point(
                point,
                trace=trace,
                system=self.system,
                comm_params=self.comm_params,
                fault_plan=self.faults,
                detailed=detailed,
            )
            for trace in traces
        ]

    def _evaluation(
        self, point: DesignPoint, results: Sequence[SimulationResult]
    ) -> DesignPointEvaluation:
        """Aggregate one point's per-kernel results into an evaluation."""
        return DesignPointEvaluation.of(point, *sweepjob.mean_metrics(results))

    def evaluate_design_point(
        self,
        point: DesignPoint,
        kernels: Optional[Sequence[Kernel]] = None,
    ) -> DesignPointEvaluation:
        """Simulate a feasible design point over the kernels."""
        kernels = list(kernels or all_kernels())
        results = self.runner.run_jobs(
            self._point_jobs(point, kernels),
            result_cache=self.result_cache,
            stage="design-points",
        )
        self.last_results = results
        return self._evaluation(point, results)

    def shard_count(self, shards: "int | str | None") -> int:
        """The number of shards a rank sweep splits into: ``None`` is one
        shard, ``"auto"`` two per worker (which keeps the pool saturated
        while the last, uneven shards drain)."""
        shards = knobs.value("shards", shards, "shards")
        if shards == "auto":
            return max(2 * self.jobs, 1)
        return 1 if shards is None else shards

    def rank_design_points(
        self,
        points: Optional[Iterable[DesignPoint]] = None,
        kernels: Optional[Sequence[Kernel]] = None,
        shards: "int | str | None" = None,
    ) -> List[DesignPointEvaluation]:
        """Evaluate and rank design points (best first).

        The points are partitioned into :meth:`shard_count` timing-key-aware
        shards (:func:`~repro.exec.sweepjob.plan_shards`; one shard runs
        in-process) and each shard is evaluated whole by
        :func:`~repro.exec.sweepjob.run_shard`, in waves of ``jobs``
        through the runner's persistent pool. Points that differ only in
        axes that cannot affect timing (locality, coherence, consistency)
        share one simulation per kernel; under a fault plan every
        (point, kernel) job runs with its own retries instead. The ranking
        is identical for every shard and job count.

        The static-check gate runs here, in the parent, before any shard
        is planned. With a durable store each completed timing-key group
        is committed as one record keyed by (:meth:`_sweep_signature`,
        timing key) after its wave; a rerun of the same sweep — at any
        shard count — takes finished groups from the store and simulates
        only the rest, so a killed sweep resumes with identical output.
        Distinct results also write through the memo. :attr:`last_results`
        holds the simulations this call actually ran.
        """
        if points is None:
            points = DesignSpace().feasible_points()
        points = list(points)
        kernels = list(kernels or all_kernels())
        shards = self.shard_count(shards)
        if not points:
            raise DesignSpaceError("no feasible design points to rank")
        for point in points:
            point.require_feasible()
        traces = tuple(self.trace_cache.get(kernel) for kernel in kernels)
        if self.check != "off":
            configs = dict.fromkeys(
                CheckConfig.from_design_point(point) for point in points
            )
            for config in configs:
                for trace in traces:
                    self._gate(trace, config)
        by_label = {point.label: point for point in points}
        evaluations: Dict[str, DesignPointEvaluation] = {}

        def adopt(rows: Iterable[Tuple[str, float, float]]) -> None:
            for label, mean_seconds, mean_comm_fraction in rows:
                evaluations[label] = DesignPointEvaluation.of(
                    by_label[label], mean_seconds, mean_comm_fraction
                )

        signature = ""
        if self.store is not None:
            signature = self._sweep_signature(points, traces)
            for key in dict.fromkeys(sweepjob.timing_key(p) for p in points):
                adopt(self.store.get_object((signature, key), kind=SWEEP_KIND) or ())
        remaining = [p for p in points if p.label not in evaluations]
        shard_jobs = [
            sweepjob.ShardJob(
                points=tuple(remaining[index] for index in bucket),
                traces=traces,
                system=self.system,
                comm_params=self.comm_params,
                fault_plan=self.faults,
                retry=self.runner.retry,
            )
            for bucket in sweepjob.plan_shards(remaining, shards)
            if bucket
        ]
        ran: List[SimulationResult] = []
        wave = max(1, self.jobs)
        for start in range(0, len(shard_jobs), wave):
            outcomes = self.runner.map(
                sweepjob.run_shard,
                shard_jobs[start : start + wave],
                stage="rank-shards",
            )
            for outcome in outcomes:
                self.run_stats.record_cache(outcome.cache_hits, outcome.cache_misses)
                self.run_stats.record_retry(outcome.retry_sleep, count=outcome.retries)
                if outcome.error is not None:
                    self.run_stats.record_retry_exhausted()
                    raise SimulationError(outcome.error)
                for cache_key, result in outcome.ran:
                    if cache_key is not None:
                        self.result_cache.put(cache_key, result)
                    ran.append(result)
                adopt(outcome.evaluations)
                if self.store is None:
                    continue
                # plan_shards keeps each timing-key group inside one shard,
                # so this outcome holds every row of the groups it touches.
                groups: Dict[Tuple[str, str], List[Tuple[str, float, float]]] = {}
                for row in outcome.evaluations:
                    key = sweepjob.timing_key(by_label[row[0]])
                    groups.setdefault(key, []).append(row)
                for key, rows in groups.items():
                    self.store.put_object((signature, key), tuple(rows), kind=SWEEP_KIND)
        self.last_results = ran
        return sorted(
            (evaluations[point.label] for point in points),
            key=DesignPointEvaluation.score,
        )

    def _sweep_signature(
        self, points: Sequence[DesignPoint], traces: Sequence[KernelTrace]
    ) -> str:
        """A stable digest of everything a stored sweep group depends on.

        The point set (order-insensitive), the traces, the machine
        parameters and any active fault plan: a rerun against a changed
        sweep finds no records and starts fresh instead of mixing results.
        """
        labels = "\n".join(sorted(point.label for point in points))
        faults = self.faults.describe() if self.faults is not None else None
        return stable_digest(
            (labels, tuple(traces), self.system, self.comm_params, faults)
        )
