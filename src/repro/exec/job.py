"""Simulation job descriptors and the process-pool worker entry point.

A :class:`SimJob` is a pure-data description of one simulator run: a
design point (:class:`~repro.perf.sweep.SweepPoint` — case study or
mechanism spec, address space, machine parameters, coherence, label)
plus the trace, optionally an explicit channel object, and optionally a
:class:`~repro.faults.spec.FaultPlan` perturbing the channel. The point
decides the run's label, protocol and channel; the job adds only the
explicit channel and the fault wrapping. Jobs are frozen dataclasses so
they pickle cleanly into
:class:`concurrent.futures.ProcessPoolExecutor` workers; :func:`run_sim_job`
is the module-level function the pool executes, and
:func:`run_sim_job_counted` is the same worker plus the job's
segment-compile cache delta (folded in by
:meth:`~repro.exec.runner.ParallelRunner.run_jobs`).

Because the fast simulator is pure deterministic float arithmetic and the
job carries everything the run depends on — fault injection included,
since the plan's RNG seeds derive from (plan seed, job identity, attempt)
— executing a job in a worker process produces a bit-identical
:class:`~repro.sim.results.SimulationResult` to executing it in-process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Dict, Optional, Tuple

from repro.config.comm import CommParams
from repro.config.system import SystemConfig
from repro.comm.base import CommChannel
from repro.faults.spec import FaultPlan
from repro.perf.sweep import ChannelSpec, SweepPoint
from repro.sim.results import SimulationResult

__all__ = ["SimJob", "run_sim_job", "run_sim_job_counted"]

#: The :data:`~repro.perf.compiled.SHARED_COMPILE_CACHE` counters a job's
#: compile delta reports (the ``exec.compile.*`` metrics).
_COMPILE_COUNTERS = ("hits", "misses")


@dataclass(frozen=True, kw_only=True)
class SimJob(SweepPoint):
    """One simulation to run: a design point plus its trace and run-time fields.

    An explicit ``channel`` is a third selector beside ``case`` and
    ``mechanism``: a one-off channel object (e.g. an aperture channel with
    a custom fault granularity) at the cost of bypassing the result cache.
    ``fault_plan`` wraps the job's channel in a fault-injecting decorator;
    ``fault_attempt`` is the harness-level retry ordinal (it perturbs the
    fault seed so a retried job does not deterministically re-fail).
    ``detailed`` routes the job through the cycle-approximate simulator,
    degrading to the fast model (result flagged ``degraded``) when the
    detailed machine raises a :class:`~repro.errors.SimulationError`.
    Fast jobs publish the analytic ``coherence.estimated_*`` counters only
    for an explicit ``coherence``.
    """

    _SELECTORS: ClassVar[Tuple[str, ...]] = ("case", "mechanism", "channel")

    trace: "KernelTrace"
    channel: Optional[CommChannel] = None
    fault_plan: Optional[FaultPlan] = None
    fault_attempt: int = 0
    detailed: bool = False

    def label(self) -> str:
        """The point's label; an unlabeled explicit channel names its mechanism."""
        if self.channel is not None and not self.system_name:
            return str(self.channel.mechanism)
        return super().label()

    def channel_spec(
        self, system: SystemConfig, comm_params: CommParams
    ) -> Optional[ChannelSpec]:
        """The point's channel spec, or ``None`` when the job's channel is
        its own: an explicit channel accumulates across runs and a fault
        plan perturbs every attempt, so neither run may be shared."""
        if self.channel is not None or self.fault_plan is not None:
            return None
        return super().channel_spec(system, comm_params)

    def channel_for(self, system: SystemConfig, comm_params: CommParams) -> CommChannel:
        """The explicit channel or a fresh one, wrapped by the fault plan.

        The fault decorator is fresh per call (its RNG starts at the seed
        derived from the job's label and attempt).
        """
        channel = self.channel
        if channel is None:
            channel = super().channel_for(system, comm_params)
        if self.fault_plan is not None:
            channel = self.fault_plan.wrap(
                channel,
                context=f"{self.trace.name}:{self.label()}",
                attempt=self.fault_attempt,
            )
        return channel

    def describe(self) -> str:
        """Job identity for error messages: kernel plus design-point key."""
        text = f"{self.trace.name} @ {self.label()}"
        if self.fault_attempt:
            text += f" (attempt {self.fault_attempt + 1})"
        return text

    def for_attempt(self, attempt: int) -> "SimJob":
        """This job re-keyed to harness-retry ``attempt``.

        Only fault-injected jobs change: their channel RNG seed derives
        from the attempt ordinal, so a retried job sees a fresh (still
        deterministic) fault sequence instead of re-failing identically.
        """
        if self.fault_plan is None or attempt == self.fault_attempt:
            return self
        return replace(self, fault_attempt=attempt)

    def cache_key(self) -> Optional[Tuple]:
        """A stable memoization key, or ``None`` when the job is uncacheable.

        Explicit channel objects are stateful (their counters accumulate
        across transfers), so jobs carrying one are never memoized, and
        neither are fault-injected jobs (their timing depends on the
        injected fault sequence, which varies per harness attempt). The
        ``system_name`` label is deliberately *excluded*: two jobs differing
        only in the display label share a result, and the cache re-labels on
        hit. The field order and the raw ``coherence`` value are part of
        the durable store's keys and must not change.
        """
        if self.channel is not None or self.fault_plan is not None:
            return None
        try:
            key = (
                self.trace,
                self.case,
                self.mechanism,
                self.async_overlap,
                self.address_space,
                self.system,
                self.comm_params,
                self.detailed,
                self.coherence,
            )
            hash(key)
        except TypeError:
            return None
        return key


def run_sim_job(job: SimJob) -> SimulationResult:
    """Execute one job (the worker function run inside pool processes)."""
    from repro.sim.fast import FastSimulator

    simulator = FastSimulator(job.system, job.comm_params)

    if not job.detailed:
        return simulator.run(job.trace, job)

    from repro.errors import SimulationError
    from repro.sim.detailed import DetailedSimulator

    try:
        # A job is a point: it decides its own label, protocol and channel.
        return DetailedSimulator()._simulate(job.trace, [job])[0]
    except SimulationError:
        # Graceful degradation: the fast model prices the same trace
        # analytically (through a fresh channel); the result is flagged
        # so consumers can tell it apart.
        return replace(simulator.run(job.trace, job), degraded=True)


def _compile_counts() -> Tuple[int, ...]:
    from repro.perf.compiled import SHARED_COMPILE_CACHE

    return tuple(getattr(SHARED_COMPILE_CACHE, name) for name in _COMPILE_COUNTERS)


def run_sim_job_counted(job: SimJob) -> Tuple[SimulationResult, Dict[str, int]]:
    """:func:`run_sim_job` plus this call's compile-cache delta.

    The delta comes off the executing process's global
    :data:`~repro.perf.compiled.SHARED_COMPILE_CACHE` and counts only this
    job's lookups, so a persistent worker's history does not leak in. The
    runner folds it into the ``exec.compile.*`` counters.
    """
    before = _compile_counts()
    result = run_sim_job(job)
    after = _compile_counts()
    return result, {
        name: now - then for name, now, then in zip(_COMPILE_COUNTERS, after, before)
    }
