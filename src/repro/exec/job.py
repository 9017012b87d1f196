"""Simulation job descriptors and the process-pool worker entry point.

A :class:`SimJob` is a pure-data description of one simulator run: the
trace, the communication mechanism (as a case study, a mechanism spec, or
an explicit channel object), the address space, the machine parameters,
and optionally a :class:`~repro.faults.spec.FaultPlan` perturbing the
channel. Jobs are plain frozen dataclasses so they pickle cleanly into
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
from typing import Dict, Optional, Tuple

from repro.config.comm import CommParams
from repro.config.presets import CaseStudy
from repro.config.system import SystemConfig
from repro.comm.base import CommChannel, make_channel
from repro.faults.spec import FaultPlan
from repro.sim.results import SimulationResult
from repro.taxonomy import AddressSpaceKind, CoherenceKind, CommMechanism

__all__ = ["SimJob", "run_sim_job", "run_sim_job_counted"]

#: The :data:`~repro.perf.compiled.SHARED_COMPILE_CACHE` counters a job's
#: compile delta reports (the ``exec.compile.*`` metrics).
_COMPILE_COUNTERS = ("hits", "misses")


@dataclass(frozen=True)
class SimJob:
    """One simulation to run: trace x channel x address space x machine.

    Exactly one of ``case``/``mechanism``/``channel`` selects the
    communication mechanism (checked by ``__post_init__``). ``case`` and
    ``mechanism`` are preferred — they are pure data, so the job both
    pickles into worker processes and produces a stable memoization key;
    an explicit ``channel`` object supports one-off channels (e.g. an
    aperture channel with a custom fault granularity) at the cost of
    bypassing the result cache.

    ``fault_plan`` wraps the job's channel in a fault-injecting decorator;
    ``fault_attempt`` is the harness-level retry ordinal (it perturbs the
    fault seed so a retried job does not deterministically re-fail).
    ``detailed`` routes the job through the cycle-approximate simulator,
    degrading to the fast model (result flagged ``degraded``) when the
    detailed machine raises a :class:`~repro.errors.SimulationError`.
    """

    trace: "KernelTrace"
    case: Optional[CaseStudy] = None
    mechanism: Optional[CommMechanism] = None
    async_overlap: bool = False
    channel: Optional[CommChannel] = None
    address_space: Optional[AddressSpaceKind] = None
    system_name: Optional[str] = None
    system: Optional[SystemConfig] = None
    comm_params: Optional[CommParams] = None
    fault_plan: Optional[FaultPlan] = None
    fault_attempt: int = 0
    detailed: bool = False
    #: Coherence-protocol override for the run (``"none" | "snoop" |
    #: "directory"`` or a :class:`~repro.taxonomy.CoherenceKind`). Detailed
    #: jobs build the machine with that protocol; fast jobs publish the
    #: analytic ``coherence.estimated_*`` counters. ``None`` keeps the
    #: historical behaviour (derive from the case study, detailed only).
    coherence: "str | CoherenceKind | None" = None

    def __post_init__(self) -> None:
        selectors = sum(
            x is not None for x in (self.case, self.mechanism, self.channel)
        )
        if selectors != 1:
            from repro.errors import SimulationError

            raise SimulationError(
                "a SimJob needs exactly one of case/mechanism/channel, "
                f"got {selectors}"
            )

    @property
    def target_name(self) -> str:
        """The system/design-point label this job simulates under."""
        if self.system_name:
            return self.system_name
        if self.case is not None:
            return self.case.name
        if self.mechanism is not None:
            return str(self.mechanism)
        return str(self.channel.mechanism)

    def describe(self) -> str:
        """Job identity for error messages: kernel plus design-point key."""
        text = f"{self.trace.name} @ {self.target_name}"
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
        hit.
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
    case = job.case
    system_name = job.system_name
    if case is not None and job.fault_plan is not None:
        # Case-study job under faults: materialize the case's channel so
        # the fault decorator can wrap it; keep the case's display name.
        system_name = job.system_name or case.name
        case = None

    def build_channel() -> Optional[CommChannel]:
        """A fresh channel per simulator run (counters and fault RNG at zero)."""
        if job.channel is not None:
            channel = job.channel
        elif job.mechanism is not None:
            channel = make_channel(
                job.mechanism,
                params=simulator.comm_params,
                system=simulator.system,
                async_overlap=job.async_overlap,
            )
        elif case is None and job.case is not None:
            channel = make_channel(
                job.case.comm,
                params=simulator.comm_params,
                system=simulator.system,
                async_overlap=job.case.async_overlap,
            )
        else:
            return None
        if job.fault_plan is not None:
            channel = job.fault_plan.wrap(
                channel,
                context=f"{job.trace.name}:{system_name or job.target_name}",
                attempt=job.fault_attempt,
            )
        return channel

    if job.detailed:
        from dataclasses import replace as dc_replace

        from repro.errors import SimulationError
        from repro.sim.detailed import DetailedSimulator

        try:
            return DetailedSimulator(job.system, job.comm_params).run(
                job.trace,
                case=case,
                channel=build_channel(),
                address_space=job.address_space,
                system_name=system_name,
                coherence=job.coherence,
            )
        except SimulationError:
            # Graceful degradation: the fast model prices the same trace
            # analytically (through a fresh channel); the result is
            # flagged so consumers can tell it apart.
            result = simulator.run(
                job.trace,
                case=case,
                channel=build_channel(),
                address_space=job.address_space,
                system_name=system_name,
                coherence=job.coherence,
            )
            return dc_replace(result, degraded=True)

    return simulator.run(
        job.trace,
        case=case,
        channel=build_channel(),
        address_space=job.address_space,
        system_name=system_name,
        coherence=job.coherence,
    )


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
