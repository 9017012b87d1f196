"""Fault-sensitivity ranking over the design space.

The paper's ranking asks which memory-model design point is *best*; this
module asks which is *most fragile*: re-evaluate each point under
increasing injected fault rates (transfer failures plus bandwidth
degradation on every channel, seeded and deterministic — see
:mod:`repro.faults`) and rank by how much the point's mean time inflates
relative to its own fault-free baseline. Points whose transfers fail even
after every modeled and harness-level retry score ``inf``.

Mechanisms that move more bytes across the interconnect (DMA variants,
the PCI aperture) pay the fault tax on every transfer, so they degrade
fastest; the ideal channel is immune by construction. This is the
quantitative face of the paper's robustness argument for shared spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import knobs
from repro.config.comm import CommParams
from repro.config.system import SystemConfig
from repro.core.design_point import DesignPoint
from repro.core.explorer import Explorer
from repro.core.space import DesignSpace
from repro.errors import DesignSpaceError, SimulationError
from repro.exec.retry import RetryPolicy
from repro.faults.spec import FaultPlan
from repro.kernels.base import Kernel
from repro.kernels.registry import all_kernels
from repro.obs.log import get_logger

__all__ = ["FaultSensitivity", "fault_sensitivity", "DEFAULT_FAULT_RATES"]

_log = get_logger("core.resilience")

#: The sweep's default injected-fault rates (first must be the clean run).
DEFAULT_FAULT_RATES: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)


@dataclass(frozen=True)
class FaultSensitivity:
    """How one design point's mean kernel time responds to injected faults.

    ``seconds_by_rate`` holds (fault rate, mean seconds) pairs in sweep
    order; ``inf`` marks a rate at which some kernel's transfers failed
    every allowed attempt.
    """

    point: DesignPoint
    seconds_by_rate: Tuple[Tuple[float, float], ...]

    @property
    def baseline_seconds(self) -> float:
        """Mean seconds with no faults injected (the first swept rate)."""
        return self.seconds_by_rate[0][1]

    @property
    def worst_seconds(self) -> float:
        """Mean seconds at the highest swept fault rate."""
        return self.seconds_by_rate[-1][1]

    @property
    def slowdown(self) -> float:
        """Inflation at the highest rate relative to the clean baseline.

        1.0 means immune (the ideal channel); ``inf`` means the point
        stopped producing answers at all.
        """
        if self.baseline_seconds <= 0:
            return float("inf") if self.worst_seconds > 0 else 1.0
        return self.worst_seconds / self.baseline_seconds

    def line(self) -> str:
        """One table row: label, baseline, then per-rate inflation."""
        cells = []
        for rate, seconds in self.seconds_by_rate[1:]:
            if seconds == float("inf") or self.baseline_seconds <= 0:
                cells.append(f"{rate:.0%}: failed")
            else:
                cells.append(f"{rate:.0%}: x{seconds / self.baseline_seconds:.3f}")
        return (
            f"{self.point.label}: base {self.baseline_seconds * 1e6:.1f} us; "
            + ", ".join(cells)
        )


def _plan_for_rate(rate: float, seed: int) -> Optional[FaultPlan]:
    """The sweep's per-rate plan: fail + degrade every channel at ``rate``."""
    if rate <= 0.0:
        return None
    return FaultPlan.parse(f"seed={seed};*:fail={rate},degrade={rate}")


def fault_sensitivity(
    points: Optional[Iterable[DesignPoint]] = None,
    kernels: Optional[Sequence[Kernel]] = None,
    rates: Optional[Sequence[float]] = DEFAULT_FAULT_RATES,
    seed: int = 0,
    jobs: int = 1,
    retries: int = 2,
    system: Optional[SystemConfig] = None,
    comm_params: Optional[CommParams] = None,
) -> List[FaultSensitivity]:
    """Rank design points by fragility under injected faults (worst first).

    Every point is evaluated at every rate in ``rates`` (``None``:
    :data:`DEFAULT_FAULT_RATES`; 0.0 is prepended when missing, so each
    point always has a clean baseline). The fault plans and the retry
    policy are fully seeded — the backoff policy uses zero delay, so the
    sweep never actually sleeps — making the whole ranking deterministic
    for a given ``seed``. A rate outside [0, 1] raises
    :class:`~repro.errors.ConfigError`.
    """
    if points is None:
        points = DesignSpace().feasible_points()
    points = list(points)
    kernels = list(kernels or all_kernels())
    rates = list(knobs.value("fault_rates", rates, "fault rates") or DEFAULT_FAULT_RATES)
    if not rates or rates[0] != 0.0:
        rates = [0.0] + [r for r in rates if r != 0.0]
    if not points:
        raise DesignSpaceError("no feasible design points to rank")

    seconds: Dict[str, List[Tuple[float, float]]] = {p.label: [] for p in points}
    for rate in rates:
        plan = _plan_for_rate(rate, seed)
        explorer = Explorer(
            system=system,
            comm_params=comm_params,
            jobs=jobs,
            faults=plan,
            retry=RetryPolicy(
                retries=retries, base_delay=0.0, max_delay=0.0, jitter=0.0, seed=seed
            )
            if plan is not None
            else None,
        )
        for point in points:
            try:
                evaluation = explorer.evaluate_design_point(point, kernels)
                mean = evaluation.mean_seconds
            except SimulationError as exc:
                _log.debug(
                    "point %s failed at fault rate %.2f: %s", point.label, rate, exc
                )
                mean = float("inf")
            seconds[point.label].append((rate, mean))

    rankings = [
        FaultSensitivity(point=point, seconds_by_rate=tuple(seconds[point.label]))
        for point in points
    ]
    return sorted(
        rankings,
        key=lambda s: (-s.slowdown, s.point.label),
    )
