"""Design-option efficiency metrics (the paper's stated future work).

"In future work, we will develop metrics to measure the efficiency of
design options to provide guidelines for future programming languages and
future hardware system development." (§VII)

This module implements that metric: each address space is scored on four
normalized axes —

- **performance**: mean execution time across the six kernels under the
  space's representative case-study system;
- **energy**: mean energy per run (see :mod:`repro.energy`);
- **programmability**: total source lines (computation + communication
  handling, Table V) relative to the leanest option — the paper's framing:
  the partially shared space "does not significantly increase the
  difficulty of programmability compared to the unified memory space";
- **versatility**: feasible locality-management options (§II-B).

Every axis is normalized to the best option (1.0 = best), and the composite
is a weighted geometric mean, so a zero on any axis zeroes the whole score
and no axis can buy out another linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config.presets import CaseStudy, case_study
from repro.config.system import SystemConfig
from repro.core.programmability import table5_dict
from repro.energy.accounting import trace_energy
from repro.errors import DesignSpaceError
from repro.kernels.base import Kernel
from repro.kernels.registry import all_kernels
from repro.locality.schemes import feasible_schemes
from repro.sim.fast import FastSimulator
from repro.taxonomy import AddressSpaceKind

__all__ = ["MetricWeights", "EfficiencyScore", "EfficiencyMetric", "REPRESENTATIVE_SYSTEMS"]

#: The case-study system representing each address space in §V-A.
REPRESENTATIVE_SYSTEMS: Dict[AddressSpaceKind, str] = {
    AddressSpaceKind.DISJOINT: "CPU+GPU",
    AddressSpaceKind.PARTIALLY_SHARED: "LRB",
    AddressSpaceKind.ADSM: "GMAC",
    AddressSpaceKind.UNIFIED: "IDEAL-HETERO",
}


@dataclass(frozen=True)
class MetricWeights:
    """Relative importance of the four axes (exponents of the geometric
    mean; they need not sum to one)."""

    performance: float = 1.0
    energy: float = 1.0
    programmability: float = 1.0
    versatility: float = 1.0

    def __post_init__(self) -> None:
        for name in ("performance", "energy", "programmability", "versatility"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DesignSpaceError(
                    f"weight {name} must be a finite non-negative number, "
                    f"got {value}"
                )
        if all(
            getattr(self, name) == 0
            for name in ("performance", "energy", "programmability", "versatility")
        ):
            raise DesignSpaceError("at least one weight must be positive")


@dataclass(frozen=True)
class EfficiencyScore:
    """One address space's normalized axis scores and composite."""

    space: AddressSpaceKind
    performance: float
    energy: float
    programmability: float
    versatility: float
    composite: float
    raw_mean_seconds: float
    raw_mean_energy_uj: float
    raw_comm_lines: int
    raw_locality_options: int


class EfficiencyMetric:
    """Scores address spaces on performance/energy/programmability/options."""

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        weights: Optional[MetricWeights] = None,
    ) -> None:
        self.system = system or SystemConfig()
        self.weights = weights or MetricWeights()
        self._simulator = FastSimulator(self.system)

    def _raw_axes(self, space: AddressSpaceKind, kernels: Sequence[Kernel]):
        from repro.progmodel.lowering import lower
        from repro.progmodel.spec import all_program_specs

        case = case_study(REPRESENTATIVE_SYSTEMS[space])
        times: List[float] = []
        energies: List[float] = []
        for kernel in kernels:
            trace = kernel.trace()
            times.append(self._simulator.run(trace, case=case).total_seconds)
            energies.append(trace_energy(trace, case, self.system).total_uj)
        comm_lines = sum(row[space] for row in table5_dict().values())
        total_lines = sum(
            lower(spec, space).total_lines() for spec in all_program_specs()
        )
        options = len(feasible_schemes(space))
        return (
            sum(times) / len(times),
            sum(energies) / len(energies),
            comm_lines,
            total_lines,
            options,
        )

    def score_all(
        self, kernels: Optional[Sequence[Kernel]] = None
    ) -> List[EfficiencyScore]:
        """Score every address space; best composite first."""
        kernels = list(kernels or all_kernels())
        raw = {space: self._raw_axes(space, kernels) for space in AddressSpaceKind}

        best_time = min(r[0] for r in raw.values())
        best_energy = min(r[1] for r in raw.values())
        best_total_lines = min(r[3] for r in raw.values())
        best_options = max(r[4] for r in raw.values())

        scores = []
        for space, (mean_s, mean_uj, lines, total_lines, options) in raw.items():
            performance = best_time / mean_s
            energy = best_energy / mean_uj
            # Whole-program line ratio: communication overhead is judged
            # against the size of the code it decorates (§V-C).
            programmability = best_total_lines / total_lines
            versatility = options / best_options
            w = self.weights
            total_weight = w.performance + w.energy + w.programmability + w.versatility
            composite = math.exp(
                (
                    w.performance * math.log(performance)
                    + w.energy * math.log(energy)
                    + w.programmability * math.log(programmability)
                    + w.versatility * math.log(versatility)
                )
                / total_weight
            )
            scores.append(
                EfficiencyScore(
                    space=space,
                    performance=performance,
                    energy=energy,
                    programmability=programmability,
                    versatility=versatility,
                    composite=composite,
                    raw_mean_seconds=mean_s,
                    raw_mean_energy_uj=mean_uj,
                    raw_comm_lines=lines,
                    raw_locality_options=options,
                )
            )
        return sorted(scores, key=lambda s: s.composite, reverse=True)

    def guidelines(self, kernels: Optional[Sequence[Kernel]] = None) -> str:
        """The future-work deliverable: a guideline report."""
        scores = self.score_all(kernels)
        lines = ["Design-option efficiency guidelines (1.00 = best on an axis)", ""]
        header = f"{'space':<6} {'perf':>6} {'energy':>7} {'prog':>6} {'options':>8} {'composite':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for s in scores:
            lines.append(
                f"{s.space.short:<6} {s.performance:>6.2f} {s.energy:>7.2f} "
                f"{s.programmability:>6.2f} {s.versatility:>8.2f} {s.composite:>10.3f}"
            )
        winner = scores[0]
        lines.append("")
        lines.append(
            f"recommendation: {winner.space.short} "
            f"(composite {winner.composite:.3f}; "
            f"{winner.raw_locality_options} locality options, "
            f"{winner.raw_comm_lines} comm lines across the suite)"
        )
        return "\n".join(lines)
