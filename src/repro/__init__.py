"""repro — design-space exploration of memory models for heterogeneous computing.

A production-quality reproduction of Jieun Lim and Hyesoon Kim,
*Design Space Exploration of Memory Model for Heterogeneous Computing*
(MSPC/PLDI-W 2012). See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import FastSimulator, SweepPoint, case_study, kernel

    sim = FastSimulator()
    result = sim.run(kernel("reduction").trace(), SweepPoint(case=case_study("LRB")))
    print(result.breakdown)
"""

from repro.version import __version__
from repro.config import (
    CommParams,
    SystemConfig,
    baseline_system,
    case_study,
    case_study_names,
)
from repro.kernels import all_kernels, kernel, kernel_names
from repro.taxonomy import (
    AddressSpaceKind,
    CoherenceKind,
    CommMechanism,
    ConsistencyModel,
    LocalityPolicy,
    LocalityScheme,
    ProcessingUnit,
)

__all__ = [
    "__version__",
    "CommParams",
    "SystemConfig",
    "baseline_system",
    "case_study",
    "case_study_names",
    "all_kernels",
    "kernel",
    "kernel_names",
    "AddressSpaceKind",
    "CoherenceKind",
    "CommMechanism",
    "ConsistencyModel",
    "LocalityPolicy",
    "LocalityScheme",
    "ProcessingUnit",
]

# Simulators are imported at module bottom to avoid a cycle with repro.config.
from repro.sim import DetailedSimulator, FastSimulator, SimulationResult  # noqa: E402
from repro.perf.sweep import SweepPoint  # noqa: E402

__all__ += ["DetailedSimulator", "FastSimulator", "SimulationResult", "SweepPoint"]
