"""The compiled trace hot path.

Exploration replays the same six kernel traces across every design point
of the space, so the per-instruction expansion work — millions of
dataclass constructions per simulation — is pure overhead after the first
run. This package compiles each :class:`~repro.trace.phase.Segment` once
into a batched event encoding that the core models execute without
constructing a single per-instruction object, and memoizes the result per
segment so every (system x locality x fault-rate) design point that
replays the same trace shares one compilation.

:mod:`repro.perf.sweep` holds the one phase walk of the detailed machine
over these compiled segments, every point of a machine group sharing
each compute phase while their clocks agree, and the one
design-point record, :class:`~repro.perf.sweep.SweepPoint` (a runner
job, :class:`~repro.exec.job.SimJob`, is a point plus a trace);
:class:`~repro.sim.detailed.DetailedSimulator` and
:class:`~repro.perf.sweep.SweepSimulator` share its
:class:`~repro.perf.sweep.MachineSimulator`. The walk is
bit-identical to the per-instruction generator expansion kept as the
reference oracle in :mod:`repro.sim.reference` — the parity suite in
``tests/perf`` asserts equal :class:`~repro.sim.results.SimulationResult`
timings and counters.
"""

from repro.perf.compiled import (
    EV_BRANCH,
    EV_COMPUTE_RUN,
    EV_MEMORY,
    CompiledSegment,
    SegmentCompileCache,
    SHARED_COMPILE_CACHE,
    compile_segment,
)
from repro.perf.sweep import BatchedDesignPoints, SweepPoint, SweepSimulator

__all__ = [
    "CompiledSegment",
    "SegmentCompileCache",
    "SHARED_COMPILE_CACHE",
    "compile_segment",
    "EV_COMPUTE_RUN",
    "EV_MEMORY",
    "EV_BRANCH",
    "SweepPoint",
    "BatchedDesignPoints",
    "SweepSimulator",
]
