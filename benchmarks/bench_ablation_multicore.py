"""Ablation G: multi-core scaling (extension).

The paper simplifies to one core per PU ("since we are only interested in
memory systems", footnote 4). This ablation scales the core counts and
shows where Amdahl takes over: the serial merge phases and communication
cost do not scale, so kernels with sequential tails flatten early.
"""

from dataclasses import replace

from repro.config.presets import case_study
from repro.config.system import CpuConfig, GpuConfig, SystemConfig
from repro.core.report import format_series
from repro.kernels.registry import kernel
from repro.perf.sweep import SweepPoint
from repro.sim.fast import FastSimulator

CORE_COUNTS = (1, 2, 4, 8)


def scaled_system(cores: int) -> SystemConfig:
    return SystemConfig(
        cpu=replace(CpuConfig(), num_cores=cores),
        gpu=replace(GpuConfig(), num_cores=cores),
    )


def regenerate():
    results = {}
    for name in ("matrix mul", "reduction"):
        k = kernel(name)
        per_count = {}
        for cores in CORE_COUNTS:
            sim = FastSimulator(scaled_system(cores))
            per_count[cores] = sim.run(k.trace(), SweepPoint(case=case_study("Fusion")))
        results[name] = per_count
    return results


def test_multicore_scaling(benchmark, write_artifact):
    results = benchmark(regenerate)
    series = {
        name: {f"{c}c": per[c].total_seconds * 1e6 for c in CORE_COUNTS}
        for name, per in results.items()
    }
    write_artifact(
        "ablation_multicore",
        format_series(series, value_label="total time (us) vs cores per PU"),
    )
    for name, per in results.items():
        totals = [per[c].total_seconds for c in CORE_COUNTS]
        # More cores never hurt, but scaling is sublinear.
        assert totals == sorted(totals, reverse=True), name
        speedup_8 = totals[0] / totals[-1]
        assert 1.5 < speedup_8 < 8.0, name

    # Amdahl: the fully parallel matrix multiply scales further than
    # reduction, whose serial merge (~100k instructions) does not shrink.
    mm = results["matrix mul"]
    red = results["reduction"]
    mm_speedup = mm[1].total_seconds / mm[8].total_seconds
    red_speedup = red[1].total_seconds / red[8].total_seconds
    assert mm_speedup > red_speedup

    # Serial time is core-count invariant.
    assert mm[1].breakdown.sequential == mm[8].breakdown.sequential
