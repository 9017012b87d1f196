"""Ablation C: detailed vs fast simulator cross-check.

The figure benchmarks use the segment-analytic model; this ablation runs
the instruction-level machine (branch predictor, caches, ring, DRAM) on
scaled traces and checks both models tell the same story.
"""

import pytest

from repro.config.presets import case_study
from repro.kernels.registry import kernel
from repro.perf.sweep import SweepPoint
from repro.sim.detailed import DetailedSimulator
from repro.sim.fast import FastSimulator

SCALE = 0.05
SYSTEMS = ("CPU+GPU", "Fusion", "IDEAL-HETERO")


def run_both():
    trace = kernel("reduction").trace().scaled(SCALE)
    fast = FastSimulator()
    detailed = DetailedSimulator()
    rows = {}
    for name in SYSTEMS:
        f = fast.run(trace, SweepPoint(case=case_study(name)))
        d = detailed.run(trace, case=case_study(name))
        rows[name] = (f.total_seconds, d.total_seconds)
    return rows


def test_fidelity_crosscheck(benchmark, write_artifact):
    rows = benchmark(run_both)
    write_artifact(
        "ablation_fidelity",
        "\n".join(
            f"{name}: fast {f * 1e6:.2f} us, detailed {d * 1e6:.2f} us "
            f"(ratio {d / f:.2f})"
            for name, (f, d) in rows.items()
        ),
    )
    for name, (fast_s, det_s) in rows.items():
        assert 0.4 < det_s / fast_s < 2.5, name
    # Both models must agree on the system ordering.
    fast_order = sorted(SYSTEMS, key=lambda n: rows[n][0])
    det_order = sorted(SYSTEMS, key=lambda n: rows[n][1])
    assert fast_order == det_order


def test_detailed_simulation_rate(benchmark):
    """Simulated instructions per second of host time (the reason the
    figure benches use the fast model — repro band note in DESIGN.md)."""
    trace = kernel("reduction").trace().scaled(SCALE)
    instructions = trace.cpu_instructions + trace.gpu_instructions + trace.serial_instructions

    def run_once():
        return DetailedSimulator().run(trace, case=case_study("CPU+GPU"))

    result = benchmark(run_once)
    assert result.total_seconds > 0
    assert instructions > 5000
