"""Extension: Figure 5 widened to the Table I interconnect/on-die systems.

The paper evaluates five systems; Table I lists more. This bench adds the
Cell-like (disjoint + interconnection), COMIC-like (unified +
interconnection + directory), and EXOCHI-like (unified + memory
controller) designs to the Figure 5 comparison.
"""

from repro.config.presets import case_study, case_study_names
from repro.core.report import format_series
from repro.kernels.registry import all_kernels
from repro.perf.sweep import SweepPoint
from repro.sim.fast import FastSimulator


def regenerate():
    sim = FastSimulator()
    names = case_study_names(extended=True)
    return {
        k.name: {name: sim.run(k.trace(), SweepPoint(case=case_study(name))) for name in names}
        for k in all_kernels()
    }


def test_extended_system_comparison(benchmark, write_artifact):
    results = benchmark(regenerate)
    series = {
        kernel: {name: r.total_seconds * 1e6 for name, r in row.items()}
        for kernel, row in results.items()
    }
    write_artifact(
        "extension_systems",
        format_series(series, value_label="total time (us), 8 systems"),
    )
    for kernel, row in results.items():
        # On-chip connections communicate cheaper than any off-chip system.
        assert (
            row["Cell-like"].breakdown.communication
            <= row["Fusion"].breakdown.communication
        ), kernel
        assert (
            row["COMIC-like"].breakdown.communication
            < row["CPU+GPU"].breakdown.communication
        ), kernel
        # But nothing beats the ideal bound.
        assert (
            row["IDEAL-HETERO"].total_seconds
            <= min(r.total_seconds for r in row.values()) + 1e-15
        ), kernel
