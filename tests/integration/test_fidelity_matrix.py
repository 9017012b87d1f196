"""Fast-vs-detailed fidelity matrix across kernels and systems.

Every cell of (3 kernels x 3 systems) must agree between the two
simulator fidelities within a factor of 2.5 on total time, and both
fidelities must produce the same system ranking per kernel. (Ablation C's
benchmark covers reduction in depth; this is the broader sweep.)
"""

import pytest

from repro.config.presets import case_study
from repro.kernels.registry import kernel
from repro.perf.sweep import SweepPoint
from repro.sim.detailed import DetailedSimulator
from repro.sim.fast import FastSimulator

SCALE = 0.02
KERNELS = ("reduction", "merge sort", "convolution")
SYSTEMS = ("CPU+GPU", "Fusion", "IDEAL-HETERO")


@pytest.fixture(scope="module")
def matrix():
    fast = FastSimulator()
    rows = {}
    for kernel_name in KERNELS:
        trace = kernel(kernel_name).trace().scaled(SCALE)
        rows[kernel_name] = {
            system: (
                fast.run(trace, SweepPoint(case=case_study(system))).total_seconds,
                DetailedSimulator().run(trace, case=case_study(system)).total_seconds,
            )
            for system in SYSTEMS
        }
    return rows


class TestFidelityMatrix:
    @pytest.mark.parametrize("kernel_name", KERNELS)
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_cell_agreement(self, matrix, kernel_name, system):
        fast_s, detailed_s = matrix[kernel_name][system]
        assert 1 / 2.5 < detailed_s / fast_s < 2.5

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_rankings_agree(self, matrix, kernel_name):
        row = matrix[kernel_name]
        fast_rank = sorted(SYSTEMS, key=lambda s: row[s][0])
        detailed_rank = sorted(SYSTEMS, key=lambda s: row[s][1])
        assert fast_rank == detailed_rank

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_ideal_fastest_in_both(self, matrix, kernel_name):
        row = matrix[kernel_name]
        assert row["IDEAL-HETERO"][0] == min(v[0] for v in row.values())
        assert row["IDEAL-HETERO"][1] == min(v[1] for v in row.values())
