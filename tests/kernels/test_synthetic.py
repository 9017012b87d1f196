"""Tests for the synthetic workload generator."""

import pytest

from repro.config.presets import case_study
from repro.kernels.synthetic import SyntheticKernel
from repro.perf.sweep import SweepPoint
from repro.sim.fast import FastSimulator


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = SyntheticKernel(42).trace()
        b = SyntheticKernel(42).trace()
        assert a == b

    def test_different_seeds_differ(self):
        traces = {SyntheticKernel(seed).trace().cpu_instructions for seed in range(10)}
        assert len(traces) > 5

    def test_name_includes_seed(self):
        assert SyntheticKernel(7).name == "synthetic-7"
        assert SyntheticKernel(7, name="custom").name == "custom"


class TestStructure:
    @pytest.mark.parametrize("seed", range(12))
    def test_valid_trace(self, seed):
        trace = SyntheticKernel(seed).trace()
        assert trace.num_communications >= 2
        assert trace.cpu_instructions > 0
        assert trace.gpu_instructions > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_first_transfer_is_first_touch_h2d(self, seed):
        comms = SyntheticKernel(seed).trace().comm_phases
        assert comms[0].first_touch
        assert not any(c.first_touch for c in comms[1:])

    @pytest.mark.parametrize("seed", range(12))
    def test_table3_row_consistent(self, seed):
        kernel = SyntheticKernel(seed)
        row = kernel.table3_row()
        assert row.cpu_instructions == kernel.default_shape.cpu_instructions
        assert row.initial_transfer_bytes == kernel.default_shape.initial_transfer_bytes

    def test_iterations_generate_comm_pairs(self):
        for seed in range(12):
            kernel = SyntheticKernel(seed)
            trace = kernel.trace()
            assert trace.num_communications == 2 * kernel.iterations


class TestSimulation:
    @pytest.mark.parametrize("seed", range(6))
    def test_runs_on_all_systems(self, seed):
        sim = FastSimulator()
        trace = SyntheticKernel(seed).trace()
        for name in ("CPU+GPU", "LRB", "GMAC", "Fusion", "IDEAL-HETERO"):
            result = sim.run(trace, SweepPoint(case=case_study(name)))
            assert result.total_seconds > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_ideal_is_fastest(self, seed):
        sim = FastSimulator()
        trace = SyntheticKernel(seed).trace()
        ideal = sim.run(trace, SweepPoint(case=case_study("IDEAL-HETERO"))).total_seconds
        for name in ("CPU+GPU", "LRB", "GMAC", "Fusion"):
            other = sim.run(trace, SweepPoint(case=case_study(name)))
            assert other.total_seconds >= ideal - 1e-15
