"""Tests for the detailed (cycle-approximate) simulator."""

import pytest

from repro.config.presets import case_study
from repro.errors import SimulationError
from repro.kernels.registry import kernel
from repro.mem.cache.replacement import HybridLocalityPolicy
from repro.perf.sweep import SweepPoint
from repro.sim.detailed import DetailedSimulator
from repro.sim.fast import FastSimulator

SCALE = 0.05  # keep detailed runs quick


@pytest.fixture(scope="module")
def detailed():
    return DetailedSimulator()


class TestBasicRuns:
    def test_requires_case_or_channel(self, detailed):
        with pytest.raises(SimulationError):
            detailed.run(kernel("reduction").trace())

    def test_breakdown_positive(self, detailed):
        result = detailed.run(
            kernel("reduction").trace(), case=case_study("CPU+GPU"), scale=SCALE
        )
        assert result.breakdown.sequential > 0
        assert result.breakdown.parallel > 0
        assert result.breakdown.communication > 0

    def test_scale_shrinks_compute_not_comm(self, detailed):
        big = detailed.run(kernel("reduction").trace(), case=case_study("CPU+GPU"), scale=0.1)
        small = detailed.run(kernel("reduction").trace(), case=case_study("CPU+GPU"), scale=0.05)
        assert small.breakdown.parallel < big.breakdown.parallel
        assert small.breakdown.communication == pytest.approx(
            big.breakdown.communication, rel=0.01
        )

    def test_machine_inspectable_after_run(self, detailed):
        detailed.run(kernel("reduction").trace(), case=case_study("CPU+GPU"), scale=SCALE)
        machine = detailed.last_machine
        assert machine is not None
        assert machine.cpu_l1d.accesses > 0
        assert machine.gpu_l1d.accesses > 0

    def test_counters_include_components(self, detailed):
        result = detailed.run(
            kernel("reduction").trace(), case=case_study("CPU+GPU"), scale=SCALE
        )
        assert "cpu.l1d.hits" in result.counters
        assert "dram.requests" in result.counters
        assert "ring.messages" in result.counters


class TestCrossCheck:
    """Ablation C: detailed and fast models must agree on shape."""

    def test_total_time_within_2x(self):
        trace = kernel("reduction").trace().scaled(SCALE)
        det = DetailedSimulator().run(trace, case=case_study("CPU+GPU"))
        fast = FastSimulator().run(trace, SweepPoint(case=case_study("CPU+GPU")))
        ratio = det.total_seconds / fast.total_seconds
        assert 0.5 < ratio < 2.0

    def test_system_ordering_agrees(self):
        trace = kernel("reduction").trace().scaled(SCALE)
        det_sim = DetailedSimulator()
        order = ("CPU+GPU", "Fusion", "IDEAL-HETERO")
        det_totals = [
            det_sim.run(trace, case=case_study(n)).total_seconds for n in order
        ]
        assert det_totals[0] > det_totals[1] > det_totals[2]


class TestCoherence:
    def test_ideal_hetero_builds_directory(self, detailed):
        detailed.run(
            kernel("reduction").trace(), case=case_study("IDEAL-HETERO"), scale=SCALE
        )
        assert detailed.last_machine.directory is not None

    def test_disjoint_case_has_no_directory(self, detailed):
        detailed.run(kernel("reduction").trace(), case=case_study("CPU+GPU"), scale=SCALE)
        assert detailed.last_machine.directory is None


class TestHybridL3:
    def test_hybrid_policy_plugs_in(self):
        sim = DetailedSimulator(l3_policy=HybridLocalityPolicy(ways=32))
        result = sim.run(kernel("reduction").trace(), case=case_study("LRB"), scale=SCALE)
        assert result.total_seconds > 0
        assert isinstance(sim.last_machine.l3.policy, HybridLocalityPolicy)
