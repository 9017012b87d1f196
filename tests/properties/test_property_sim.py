"""Property-based tests for simulator-level invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import CASE_STUDIES, case_study
from repro.kernels.registry import all_kernels
from repro.perf.sweep import SweepPoint
from repro.sim.fast import FastSimulator

kernel_strategy = st.sampled_from(all_kernels())
case_strategy = st.sampled_from(list(CASE_STUDIES))


class TestFastSimProperties:
    @given(k=kernel_strategy, case_name=case_strategy)
    @settings(max_examples=40, deadline=None)
    def test_breakdown_components_nonnegative(self, k, case_name):
        sim = FastSimulator()
        result = sim.run(k.trace(), SweepPoint(case=case_study(case_name)))
        b = result.breakdown
        assert b.sequential >= 0 and b.parallel >= 0 and b.communication >= 0
        assert 0 <= b.communication_fraction <= 1

    @given(k=kernel_strategy, case_name=case_strategy)
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, k, case_name):
        sim = FastSimulator()
        a = sim.run(k.trace(), SweepPoint(case=case_study(case_name)))
        b = sim.run(k.trace(), SweepPoint(case=case_study(case_name)))
        assert a.breakdown == b.breakdown

    @given(k=kernel_strategy)
    @settings(max_examples=20, deadline=None)
    def test_ideal_is_lower_bound(self, k):
        sim = FastSimulator()
        ideal = sim.run(k.trace(), SweepPoint(case=case_study("IDEAL-HETERO")))
        for name in CASE_STUDIES:
            other = sim.run(k.trace(), SweepPoint(case=case_study(name)))
            assert other.total_seconds >= ideal.total_seconds - 1e-15

    @given(
        k=kernel_strategy,
        case_name=case_strategy,
        factor=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=30, deadline=None)
    def test_scaling_compute_down_never_slows_execution(self, k, case_name, factor):
        sim = FastSimulator()
        full = sim.run(k.trace(), SweepPoint(case=case_study(case_name)))
        scaled = sim.run(k.trace().scaled(factor), SweepPoint(case=case_study(case_name)))
        assert scaled.total_seconds <= full.total_seconds + 1e-12
