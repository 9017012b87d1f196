"""Tests for the fault-sensitivity ranking."""

import pytest

from repro.core.resilience import (
    DEFAULT_FAULT_RATES,
    FaultSensitivity,
    fault_sensitivity,
)
from repro.core.design_point import DesignPoint
from repro.core.space import DesignSpace
from repro.kernels.registry import all_kernels
from repro.taxonomy import CommMechanism


def small_sweep(**kwargs):
    points = DesignSpace().feasible_points()[:5]
    kernels = all_kernels()[:2]
    return points, fault_sensitivity(
        points=points, kernels=kernels, rates=(0.1,), **kwargs
    )


class TestFaultSensitivity:
    def test_one_entry_per_point_with_a_clean_baseline(self):
        points, rankings = small_sweep()
        assert len(rankings) == len(points)
        for entry in rankings:
            # 0.0 is always swept first, then the requested rates.
            assert [rate for rate, _ in entry.seconds_by_rate] == [0.0, 0.1]
            assert entry.baseline_seconds > 0

    def test_deterministic_per_seed(self):
        _, first = small_sweep(seed=5)
        _, again = small_sweep(seed=5)
        assert [(e.point.label, e.seconds_by_rate) for e in first] == [
            (e.point.label, e.seconds_by_rate) for e in again
        ]

    def test_sorted_most_fragile_first(self):
        _, rankings = small_sweep()
        slowdowns = [e.slowdown for e in rankings]
        assert slowdowns == sorted(slowdowns, reverse=True)

    def test_ideal_channel_is_immune(self):
        points = [
            p
            for p in DesignSpace().feasible_points()
            if p.comm is CommMechanism.IDEAL
        ][:2]
        rankings = fault_sensitivity(
            points=points, kernels=all_kernels()[:2], rates=(0.2,)
        )
        for entry in rankings:
            assert entry.slowdown == 1.0

    def test_faulted_points_are_no_faster_than_baseline(self):
        _, rankings = small_sweep()
        for entry in rankings:
            assert entry.worst_seconds >= entry.baseline_seconds

    def test_line_formats_each_swept_rate(self):
        _, rankings = small_sweep()
        line = rankings[0].line()
        assert rankings[0].point.label in line
        assert "10%:" in line

    def test_default_rates_start_clean(self):
        assert DEFAULT_FAULT_RATES[0] == 0.0

    def test_empty_point_list_rejected(self):
        from repro.errors import DesignSpaceError

        with pytest.raises(DesignSpaceError):
            fault_sensitivity(points=[], kernels=all_kernels()[:1])

    @pytest.mark.parametrize("rate", [-0.5, 1.5, float("nan")])
    def test_rate_outside_unit_interval_rejected(self, rate):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match=r"fault rates must be in \[0, 1\]"):
            fault_sensitivity(
                points=DesignSpace().feasible_points()[:1],
                kernels=all_kernels()[:1],
                rates=(0.1, rate),
            )


class TestFaultSensitivityDataclass:
    def _entry(self, worst):
        point = DesignSpace().feasible_points()[0]
        return FaultSensitivity(
            point=point, seconds_by_rate=((0.0, 2.0), (0.2, worst))
        )

    def test_slowdown_is_worst_over_baseline(self):
        assert self._entry(3.0).slowdown == 1.5

    def test_failed_points_rank_worst(self):
        assert self._entry(float("inf")).slowdown == float("inf")
        assert "failed" in self._entry(float("inf")).line()
