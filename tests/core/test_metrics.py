"""Tests for the efficiency metric (the paper's future work)."""

import pytest

from repro.core.metrics import (
    REPRESENTATIVE_SYSTEMS,
    EfficiencyMetric,
    EfficiencyScore,
    MetricWeights,
)
from repro.errors import DesignSpaceError
from repro.kernels.registry import kernel
from repro.taxonomy import AddressSpaceKind


@pytest.fixture(scope="module")
def scores():
    # Two kernels keep the module fast; the full suite is exercised by the
    # efficiency example and the guidelines CLI.
    return EfficiencyMetric().score_all([kernel("reduction"), kernel("dct")])


class TestScores:
    def test_all_spaces_scored(self, scores):
        assert {s.space for s in scores} == set(AddressSpaceKind)

    def test_axes_normalized_to_best(self, scores):
        for axis in ("performance", "energy", "programmability", "versatility"):
            values = [getattr(s, axis) for s in scores]
            assert max(values) == pytest.approx(1.0)
            assert all(0 < v <= 1.0 + 1e-12 for v in values)

    def test_composite_sorted_descending(self, scores):
        composites = [s.composite for s in scores]
        assert composites == sorted(composites, reverse=True)

    def test_unified_best_on_programmability(self, scores):
        best_prog = max(scores, key=lambda s: s.programmability)
        assert best_prog.space is AddressSpaceKind.UNIFIED

    def test_pas_best_on_versatility(self, scores):
        best_opts = max(scores, key=lambda s: s.versatility)
        assert best_opts.space is AddressSpaceKind.PARTIALLY_SHARED

    def test_paper_conclusion_pas_wins_composite(self, scores):
        """'Partially shared memory space is the most promising design
        space option because of its many hardware design options and
        moderately good programmability.'"""
        assert scores[0].space is AddressSpaceKind.PARTIALLY_SHARED

    def test_disjoint_last(self, scores):
        assert scores[-1].space is AddressSpaceKind.DISJOINT


class TestWeights:
    def test_versatility_zeroed_promotes_unified(self):
        weights = MetricWeights(versatility=0.0)
        scores = EfficiencyMetric(weights=weights).score_all([kernel("reduction")])
        assert scores[0].space is AddressSpaceKind.UNIFIED

    def test_rejects_all_zero(self):
        with pytest.raises(DesignSpaceError):
            MetricWeights(0.0, 0.0, 0.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(DesignSpaceError):
            MetricWeights(performance=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DesignSpaceError, match="finite"):
            MetricWeights(performance=bad)


class TestGuidelines:
    def test_report_mentions_all_spaces(self):
        text = EfficiencyMetric().guidelines([kernel("reduction")])
        for kind in AddressSpaceKind:
            assert kind.short in text
        assert "recommendation" in text

    def test_representative_systems_cover_all_spaces(self):
        assert set(REPRESENTATIVE_SYSTEMS) == set(AddressSpaceKind)
