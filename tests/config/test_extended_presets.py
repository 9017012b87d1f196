"""Tests for the extended (Table I-derived) case studies."""

import pytest

from repro.config.presets import (
    CASE_STUDIES,
    EXTENDED_CASE_STUDIES,
    case_study,
    case_study_names,
)
from repro.errors import ConfigError
from repro.kernels.registry import kernel
from repro.perf.sweep import SweepPoint
from repro.sim.fast import FastSimulator
from repro.taxonomy import AddressSpaceKind, CommMechanism, ConsistencyModel


class TestRegistry:
    def test_paper_set_unchanged(self):
        assert len(CASE_STUDIES) == 5

    def test_three_extras(self):
        assert set(EXTENDED_CASE_STUDIES) == {"Cell-like", "COMIC-like", "EXOCHI-like"}

    def test_extended_lookup(self):
        cell = case_study("cell-like")
        assert cell.comm is CommMechanism.INTERCONNECT
        assert cell.address_space is AddressSpaceKind.DISJOINT

    def test_lookup_without_extended(self):
        with pytest.raises(ConfigError):
            case_study("Cell-like", extended=False)

    def test_names_with_extras(self):
        names = case_study_names(extended=True)
        assert names[:5] == case_study_names()
        assert "COMIC-like" in names

    def test_comic_is_centralized_release(self):
        assert (
            case_study("COMIC-like").consistency
            is ConsistencyModel.CENTRALIZED_RELEASE
        )


class TestExtendedSimulation:
    def test_interconnect_systems_communicate_cheaply(self, fast_sim):
        """Cell/COMIC-style on-chip links beat every off-chip mechanism."""
        trace = kernel("reduction").trace()
        cell = fast_sim.run(trace, SweepPoint(case=case_study("Cell-like")))
        pcie = fast_sim.run(trace, SweepPoint(case=case_study("CPU+GPU")))
        fusion = fast_sim.run(trace, SweepPoint(case=case_study("Fusion")))
        assert cell.breakdown.communication < fusion.breakdown.communication
        assert cell.breakdown.communication < pcie.breakdown.communication / 10

    def test_all_extended_systems_run_all_kernels(self, fast_sim, kernels):
        for k in kernels:
            trace = k.trace()
            for name in EXTENDED_CASE_STUDIES:
                result = fast_sim.run(trace, SweepPoint(case=case_study(name)))
                assert result.total_seconds > 0
