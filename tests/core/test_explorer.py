"""Tests for the experiment explorer."""

import pytest

from repro.core.design_point import DesignPoint
from repro.core.explorer import Explorer
from repro.kernels.registry import kernel
from repro.taxonomy import (
    AddressSpaceKind,
    CoherenceKind,
    CommMechanism,
    ConsistencyModel,
    LocalityScheme,
)


@pytest.fixture(scope="module")
def explorer():
    return Explorer()


@pytest.fixture(scope="module")
def two_kernels():
    return [kernel("reduction"), kernel("merge sort")]


class TestCaseStudies:
    def test_full_grid(self, explorer, two_kernels):
        results = explorer.run_case_studies(kernels=two_kernels)
        assert set(results) == {"reduction", "merge sort"}
        for per_system in results.values():
            assert len(per_system) == 5

    def test_results_labelled(self, explorer, two_kernels):
        results = explorer.run_case_studies(kernels=two_kernels)
        assert results["reduction"]["LRB"].system == "LRB"
        assert results["reduction"]["LRB"].kernel == "reduction"


class TestDetailedCaseStudies:
    def test_detailed_grid_matches_fast_ordering(self, explorer):
        from repro.config.presets import case_study

        cases = [case_study("CPU+GPU"), case_study("Fusion"), case_study("IDEAL-HETERO")]
        detailed = explorer.run_case_studies_detailed(
            kernels=[kernel("reduction")], cases=cases
        )
        fast = explorer.run_case_studies(kernels=[kernel("reduction")], cases=cases)
        names = [c.name for c in cases]
        det_order = sorted(names, key=lambda n: detailed["reduction"][n].total_seconds)
        fast_order = sorted(names, key=lambda n: fast["reduction"][n].total_seconds)
        assert det_order == fast_order


class TestAddressSpaces:
    def test_figure7_grid(self, explorer, two_kernels):
        results = explorer.run_address_spaces(kernels=two_kernels)
        for per_space in results.values():
            assert set(per_space) == set(AddressSpaceKind)
            # Ideal communication: zero comm time everywhere.
            for result in per_space.values():
                assert result.breakdown.communication == 0.0

    def test_spread_is_tiny(self, explorer, two_kernels):
        results = explorer.run_address_spaces(kernels=two_kernels)
        for per_space in results.values():
            totals = [r.total_seconds for r in per_space.values()]
            assert max(totals) / min(totals) < 1.01


class TestDesignPointEvaluation:
    def lrb_point(self):
        return DesignPoint(
            address_space=AddressSpaceKind.PARTIALLY_SHARED,
            comm=CommMechanism.PCI_APERTURE,
            locality=LocalityScheme.IMPLICIT_PRIVATE_EXPLICIT_SHARED,
            coherence=CoherenceKind.OWNERSHIP,
            consistency=ConsistencyModel.WEAK,
        )

    def test_evaluation_fields(self, explorer, two_kernels):
        ev = explorer.evaluate_design_point(self.lrb_point(), kernels=two_kernels)
        assert ev.mean_seconds > 0
        assert 0 <= ev.mean_comm_fraction < 1
        assert ev.comm_lines_total > 0
        assert ev.locality_options > 1

    def test_record_shape(self, explorer, two_kernels):
        """Field names and order, repr, hash and immutability are those
        of the frozen record the rank output and serve payloads read."""
        ev = explorer.evaluate_design_point(self.lrb_point(), kernels=two_kernels)
        names = (
            "point",
            "mean_seconds",
            "mean_comm_fraction",
            "comm_lines_total",
            "locality_options",
        )
        values = tuple(getattr(ev, name) for name in names)
        assert ev._fields == names
        assert repr(ev) == "DesignPointEvaluation(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(names, values)
        ) + ")"
        assert hash(ev) == hash(values)
        assert ev.score() == (-values[4], values[3], values[1])
        with pytest.raises(AttributeError):
            ev.mean_seconds = 0.0

    def test_infeasible_point_rejected(self, explorer, two_kernels):
        from repro.errors import DesignSpaceError

        bad = DesignPoint(
            address_space=AddressSpaceKind.DISJOINT,
            comm=CommMechanism.PCIE,
            locality=LocalityScheme.HYBRID_SHARED,
        )
        with pytest.raises(DesignSpaceError):
            explorer.evaluate_design_point(bad, kernels=two_kernels)

    def test_ranking_prefers_pas(self, explorer, two_kernels):
        """With the paper's weighting (options first), a PAS point should
        outrank a disjoint point."""
        dis = DesignPoint(
            address_space=AddressSpaceKind.DISJOINT,
            comm=CommMechanism.PCIE,
            locality=LocalityScheme.PRIVATE_ONLY,
            coherence=CoherenceKind.NONE,
        )
        ranked = explorer.rank_design_points(
            points=[dis, self.lrb_point()], kernels=two_kernels
        )
        assert ranked[0].point.address_space is AddressSpaceKind.PARTIALLY_SHARED


class _NoCommKernel:
    """A kernel whose trace has no communication phase: every mechanism
    prices it alike, so points tie on score across timing groups."""

    name = "no-comm"

    def trace(self, shape=None):
        from repro.taxonomy import ProcessingUnit
        from repro.trace.mix import InstructionMix
        from repro.trace.phase import Segment, SequentialPhase
        from repro.trace.stream import KernelTrace

        segment = Segment(pu=ProcessingUnit.CPU, mix=InstructionMix(int_alu=1_000))
        return KernelTrace(
            name=self.name,
            phases=(SequentialPhase(label="work", segment=segment),),
        )


class TestRankOrder:
    """The ranking is the stable sort of the input points by score, also
    when points of different timing groups tie."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shards", [None, 3])
    def test_ties_across_timing_groups_keep_input_order(self, seed, shards):
        import random

        from repro.core.explorer import DesignPointEvaluation
        from repro.core.space import DesignSpace
        from repro.exec.cache import TraceCache

        points = DesignSpace().feasible_points()
        random.Random(seed).shuffle(points)
        ranked = Explorer(trace_cache=TraceCache()).rank_design_points(
            points, kernels=[_NoCommKernel()], shards=shards
        )
        by_label = {e.point.label: e for e in ranked}
        want = sorted(
            (by_label[point.label] for point in points),
            key=DesignPointEvaluation.score,
        )
        assert [e.point.label for e in ranked] == [e.point.label for e in want]
        # Many timing groups tie: every mechanism of an address space.
        groups = {e.point.timing_key for e in ranked}
        assert len({e.score() for e in ranked}) < len(groups)


class TestCoherenceOverhead:
    @pytest.fixture(scope="class")
    def overhead(self, explorer):
        return explorer.run_coherence_overhead(kernels=[kernel("reduction")])

    def test_grid_shape(self, overhead):
        assert set(overhead) == {s.short for s in AddressSpaceKind}
        for per_protocol in overhead.values():
            assert set(per_protocol) == {"none", "snoop", "directory"}
            for per_kernel in per_protocol.values():
                assert set(per_kernel) == {"reduction"}

    def test_results_labelled_by_space_and_protocol(self, overhead):
        result = overhead["UNI"]["snoop"]["reduction"]
        assert result.system == "UNI/snoop"
        assert result.kernel == "reduction"

    def test_unified_snoop_measures_nonzero_traffic(self, overhead):
        counters = overhead["UNI"]["snoop"]["reduction"].counters
        assert counters["snoop.broadcasts"] > 0
        assert counters["snoop.tracked_lines"] > 0

    def test_disjoint_shares_nothing(self, overhead):
        for kind in ("snoop", "directory"):
            counters = overhead["DIS"][kind]["reduction"].counters
            assert counters[f"{kind}.tracked_lines"] == 0
