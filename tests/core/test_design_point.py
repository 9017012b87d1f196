"""Tests for design-point feasibility rules."""

import pickle

import pytest

from repro.core.design_point import DesignPoint
from repro.core.space import DesignSpace
from repro.errors import DesignSpaceError
from repro.exec.sweepjob import timing_key
from repro.locality.schemes import Feasibility, feasibility
from repro.taxonomy import (
    AddressSpaceKind,
    CoherenceKind,
    CommMechanism,
    ConsistencyModel,
    LocalityScheme,
)


def point(**kwargs):
    defaults = dict(
        address_space=AddressSpaceKind.PARTIALLY_SHARED,
        comm=CommMechanism.PCIE,
        locality=LocalityScheme.IMPLICIT_PRIVATE_EXPLICIT_SHARED,
        coherence=CoherenceKind.OWNERSHIP,
        consistency=ConsistencyModel.WEAK,
    )
    defaults.update(kwargs)
    return DesignPoint(**defaults)


class TestFeasibleExamples:
    def test_lrb_like_point(self):
        assert point(comm=CommMechanism.PCI_APERTURE).is_feasible

    def test_cuda_like_point(self):
        p = point(
            address_space=AddressSpaceKind.DISJOINT,
            locality=LocalityScheme.PRIVATE_ONLY,
            coherence=CoherenceKind.NONE,
        )
        assert p.is_feasible

    def test_gmac_like_point(self):
        p = point(
            address_space=AddressSpaceKind.ADSM,
            locality=LocalityScheme.EXPLICIT_PRIVATE_IMPLICIT_SHARED,
            coherence=CoherenceKind.SOFTWARE_RUNTIME,
        )
        assert p.is_feasible

    def test_ideal_hetero_point(self):
        p = point(
            address_space=AddressSpaceKind.UNIFIED,
            comm=CommMechanism.IDEAL,
            locality=LocalityScheme.IMPLICIT_PRIVATE_IMPLICIT_SHARED,
            coherence=CoherenceKind.HARDWARE_DIRECTORY,
            consistency=ConsistencyModel.STRONG,
        )
        assert p.is_feasible


class TestViolations:
    def test_ownership_outside_pas(self):
        p = point(address_space=AddressSpaceKind.UNIFIED)
        assert any("ownership" in v for v in p.violations())

    def test_disjoint_with_coherence(self):
        p = point(
            address_space=AddressSpaceKind.DISJOINT,
            locality=LocalityScheme.PRIVATE_ONLY,
            coherence=CoherenceKind.HARDWARE_DIRECTORY,
        )
        assert not p.is_feasible

    def test_disjoint_with_shared_locality(self):
        p = point(
            address_space=AddressSpaceKind.DISJOINT,
            locality=LocalityScheme.IMPLICIT_PRIVATE_IMPLICIT_SHARED,
            coherence=CoherenceKind.NONE,
        )
        assert not p.is_feasible

    def test_aperture_requires_shared_window(self):
        p = point(
            address_space=AddressSpaceKind.ADSM,
            comm=CommMechanism.PCI_APERTURE,
            locality=LocalityScheme.EXPLICIT_PRIVATE_IMPLICIT_SHARED,
            coherence=CoherenceKind.SOFTWARE_RUNTIME,
        )
        assert not p.is_feasible

    def test_strong_consistency_needs_hw_coherence(self):
        p = point(consistency=ConsistencyModel.STRONG)
        assert any("strong" in v.lower() for v in p.violations())

    def test_pas_needs_a_coherence_story(self):
        p = point(coherence=CoherenceKind.NONE)
        assert not p.is_feasible

    def test_unified_may_be_non_coherent(self):
        """CUDA 4.0: unified address space, no coherence."""
        p = point(
            address_space=AddressSpaceKind.UNIFIED,
            locality=LocalityScheme.EXPLICIT_PRIVATE_IMPLICIT_SHARED,
            coherence=CoherenceKind.NONE,
        )
        assert p.is_feasible

    def test_require_feasible_raises(self):
        p = point(coherence=CoherenceKind.NONE)
        with pytest.raises(DesignSpaceError):
            p.require_feasible()

    def test_require_feasible_returns_self(self):
        p = point()
        assert p.require_feasible() is p


class TestWarnings:
    def test_undesirable_locality_warns(self):
        p = point(
            address_space=AddressSpaceKind.UNIFIED,
            locality=LocalityScheme.IMPLICIT_PRIVATE_EXPLICIT_SHARED,
            coherence=CoherenceKind.HARDWARE_DIRECTORY,
        )
        assert p.is_feasible
        assert not p.is_desirable
        assert p.warnings()

    def test_clean_point_has_no_warnings(self):
        assert point().warnings() == ()
        assert point().is_desirable


class TestMisc:
    def test_label_mentions_all_axes(self):
        label = point().label
        assert "PAS" in label
        assert "pci-e" in label

    def test_with_comm(self):
        p = point().with_comm(CommMechanism.IDEAL)
        assert p.comm is CommMechanism.IDEAL
        assert p.address_space is AddressSpaceKind.PARTIALLY_SHARED


# Reference formulas for a point's label, violations and timing key,
# formatted from the enums directly; the memoized ones read string tables.
_SHORT = {
    AddressSpaceKind.UNIFIED: "UNI",
    AddressSpaceKind.DISJOINT: "DIS",
    AddressSpaceKind.PARTIALLY_SHARED: "PAS",
    AddressSpaceKind.ADSM: "ADSM",
}


def _reference_label(p):
    return (
        f"{_SHORT[p.address_space]}/{p.comm}/{p.locality}/"
        f"{p.coherence}/{p.consistency}"
    )


def _reference_violations(p):
    problems = []
    space = p.address_space
    if feasibility(p.locality, space) is Feasibility.NO:
        problems.append(
            f"locality scheme {p.locality} is impossible under the "
            f"{_SHORT[space]} space"
        )
    if p.coherence is CoherenceKind.OWNERSHIP and space is not (
        AddressSpaceKind.PARTIALLY_SHARED
    ):
        problems.append(
            "ownership control is a partially-shared-space mechanism (§II-A3)"
        )
    if space is AddressSpaceKind.DISJOINT and p.coherence is not CoherenceKind.NONE:
        problems.append("a disjoint space has no shared data to keep coherent (§II-A2)")
    if p.comm is CommMechanism.PCI_APERTURE and space not in (
        AddressSpaceKind.PARTIALLY_SHARED,
        AddressSpaceKind.UNIFIED,
    ):
        problems.append(
            "the PCI aperture backs a shared window (partially shared or "
            "virtually unified spaces, §II-A3)"
        )
    if p.consistency is ConsistencyModel.STRONG and p.coherence not in (
        CoherenceKind.HARDWARE_DIRECTORY,
        CoherenceKind.HARDWARE_SNOOP,
    ):
        problems.append("strong consistency across PUs requires hardware coherence")
    if (
        space is not AddressSpaceKind.DISJOINT
        and p.coherence is CoherenceKind.NONE
        and space is not AddressSpaceKind.UNIFIED
    ):
        problems.append(
            f"the {_SHORT[space]} space needs some coherence story for its "
            "shared window (ownership, runtime, or hardware)"
        )
    return tuple(problems)


def _reference_timing_key(p):
    return (str(p.comm), str(p.address_space))


class TestMemo:
    """Label, violations and timing key: computed once, equal to the
    reference formulas on every point of the space, and invisible to
    equality, hashing, repr and pickling."""

    ALL = list(DesignSpace().enumerate(feasible_only=False))

    def test_every_point_matches_the_reference(self):
        assert len(self.ALL) == 4608
        for p in self.ALL:
            label = _reference_label(p)
            assert p.label == label
            assert str(p) == label
            assert p.violations() == _reference_violations(p)
            assert p.timing_key == _reference_timing_key(p)
            assert timing_key(p) == _reference_timing_key(p)

    def test_memo_is_out_of_eq_hash_repr_and_pickle(self):
        for fresh in DesignSpace().enumerate(feasible_only=False):
            before = (pickle.dumps(fresh), repr(fresh), hash(fresh))
            fresh.label, fresh.violations(), str(fresh), fresh.timing_key
            assert (pickle.dumps(fresh), repr(fresh), hash(fresh)) == before
            twin = DesignPoint(
                address_space=fresh.address_space,
                comm=fresh.comm,
                locality=fresh.locality,
                coherence=fresh.coherence,
                consistency=fresh.consistency,
            )
            assert twin == fresh and hash(twin) == hash(fresh)
            assert pickle.dumps(twin) == before[0]
            copy = pickle.loads(before[0])
            assert copy == fresh and copy.label == fresh.label

    def test_computed_once_per_instance(self):
        p = point()
        assert p.label is p.label
        assert p.violations() is p.violations()
        assert p.timing_key is p.timing_key
        assert p.with_comm(CommMechanism.IDEAL).label == "PAS/ideal/" + (
            "impl-pri-expl-shared/ownership/weak"
        )
