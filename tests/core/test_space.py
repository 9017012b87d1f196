"""Tests for design-space enumeration."""

import pytest

from repro.core.design_point import DesignPoint
from repro.core.explorer import Explorer
from repro.core.space import DesignSpace
from repro.errors import DesignSpaceError
from repro.taxonomy import (
    AddressSpaceKind,
    CoherenceKind,
    CommMechanism,
    ConsistencyModel,
    LocalityScheme,
)


class TestEnumeration:
    def test_total_is_cross_product(self):
        space = DesignSpace()
        expected = (
            len(AddressSpaceKind)
            * len(CommMechanism)
            * len(LocalityScheme)
            * len(CoherenceKind)
            * len(ConsistencyModel)
        )
        assert space.total_points() == expected

    def test_feasible_subset_nonempty_and_proper(self):
        space = DesignSpace()
        feasible = space.feasible_points()
        assert 0 < len(feasible) < space.total_points()

    def test_all_enumerated_points_are_feasible(self):
        for p in DesignSpace().enumerate(feasible_only=True):
            assert p.is_feasible

    def test_desirable_is_subset_of_feasible(self):
        space = DesignSpace()
        desirable = set(space.desirable_points())
        feasible = set(space.feasible_points())
        assert desirable < feasible

    def test_unfiltered_includes_infeasible(self):
        space = DesignSpace()
        all_points = list(space.enumerate(feasible_only=False))
        assert len(all_points) == space.total_points()

    def test_restricted_axes(self):
        space = DesignSpace(
            address_spaces=[AddressSpaceKind.DISJOINT],
            comms=[CommMechanism.PCIE],
        )
        for p in space.enumerate(feasible_only=True):
            assert p.address_space is AddressSpaceKind.DISJOINT
            assert p.comm is CommMechanism.PCIE


AXES = {
    "address_spaces": AddressSpaceKind,
    "comms": CommMechanism,
    "localities": LocalityScheme,
    "coherences": CoherenceKind,
    "consistencies": ConsistencyModel,
}


class TestAxisSelection:
    @pytest.mark.parametrize("axis", sorted(AXES))
    def test_empty_axis_has_no_points(self, axis):
        space = DesignSpace(**{axis: []})
        assert space.total_points() == 0
        assert space.feasible_points() == []
        assert list(space.enumerate(feasible_only=False)) == []

    @pytest.mark.parametrize("axis", sorted(AXES))
    def test_none_is_the_full_axis(self, axis):
        space = DesignSpace(**{axis: None})
        assert getattr(space, axis) == tuple(AXES[axis])
        assert space.total_points() == DesignSpace().total_points()

    @pytest.mark.parametrize("axis", sorted(AXES))
    def test_empty_space_has_no_most_versatile_address_space(self, axis):
        with pytest.raises(DesignSpaceError):
            DesignSpace(**{axis: []}).most_versatile_address_space()

    def test_ranking_an_empty_space_is_an_error(self):
        points = DesignSpace(address_spaces=[]).feasible_points()
        with pytest.raises(DesignSpaceError, match="no feasible design points"):
            Explorer().rank_design_points(points=points)


class TestSharedEnumeration:
    """A set of axes is enumerated once per process; every call gets a
    fresh list over the same points."""

    def test_fresh_lists_over_the_same_points(self):
        first = DesignSpace().feasible_points()
        second = DesignSpace().feasible_points()
        assert first is not second
        assert len(first) == len(second) == 1933
        assert all(a is b for a, b in zip(first, second))

    def test_mutating_a_list_leaves_the_next_call_alone(self):
        expected = list(DesignSpace().enumerate(feasible_only=True))
        mine = DesignSpace().feasible_points()
        mine.reverse()
        mine.pop()
        mine.append(mine[0])
        assert DesignSpace().feasible_points() == expected

    def test_sample_shares_the_points(self):
        points = DesignSpace().feasible_points()
        step = max(len(points) // 40, 1)
        sample = DesignSpace().feasible_sample(40)
        assert sample is not DesignSpace().feasible_sample(40)
        assert all(a is b for a, b in zip(sample, points[::step]))

    def test_axes_are_part_of_the_key(self):
        disjoint = DesignSpace(address_spaces=[AddressSpaceKind.DISJOINT])
        points = disjoint.feasible_points()
        assert points == list(disjoint.enumerate(feasible_only=True))
        assert {p.address_space for p in points} == {AddressSpaceKind.DISJOINT}
        assert points[0] is disjoint.feasible_points()[0]


class TestConclusion:
    def test_partially_shared_is_most_versatile(self):
        space = DesignSpace()
        assert (
            space.most_versatile_address_space() is AddressSpaceKind.PARTIALLY_SHARED
        )

    def test_option_ordering(self):
        """PAS > UNI > ADSM > DIS in desirable design points."""
        counts = DesignSpace().options_by_address_space()
        assert (
            counts[AddressSpaceKind.PARTIALLY_SHARED]
            > counts[AddressSpaceKind.UNIFIED]
            > counts[AddressSpaceKind.ADSM]
            > counts[AddressSpaceKind.DISJOINT]
        )

    def test_disjoint_still_has_options(self):
        counts = DesignSpace().options_by_address_space()
        assert counts[AddressSpaceKind.DISJOINT] > 0
