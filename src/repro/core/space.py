"""Enumeration over the full memory-model design space."""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.design_point import DesignPoint
from repro.taxonomy import (
    AddressSpaceKind,
    CoherenceKind,
    CommMechanism,
    ConsistencyModel,
    LocalityScheme,
)

__all__ = ["DesignSpace"]


class DesignSpace:
    """The cross product of all design axes, with feasibility filtering.

    >>> space = DesignSpace()
    >>> space.total_points() == (4 * 6 * 8 * 6 * 4)
    True
    """

    def __init__(
        self,
        address_spaces: Optional[Sequence[AddressSpaceKind]] = None,
        comms: Optional[Sequence[CommMechanism]] = None,
        localities: Optional[Sequence[LocalityScheme]] = None,
        coherences: Optional[Sequence[CoherenceKind]] = None,
        consistencies: Optional[Sequence[ConsistencyModel]] = None,
    ) -> None:
        self.address_spaces = tuple(address_spaces or AddressSpaceKind)
        self.comms = tuple(comms or CommMechanism)
        self.localities = tuple(localities or LocalityScheme)
        self.coherences = tuple(coherences or CoherenceKind)
        self.consistencies = tuple(consistencies or ConsistencyModel)

    def total_points(self) -> int:
        """Size of the unfiltered cross product."""
        return (
            len(self.address_spaces)
            * len(self.comms)
            * len(self.localities)
            * len(self.coherences)
            * len(self.consistencies)
        )

    def enumerate(
        self, feasible_only: bool = True, desirable_only: bool = False
    ) -> Iterator[DesignPoint]:
        """Yield design points, skipping infeasible ones by default.

        ``desirable_only`` additionally drops points the paper deems
        possible but undesirable (see :meth:`DesignPoint.warnings`).
        """
        for space, comm, locality, coherence, consistency in itertools.product(
            self.address_spaces,
            self.comms,
            self.localities,
            self.coherences,
            self.consistencies,
        ):
            point = DesignPoint(
                address_space=space,
                comm=comm,
                locality=locality,
                coherence=coherence,
                consistency=consistency,
            )
            if feasible_only and not point.is_feasible:
                continue
            if desirable_only and not point.is_desirable:
                continue
            yield point

    def feasible_points(self) -> List[DesignPoint]:
        return list(self.enumerate(feasible_only=True))

    def feasible_sample(self, sample: int) -> List[DesignPoint]:
        """Every ``len(points) // sample``-th feasible point, in enumeration
        order: the stride sample ``rank``, ``faults`` and serve rank jobs
        evaluate. ``0``, or a sample no smaller than the space, keeps every
        point.

        >>> len(DesignSpace().feasible_sample(40))
        41
        """
        points = self.feasible_points()
        if sample and sample < len(points):
            points = points[:: max(len(points) // sample, 1)]
        return points

    def desirable_points(self) -> List[DesignPoint]:
        return list(self.enumerate(feasible_only=True, desirable_only=True))

    def options_by_address_space(self) -> Dict[AddressSpaceKind, int]:
        """Desirable design points per address space.

        The paper's conclusion: "the partially shared address space scheme
        provides the most versatile design options in locality management
        and communication methods." Undesirable combinations (feasible but
        argued against in §II) do not count as real options.
        """
        counts: Dict[AddressSpaceKind, int] = {k: 0 for k in self.address_spaces}
        for point in self.enumerate(feasible_only=True, desirable_only=True):
            counts[point.address_space] += 1
        return counts

    def most_versatile_address_space(self) -> AddressSpaceKind:
        """The address space admitting the most feasible design points."""
        counts = self.options_by_address_space()
        return max(counts, key=lambda k: counts[k])
