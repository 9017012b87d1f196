"""Design points and their feasibility rules."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Dict, Tuple

from repro.errors import DesignSpaceError
from repro.locality.schemes import Feasibility, feasibility
from repro.taxonomy import (
    AddressSpaceKind,
    CoherenceKind,
    CommMechanism,
    ConsistencyModel,
    LocalityScheme,
)

__all__ = ["DesignPoint"]

#: Each axis member's ``str``, looked up instead of formatted.
_TEXT: Dict[object, str] = {
    member: str(member)
    for axis in (
        AddressSpaceKind,
        CommMechanism,
        LocalityScheme,
        CoherenceKind,
        ConsistencyModel,
    )
    for member in axis
}
#: A label's address-space part: the paper's abbreviation.
_SHORT: Dict[AddressSpaceKind, str] = {space: space.short for space in AddressSpaceKind}


@dataclass(frozen=True)
class DesignPoint:
    """One memory-system design for a heterogeneous machine.

    :meth:`violations` applies the structural rules of Section II;
    :meth:`warnings` lists combinations the paper calls possible but
    undesirable. A point with no violations is *feasible*.

    A point's :attr:`label`, :meth:`violations` and :attr:`timing_key`
    are computed at most once, on first use, and kept on the instance.
    The memo stays out of ``==``, ``hash``, ``repr`` and pickling, so a
    point pickles to the same bytes before and after it is read.
    """

    address_space: AddressSpaceKind
    comm: CommMechanism
    locality: LocalityScheme
    coherence: CoherenceKind = CoherenceKind.NONE
    consistency: ConsistencyModel = ConsistencyModel.WEAK

    def violations(self) -> Tuple[str, ...]:
        """Hard rule violations making this point structurally impossible."""
        return self._violations

    @cached_property
    def _violations(self) -> Tuple[str, ...]:
        problems = []
        space = self.address_space

        if feasibility(self.locality, space) is Feasibility.NO:
            problems.append(
                f"locality scheme {_TEXT[self.locality]} is impossible under "
                f"the {_SHORT[space]} space"
            )
        if self.coherence is CoherenceKind.OWNERSHIP and space is not (
            AddressSpaceKind.PARTIALLY_SHARED
        ):
            problems.append(
                "ownership control is a partially-shared-space mechanism (§II-A3)"
            )
        if space is AddressSpaceKind.DISJOINT and self.coherence is not CoherenceKind.NONE:
            problems.append(
                "a disjoint space has no shared data to keep coherent (§II-A2)"
            )
        if self.comm is CommMechanism.PCI_APERTURE and space not in (
            AddressSpaceKind.PARTIALLY_SHARED,
            AddressSpaceKind.UNIFIED,
        ):
            problems.append(
                "the PCI aperture backs a shared window (partially shared or "
                "virtually unified spaces, §II-A3)"
            )
        if self.consistency is ConsistencyModel.STRONG and not self.coherence.hardware:
            problems.append(
                "strong consistency across PUs requires hardware coherence"
            )
        if (
            space is not AddressSpaceKind.DISJOINT
            and self.coherence is CoherenceKind.NONE
            and space is not AddressSpaceKind.UNIFIED
        ):
            # PAS needs ownership or coherence for its window; ADSM needs
            # its runtime. (A unified space may be non-coherent — CUDA 4.0.)
            problems.append(
                f"the {_SHORT[space]} space needs some coherence story for its "
                "shared window (ownership, runtime, or hardware)"
            )
        return tuple(problems)

    def warnings(self) -> Tuple[str, ...]:
        """Possible-but-undesirable combinations (the paper's judgement)."""
        notes = []
        if feasibility(self.locality, self.address_space) is Feasibility.UNDESIRABLE:
            notes.append(
                f"locality scheme {_TEXT[self.locality]} is undesirable under "
                f"the {_SHORT[self.address_space]} space (§II-B)"
            )
        if (
            self.comm is CommMechanism.PCIE
            and self.address_space is AddressSpaceKind.UNIFIED
            and self.coherence.hardware
        ):
            notes.append("hardware coherence over PCI-E is very expensive")
        return tuple(notes)

    @property
    def is_feasible(self) -> bool:
        return not self.violations()

    @property
    def is_desirable(self) -> bool:
        """Feasible and free of the paper's "possible but undesirable"
        combinations."""
        return self.is_feasible and not self.warnings()

    def require_feasible(self) -> "DesignPoint":
        """Return self, raising :class:`DesignSpaceError` when infeasible."""
        problems = self.violations()
        if problems:
            raise DesignSpaceError(
                f"infeasible design point {self.label}: " + "; ".join(problems)
            )
        return self

    @cached_property
    def label(self) -> str:
        """``SPACE/comm/locality/coherence/consistency``, e.g.
        ``UNI/pci-e/impl-pri-impl-shared/none/weak``."""
        return "/".join(
            (
                _SHORT[self.address_space],
                _TEXT[self.comm],
                _TEXT[self.locality],
                _TEXT[self.coherence],
                _TEXT[self.consistency],
            )
        )

    @cached_property
    def timing_key(self) -> Tuple[str, str]:
        """The axes that can affect simulated timing: ``(comm, space)`` text.

        Rank jobs differ only in communication mechanism and address space
        (locality, coherence, and consistency are scored analytically), so
        two points sharing this key produce bit-identical per-kernel
        results — the invariant both :meth:`~repro.exec.job.SimJob.cache_key`
        dedup and in-shard memoization rely on. Stored sweep records are
        keyed by it, so its text never changes.
        """
        return (_TEXT[self.comm], _TEXT[self.address_space])

    def with_comm(self, comm: CommMechanism) -> "DesignPoint":
        return replace(self, comm=comm)

    def __str__(self) -> str:
        return self.label

    def __getstate__(self) -> Dict[str, object]:
        """The fields only: a read memo never reaches a pickle."""
        return {name: self.__dict__[name] for name in _FIELDS}


_FIELDS = tuple(f.name for f in fields(DesignPoint))
