"""The design-space axes of the paper, as enumerations.

Section II of the paper organizes heterogeneous memory-system design along
orthogonal axes; every subsystem in this library keys off these enums:

- :class:`AddressSpaceKind` — Section II-A (Figure 1);
- :class:`CommMechanism` — the hardware connection options of Table I;
- :class:`LocalityScheme` — Section II-B;
- :class:`CoherenceKind` and :class:`ConsistencyModel` — the remaining
  columns of Table I.

Keeping them in one leaf module lets ``repro.addrspace``, ``repro.comm``,
``repro.locality`` and ``repro.core`` share the vocabulary without import
cycles.
"""

from __future__ import annotations

import enum

__all__ = [
    "ProcessingUnit",
    "AddressSpaceKind",
    "CommMechanism",
    "LocalityPolicy",
    "LocalityScheme",
    "CoherenceKind",
    "ConsistencyModel",
]


class ProcessingUnit(enum.Enum):
    """A processing unit (PU): the paper's term for either side.

    The paper uses CPUs for general-purpose processors and GPUs for
    accelerators but notes the discussion applies to any accelerator.
    """

    CPU = "cpu"
    GPU = "gpu"

    @property
    def other(self) -> "ProcessingUnit":
        """The peer PU."""
        return ProcessingUnit.GPU if self is ProcessingUnit.CPU else ProcessingUnit.CPU

    def __str__(self) -> str:
        return self.value


class AddressSpaceKind(enum.Enum):
    """Memory address space design options (Figure 1).

    - ``UNIFIED``: one address space; any task runs on any PU without
      explicit transfers (may still be non-coherent, e.g. CUDA 4.0 UVA).
    - ``DISJOINT``: private spaces; explicit communication always required.
    - ``PARTIALLY_SHARED``: a shared window plus private spaces; ownership
      control optional (LRB).
    - ``ADSM``: asymmetric — the CPU sees everything, the GPU only its own
      space (GMAC).
    """

    UNIFIED = "unified"
    DISJOINT = "disjoint"
    PARTIALLY_SHARED = "partially-shared"
    ADSM = "adsm"

    @property
    def short(self) -> str:
        """The abbreviation used in the paper's figures (UNI/DIS/PAS/ADSM)."""
        return _SPACE_SHORT[self]

    @property
    def has_shared_window(self) -> bool:
        """Whether some addresses are reachable by both PUs."""
        return self is not AddressSpaceKind.DISJOINT

    def __str__(self) -> str:
        return self.value


_SPACE_SHORT = {
    AddressSpaceKind.UNIFIED: "UNI",
    AddressSpaceKind.DISJOINT: "DIS",
    AddressSpaceKind.PARTIALLY_SHARED: "PAS",
    AddressSpaceKind.ADSM: "ADSM",
}


class CommMechanism(enum.Enum):
    """Hardware communication mechanisms between PUs (Table I connections)."""

    PCIE = "pci-e"
    PCI_APERTURE = "pci-aperture"
    MEMORY_CONTROLLER = "memory-controller"
    INTERCONNECT = "interconnection"
    DMA_ASYNC = "dma-async"
    IDEAL = "ideal"

    @property
    def off_chip(self) -> bool:
        """Whether transfers leave the chip (PCI-E family)."""
        return self in (CommMechanism.PCIE, CommMechanism.PCI_APERTURE, CommMechanism.DMA_ASYNC)

    def __str__(self) -> str:
        return self.value


class LocalityPolicy(enum.Enum):
    """How locality is managed at one storage level."""

    IMPLICIT = "implicit"
    EXPLICIT = "explicit"

    @property
    def short(self) -> str:
        return "impl" if self is LocalityPolicy.IMPLICIT else "expl"

    def __str__(self) -> str:
        return self.value


class LocalityScheme(enum.Enum):
    """Locality-management schemes for the shared memory space (§II-B).

    Names encode (CPU-private policy[, GPU-private policy], shared policy).
    A single private policy means both PUs manage their private caches the
    same way. ``HYBRID_SHARED`` is §II-B5: the shared level itself supports
    both implicit and explicit management with a protecting replacement
    policy.
    """

    IMPLICIT_PRIVATE_IMPLICIT_SHARED = "impl-pri-impl-shared"
    IMPLICIT_PRIVATE_EXPLICIT_SHARED = "impl-pri-expl-shared"
    EXPLICIT_PRIVATE_IMPLICIT_SHARED = "expl-pri-impl-shared"
    EXPLICIT_PRIVATE_EXPLICIT_SHARED = "expl-pri-expl-shared"
    MIXED_PRIVATE_EXPLICIT_SHARED = "impl-pri-expl-pri-expl-shared"
    MIXED_PRIVATE_IMPLICIT_SHARED = "impl-pri-expl-pri-impl-shared"
    HYBRID_SHARED = "hybrid-second-level"
    PRIVATE_ONLY = "private-only"

    @property
    def shared_policy(self) -> "LocalityPolicy | None":
        """Policy of the shared level; None for disjoint (no shared space)
        and for the hybrid scheme (both policies coexist)."""
        mapping = {
            LocalityScheme.IMPLICIT_PRIVATE_IMPLICIT_SHARED: LocalityPolicy.IMPLICIT,
            LocalityScheme.IMPLICIT_PRIVATE_EXPLICIT_SHARED: LocalityPolicy.EXPLICIT,
            LocalityScheme.EXPLICIT_PRIVATE_IMPLICIT_SHARED: LocalityPolicy.IMPLICIT,
            LocalityScheme.EXPLICIT_PRIVATE_EXPLICIT_SHARED: LocalityPolicy.EXPLICIT,
            LocalityScheme.MIXED_PRIVATE_EXPLICIT_SHARED: LocalityPolicy.EXPLICIT,
            LocalityScheme.MIXED_PRIVATE_IMPLICIT_SHARED: LocalityPolicy.IMPLICIT,
        }
        return mapping.get(self)

    @property
    def mixed_private(self) -> bool:
        """Whether the two PUs use different private-cache policies."""
        return self in (
            LocalityScheme.MIXED_PRIVATE_EXPLICIT_SHARED,
            LocalityScheme.MIXED_PRIVATE_IMPLICIT_SHARED,
            LocalityScheme.HYBRID_SHARED,
        )

    def __str__(self) -> str:
        return self.value


class CoherenceKind(enum.Enum):
    """How coherent data is kept coherent across PUs."""

    NONE = "none"
    HARDWARE_DIRECTORY = "hw-directory"
    HARDWARE_SNOOP = "hw-snoop"
    SOFTWARE_RUNTIME = "sw-runtime"
    HYBRID = "hw-sw-hybrid"
    OWNERSHIP = "ownership"

    @property
    def hardware(self) -> bool:
        """Whether a hardware protocol keeps the shared window coherent."""
        return self in (CoherenceKind.HARDWARE_DIRECTORY, CoherenceKind.HARDWARE_SNOOP)

    @property
    def protocol(self) -> str:
        """The :mod:`repro.mem.coherence` protocol variant this kind maps to
        (``"none"``, ``"snoop"`` or ``"directory"``). Software-managed kinds
        map to ``"none"``: they pay at synchronization points, not per access.
        """
        if self is CoherenceKind.HARDWARE_DIRECTORY:
            return "directory"
        if self is CoherenceKind.HARDWARE_SNOOP:
            return "snoop"
        return "none"

    def __str__(self) -> str:
        return self.value


class ConsistencyModel(enum.Enum):
    """Memory consistency models appearing in Table I."""

    STRONG = "strong"
    WEAK = "weak"
    RELEASE = "release"
    CENTRALIZED_RELEASE = "centralized-release"

    def __str__(self) -> str:
        return self.value
