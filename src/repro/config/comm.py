"""Communication-overhead model parameters (paper Table IV).

The paper models programming-model effects as special instructions whose
latencies are fixed CPU-cycle costs:

========  =============================  =============  =====================
Name      Description                    System         Latency (CPU cycles)
========  =============================  =============  =====================
api-pci   mem copy using PCI-E           CPU+GPU, GMAC  33250 + bytes/rate
api-acq   acquire action                 LRB            1000
api-tr    data transfer                  LRB            7000
lib-pf    page fault                     LRB            42000
========  =============================  =============  =====================

``trans_rate`` is 16 GB/s (PCI-E 2.0). The size-dependent term of ``api-pci``
is converted from seconds to CPU cycles at the CPU clock.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.units import GHZ, Bandwidth, Frequency

__all__ = ["CommParams", "DEFAULT_COMM_PARAMS"]


@dataclass(frozen=True)
class CommParams:
    """Latency parameters for the communication special instructions.

    All fixed latencies are in CPU cycles, matching Table IV, which quotes
    latencies for instructions executed on the CPU side of the runtime.
    """

    api_pci_base_cycles: int = 33250
    pci_bandwidth: Bandwidth = Bandwidth.from_gb_per_s(16.0)
    api_acq_cycles: int = 1000
    api_tr_cycles: int = 7000
    lib_pf_cycles: int = 42000
    cpu_frequency: Frequency = Frequency(3.5 * GHZ)

    def __post_init__(self) -> None:
        for name in ("api_pci_base_cycles", "api_acq_cycles", "api_tr_cycles", "lib_pf_cycles"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")

    def __hash__(self) -> int:
        """The field-tuple hash, computed once per instance: every job's
        memo key carries the run's parameters."""
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = hash(
                tuple(self.__dict__[name] for name in _COMM_FIELDS)
            )
        return value

    def __getstate__(self) -> Dict[str, object]:
        """The fields only: the stored hash never reaches a pickle or a
        store key."""
        return {name: self.__dict__[name] for name in _COMM_FIELDS}

    def api_pci_cycles(self, num_bytes: int) -> int:
        """Cycles for a PCI-E memcpy of ``num_bytes``: base + size/rate."""
        if num_bytes < 0:
            raise ConfigError(f"byte count must be non-negative, got {num_bytes}")
        transfer_s = self.pci_bandwidth.seconds_for(num_bytes)
        return self.api_pci_base_cycles + self.cpu_frequency.seconds_to_cycles(transfer_s)

    def api_pci_seconds(self, num_bytes: int) -> float:
        """Wall-clock time of a PCI-E memcpy of ``num_bytes``."""
        return self.cpu_frequency.cycles_to_seconds(self.api_pci_cycles(num_bytes))

    def api_acq_seconds(self) -> float:
        """Wall-clock time of one ownership acquire/release action."""
        return self.cpu_frequency.cycles_to_seconds(self.api_acq_cycles)

    def api_tr_seconds(self) -> float:
        """Wall-clock time of one partially-shared-space data-transfer call."""
        return self.cpu_frequency.cycles_to_seconds(self.api_tr_cycles)

    def lib_pf_seconds(self) -> float:
        """Wall-clock time of servicing one page fault in the shared space."""
        return self.cpu_frequency.cycles_to_seconds(self.lib_pf_cycles)

    def table_rows(self) -> Tuple[Tuple[str, str, str, str], ...]:
        """Render the Table IV content as (name, description, system, latency)."""
        return (
            (
                "api-pci",
                "mem copy using PCI-E",
                "CPU+GPU, GMAC",
                f"{self.api_pci_base_cycles}+trans_rate",
            ),
            ("api-acq", "acquire action", "LRB", str(self.api_acq_cycles)),
            ("api-tr", "data transfer", "LRB", str(self.api_tr_cycles)),
            ("lib-pf", "page fault", "LRB", str(self.lib_pf_cycles)),
        )


_COMM_FIELDS = tuple(f.name for f in fields(CommParams))

DEFAULT_COMM_PARAMS = CommParams()
