"""Baseline system configuration (paper Table II).

The paper models one out-of-order CPU core similar to Intel Sandy Bridge and
one in-order SIMD GPU core similar to NVIDIA Fermi, a private L1/L2 per CPU,
a tiled shared L3, a ring-bus interconnect, and DDR3-1333 DRAM behind four
FR-FCFS controllers. Cache latencies follow CACTI 6.5 (see
:mod:`repro.mem.cacti`).

All dataclasses here are frozen: a configuration is a value that can be
hashed, compared, and safely shared between design points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.units import GB, GHZ, KB, MB, Bandwidth, Frequency

__all__ = [
    "CacheConfig",
    "BranchPredictorConfig",
    "CpuConfig",
    "GpuConfig",
    "InterconnectConfig",
    "DramConfig",
    "SystemConfig",
    "baseline_system",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    ``latency`` is the hit latency in the owning clock domain's cycles.
    ``tiles`` models a physically tiled cache (the L3 has 4 tiles); capacity
    is the *total* across tiles.
    """

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64
    latency: int = 1
    tiles: int = 1
    mshr_entries: int = 16
    write_back: bool = True
    write_allocate: bool = True

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, f"{self.name}: size must be positive")
        _require(self.ways > 0, f"{self.name}: ways must be positive")
        _require(_is_pow2(self.line_bytes), f"{self.name}: line size must be a power of two")
        _require(self.latency >= 1, f"{self.name}: latency must be >= 1 cycle")
        _require(self.tiles >= 1, f"{self.name}: tiles must be >= 1")
        _require(self.mshr_entries >= 1, f"{self.name}: need at least one MSHR")
        _require(
            self.size_bytes % (self.ways * self.line_bytes * self.tiles) == 0,
            f"{self.name}: size {self.size_bytes} not divisible into "
            f"{self.tiles} tiles x {self.ways} ways x {self.line_bytes}B lines",
        )

    @property
    def num_sets(self) -> int:
        """Sets per tile."""
        return self.size_bytes // (self.ways * self.line_bytes * self.tiles)

    @property
    def num_lines(self) -> int:
        """Total cache lines across all tiles."""
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class BranchPredictorConfig:
    """A gshare predictor (the paper's CPU uses gshare; the GPU stalls)."""

    kind: str = "gshare"
    history_bits: int = 12
    table_entries: int = 4096

    def __post_init__(self) -> None:
        _require(self.kind in ("gshare", "none"), f"unknown predictor kind {self.kind!r}")
        _require(_is_pow2(self.table_entries), "predictor table must be a power of two")
        _require(
            0 < self.history_bits <= 32,
            f"history bits out of range: {self.history_bits}",
        )


@dataclass(frozen=True)
class CpuConfig:
    """The Sandy-Bridge-like out-of-order CPU core (Table II, CPU column)."""

    num_cores: int = 1
    frequency: Frequency = Frequency(3.5 * GHZ)
    issue_width: int = 4
    rob_entries: int = 168
    branch_predictor: BranchPredictorConfig = BranchPredictorConfig()
    branch_mispredict_penalty: int = 14
    l1d: CacheConfig = CacheConfig("cpu.l1d", 32 * KB, ways=8, latency=2)
    l1i: CacheConfig = CacheConfig("cpu.l1i", 32 * KB, ways=8, latency=2)
    l2: CacheConfig = CacheConfig("cpu.l2", 256 * KB, ways=8, latency=8)

    def __post_init__(self) -> None:
        _require(self.num_cores >= 1, "need at least one CPU core")
        _require(self.issue_width >= 1, "issue width must be >= 1")
        _require(self.rob_entries >= self.issue_width, "ROB smaller than issue width")
        _require(self.branch_mispredict_penalty >= 0, "penalty must be non-negative")


@dataclass(frozen=True)
class GpuConfig:
    """The Fermi-like in-order SIMD GPU core (Table II, GPU column).

    The GPU has no L2 of its own in the baseline; it reaches the shared L3
    over the ring. ``smem_bytes`` is the 16 KB software-managed cache.
    """

    num_cores: int = 1
    frequency: Frequency = Frequency(1.5 * GHZ)
    simd_width: int = 8
    warps_per_core: int = 16
    stall_on_branch: bool = True
    branch_stall_cycles: int = 4
    l1d: CacheConfig = CacheConfig("gpu.l1d", 32 * KB, ways=8, latency=2)
    l1i: CacheConfig = CacheConfig("gpu.l1i", 4 * KB, ways=4, latency=1)
    smem_bytes: int = 16 * KB
    smem_latency: int = 2

    def __post_init__(self) -> None:
        _require(self.num_cores >= 1, "need at least one GPU core")
        _require(_is_pow2(self.simd_width), "SIMD width must be a power of two")
        _require(self.warps_per_core >= 1, "need at least one warp")
        _require(self.smem_bytes >= 0, "smem size must be non-negative")
        _require(self.branch_stall_cycles >= 0, "branch stall must be non-negative")


@dataclass(frozen=True)
class InterconnectConfig:
    """The ring-bus network joining cores, L3 tiles, and DRAM controllers."""

    kind: str = "ring"
    hop_latency: int = 2
    link_bytes_per_cycle: int = 32
    frequency: Frequency = Frequency(3.5 * GHZ)

    def __post_init__(self) -> None:
        _require(self.kind in ("ring", "crossbar"), f"unknown interconnect {self.kind!r}")
        _require(self.hop_latency >= 0, "hop latency must be non-negative")
        _require(self.link_bytes_per_cycle >= 1, "link width must be >= 1 byte")


@dataclass(frozen=True)
class DramConfig:
    """DDR3-1333, 4 controllers, 41.6 GB/s aggregate, FR-FCFS scheduling."""

    kind: str = "ddr3-1333"
    num_controllers: int = 4
    banks_per_controller: int = 8
    row_bytes: int = 8 * KB
    bandwidth: Bandwidth = Bandwidth.from_gb_per_s(41.6)
    scheduler: str = "fr-fcfs"
    # DDR3-1333 core timings in DRAM-clock cycles (667 MHz command clock).
    t_cl: int = 9
    t_rcd: int = 9
    t_rp: int = 9
    t_ras: int = 24
    frequency: Frequency = Frequency(667_000_000.0)
    queue_depth: int = 32

    def __post_init__(self) -> None:
        _require(self.num_controllers >= 1, "need at least one DRAM controller")
        _require(_is_pow2(self.banks_per_controller), "banks must be a power of two")
        _require(_is_pow2(self.row_bytes), "row size must be a power of two")
        _require(self.scheduler in ("fr-fcfs", "fcfs"), f"unknown scheduler {self.scheduler!r}")
        for name in ("t_cl", "t_rcd", "t_rp", "t_ras"):
            _require(getattr(self, name) >= 1, f"{name} must be >= 1")
        _require(self.queue_depth >= 1, "queue depth must be >= 1")


@dataclass(frozen=True)
class SystemConfig:
    """The full baseline machine of Table II.

    The shared L3 (32-way, 8 MB, 4 tiles, 20-cycle) sits between both PUs'
    private hierarchies and DRAM. ``name`` labels the configuration in
    reports.
    """

    name: str = "baseline"
    cpu: CpuConfig = CpuConfig()
    gpu: GpuConfig = GpuConfig()
    l3: CacheConfig = CacheConfig("l3", 8 * MB, ways=32, latency=20, tiles=4)
    interconnect: InterconnectConfig = InterconnectConfig()
    dram: DramConfig = DramConfig()
    page_bytes_cpu: int = 4 * KB
    page_bytes_gpu: int = 64 * KB
    physical_memory_bytes: int = 4 * GB

    def __post_init__(self) -> None:
        _require(_is_pow2(self.page_bytes_cpu), "CPU page size must be a power of two")
        _require(_is_pow2(self.page_bytes_gpu), "GPU page size must be a power of two")
        _require(
            self.physical_memory_bytes >= self.l3.size_bytes,
            "physical memory smaller than the L3",
        )

    def __hash__(self) -> int:
        """The field-tuple hash, computed once per instance: a system keys
        every result memo entry simulated on it."""
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = hash(
                tuple(self.__dict__[name] for name in _SYSTEM_FIELDS)
            )
        return value

    def __getstate__(self) -> Dict[str, object]:
        """The fields only: the stored hash never reaches a pickle or a
        store key."""
        return {name: self.__dict__[name] for name in _SYSTEM_FIELDS}

    def with_name(self, name: str) -> "SystemConfig":
        """Return a copy of this configuration under a different label."""
        return replace(self, name=name)

    def clock_of(self, pu: str) -> Frequency:
        """Frequency of the named processing unit (``"cpu"`` or ``"gpu"``)."""
        if pu == "cpu":
            return self.cpu.frequency
        if pu == "gpu":
            return self.gpu.frequency
        raise ConfigError(f"unknown processing unit {pu!r}")

    def table_rows(self) -> Tuple[Tuple[str, str, str], ...]:
        """Render the Table II content as (parameter, CPU, GPU) rows."""
        cpu, gpu = self.cpu, self.gpu
        return (
            ("# cores", str(cpu.num_cores), str(gpu.num_cores)),
            (
                "Execution engine",
                f"{cpu.frequency}, out-of-order",
                f"{gpu.frequency}, in-order, {gpu.simd_width}-wide SIMD",
            ),
            (
                "Branch predictor",
                cpu.branch_predictor.kind,
                "N/A (stall on branch)" if gpu.stall_on_branch else "none",
            ),
            (
                "L1",
                f"{cpu.l1d.ways}-way {cpu.l1d.size_bytes // KB}KB L1 Dcache "
                f"({cpu.l1d.latency}-cycle), "
                f"{cpu.l1i.ways}-way {cpu.l1i.size_bytes // KB}KB L1 Icache "
                f"({cpu.l1i.latency}-cycle)",
                f"{gpu.l1d.ways}-way {gpu.l1d.size_bytes // KB}KB L1 Dcache "
                f"({gpu.l1d.latency}-cycle), "
                f"{gpu.l1i.ways}-way {gpu.l1i.size_bytes // KB}KB L1 Icache "
                f"({gpu.l1i.latency}-cycle), "
                f"{gpu.smem_bytes // KB}KB s/w managed cache",
            ),
            (
                "L2",
                f"{cpu.l2.ways}-way {cpu.l2.size_bytes // KB}KB L2 Cache "
                f"({cpu.l2.latency}-cycle)",
                "N/A",
            ),
            (
                "L3",
                f"{self.l3.ways}-way {self.l3.size_bytes // MB}MB L3 Cache "
                f"({self.l3.tiles} tiles, {self.l3.latency}-cycle)",
                "(shared)",
            ),
            ("Interconnection", f"{self.interconnect.kind}-bus network", "(shared)"),
            (
                "DRAM",
                f"{self.dram.kind.upper()}, {self.dram.num_controllers} controllers, "
                f"{self.dram.bandwidth} bandwidth, {self.dram.scheduler.upper()}",
                "(shared)",
            ),
        )


_SYSTEM_FIELDS = tuple(f.name for f in fields(SystemConfig))


def baseline_system() -> SystemConfig:
    """The Table II machine with all defaults."""
    return SystemConfig()
