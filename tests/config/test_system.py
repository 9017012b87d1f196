"""Tests for the Table II system configuration."""

import hashlib
import pickle
from dataclasses import fields, replace

import pytest

from repro.config.system import (
    BranchPredictorConfig,
    CacheConfig,
    CpuConfig,
    DramConfig,
    GpuConfig,
    InterconnectConfig,
    SystemConfig,
    baseline_system,
)
from repro.errors import ConfigError
from repro.store.keys import PICKLE_PROTOCOL, stable_digest
from repro.units import GHZ, KB, MB


class TestCacheConfig:
    def test_num_sets(self):
        cfg = CacheConfig("c", 32 * KB, ways=8, line_bytes=64)
        assert cfg.num_sets == 64

    def test_tiled_sets_are_per_tile(self):
        cfg = CacheConfig("l3", 8 * MB, ways=32, tiles=4)
        assert cfg.num_sets == 8 * MB // (32 * 64 * 4)

    def test_num_lines(self):
        cfg = CacheConfig("c", 32 * KB, ways=8)
        assert cfg.num_lines == 512

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig("c", 1000, ways=3)

    def test_rejects_non_pow2_line(self):
        with pytest.raises(ConfigError):
            CacheConfig("c", 32 * KB, ways=8, line_bytes=48)

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigError):
            CacheConfig("c", 32 * KB, ways=8, latency=0)


class TestBaselineMatchesTable2:
    """The default configuration must be exactly the paper's Table II."""

    def test_cpu(self, system):
        assert system.cpu.num_cores == 1
        assert system.cpu.frequency.hertz == pytest.approx(3.5 * GHZ)
        assert system.cpu.l1d.size_bytes == 32 * KB
        assert system.cpu.l1d.ways == 8
        assert system.cpu.l1d.latency == 2
        assert system.cpu.l2.size_bytes == 256 * KB
        assert system.cpu.l2.latency == 8
        assert system.cpu.branch_predictor.kind == "gshare"

    def test_gpu(self, system):
        assert system.gpu.num_cores == 1
        assert system.gpu.frequency.hertz == pytest.approx(1.5 * GHZ)
        assert system.gpu.simd_width == 8
        assert system.gpu.stall_on_branch
        assert system.gpu.l1i.size_bytes == 4 * KB
        assert system.gpu.l1i.latency == 1
        assert system.gpu.smem_bytes == 16 * KB

    def test_l3(self, system):
        assert system.l3.size_bytes == 8 * MB
        assert system.l3.ways == 32
        assert system.l3.tiles == 4
        assert system.l3.latency == 20

    def test_dram(self, system):
        assert system.dram.num_controllers == 4
        assert system.dram.bandwidth.bytes_per_second == pytest.approx(41.6e9)
        assert system.dram.scheduler == "fr-fcfs"

    def test_interconnect_is_ring(self, system):
        assert system.interconnect.kind == "ring"

    def test_table_rows_render(self, system):
        rows = system.table_rows()
        assert any("out-of-order" in cell for row in rows for cell in row)
        assert any("8-wide SIMD" in cell for row in rows for cell in row)
        assert any("FR-FCFS" in cell for row in rows for cell in row)


class TestSystemConfig:
    def test_clock_of(self, system):
        assert system.clock_of("cpu") is system.cpu.frequency
        assert system.clock_of("gpu") is system.gpu.frequency

    def test_clock_of_unknown(self, system):
        with pytest.raises(ConfigError):
            system.clock_of("dsp")

    def test_with_name(self, system):
        named = system.with_name("variant")
        assert named.name == "variant"
        assert named.cpu == system.cpu

    def test_baseline_system_helper(self):
        assert baseline_system() == SystemConfig()

    def test_frozen(self, system):
        with pytest.raises(Exception):
            system.name = "x"


class TestValidation:
    def test_rejects_tiny_physical_memory(self):
        with pytest.raises(ConfigError):
            SystemConfig(physical_memory_bytes=1 * MB)

    def test_rejects_bad_page_size(self):
        with pytest.raises(ConfigError):
            SystemConfig(page_bytes_cpu=3000)

    def test_rejects_bad_predictor(self):
        with pytest.raises(ConfigError):
            BranchPredictorConfig(kind="perceptron")

    def test_rejects_bad_dram_scheduler(self):
        with pytest.raises(ConfigError):
            DramConfig(scheduler="random")

    def test_rejects_bad_interconnect(self):
        with pytest.raises(ConfigError):
            InterconnectConfig(kind="mesh")

    def test_rejects_rob_smaller_than_issue(self):
        with pytest.raises(ConfigError):
            CpuConfig(issue_width=8, rob_entries=4)

    def test_rejects_non_pow2_simd(self):
        with pytest.raises(ConfigError):
            GpuConfig(simd_width=6)


class TestHash:
    """The stored hash equals the field-tuple hash and stays out of
    equality, repr, pickles and store keys."""

    @staticmethod
    def field_tuple(config):
        return tuple(getattr(config, f.name) for f in fields(config))

    @pytest.mark.parametrize(
        "config",
        [SystemConfig(), SystemConfig(name="wide", gpu=GpuConfig(num_cores=4))],
        ids=["baseline", "wide"],
    )
    def test_memo_is_out_of_eq_hash_repr_pickle_and_store_keys(self, config):
        before = (pickle.dumps(config, protocol=PICKLE_PROTOCOL), repr(config))
        assert hash(config) == hash(self.field_tuple(config))
        assert "_hash" in vars(config)
        assert (pickle.dumps(config, protocol=PICKLE_PROTOCOL), repr(config)) == before
        assert stable_digest(config) == hashlib.sha256(before[0]).hexdigest()
        twin = replace(config)
        assert twin == config and hash(twin) == hash(config)
        copy = pickle.loads(before[0])
        assert "_hash" not in vars(copy)
        assert copy == config and hash(copy) == hash(config)
