"""Tests for the warp-scheduled GPU execution mode."""

import pytest

from repro.config.system import GpuConfig
from repro.errors import SimulationError
from repro.mem.level import FixedLatencyMemory
from repro.sim.gpu.core import GpuCore
from repro.sim.reference import run_segment
from repro.trace.instruction import Instruction


def compute_stream(n):
    return [Instruction.compute(simd=True) for _ in range(n)]


def load_stream(n, stride=64):
    return [Instruction.load(i * stride, simd=True) for i in range(n)]


def make(mode, latency=1e-10, warps=16):
    return GpuCore(
        GpuConfig(), FixedLatencyMemory(latency), latency_hiding_warps=warps, mode=mode
    )


class TestWarpScheduler:
    def test_compute_bound_cpi_one(self):
        core = make("warp")
        cycles = run_segment(core, compute_stream(500))
        assert cycles == pytest.approx(500, abs=2)

    def test_latency_hiding_emerges_with_many_warps(self):
        """With enough warps, a memory-heavy stream approaches one
        instruction per cycle despite long latencies."""
        latency = 100e-9  # 150 GPU cycles
        single = make("warp", latency=latency, warps=1)
        many = make("warp", latency=latency, warps=64)
        n = 128
        serialized = run_segment(single, load_stream(n))
        hidden = run_segment(many, load_stream(n))
        assert serialized > n * 50  # essentially one latency per access
        assert hidden < serialized / 10

    def test_one_warp_serializes(self):
        latency = 100e-9
        core = make("warp", latency=latency, warps=1)
        cycles = run_segment(core, load_stream(16))
        # Each access pays nearly its full latency back-to-back.
        assert cycles > 16 * 100

    def test_drain_includes_last_warp(self):
        """The final memory latency is not cut off at the last issue."""
        core = make("warp", latency=200e-9, warps=4)
        cycles = run_segment(core, load_stream(4))
        assert cycles >= 200e-9 * core.config.frequency.hertz * 0.9

    def test_scratchpad_still_works(self):
        backing = FixedLatencyMemory(1e-6)
        core = GpuCore(GpuConfig(), backing, mode="warp")
        core.push(0x0, 4096)
        run_segment(core, load_stream(32))
        assert backing.stats()["accesses"] == 0
        assert core.scratchpad_hits == 32

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            make("simt")

    def test_instruction_count(self):
        core = make("warp")
        run_segment(core, compute_stream(123))
        assert core.instructions_retired == 123


class TestModeAgreement:
    """The heuristic and warp-scheduled modes must tell the same story."""

    def test_agree_on_compute_bound(self):
        h = run_segment(make("heuristic"), compute_stream(1000))
        w = run_segment(make("warp"), compute_stream(1000))
        assert abs(h - w) <= 2

    def test_agree_within_2x_on_memory_bound(self):
        latency = 50e-9
        h = run_segment(make("heuristic", latency=latency), load_stream(256))
        w = run_segment(make("warp", latency=latency), load_stream(256))
        assert 0.5 < w / h < 2.0

    def test_both_monotone_in_warps(self):
        latency = 100e-9
        for mode in ("heuristic", "warp"):
            few = run_segment(make(mode, latency=latency, warps=2), load_stream(64))
            many = run_segment(make(mode, latency=latency, warps=32), load_stream(64))
            assert many < few

    def test_detailed_sim_agrees_across_modes(self):
        from repro.config.presets import case_study
        from repro.kernels.registry import kernel
        from repro.sim.detailed import DetailedSimulator

        trace = kernel("reduction").trace().scaled(0.03)
        h = DetailedSimulator(gpu_mode="heuristic").run(trace, case=case_study("Fusion"))
        w = DetailedSimulator(gpu_mode="warp").run(trace, case=case_study("Fusion"))
        assert 0.4 < w.total_seconds / h.total_seconds < 2.0
        # Communication is GPU-mode independent.
        assert w.breakdown.communication == pytest.approx(h.breakdown.communication)
