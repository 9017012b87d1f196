"""Tests for the interleaving engine."""

import pytest

from repro.config.system import CpuConfig, GpuConfig
from repro.mem.level import FixedLatencyMemory
from repro.perf.compiled import compile_segment
from repro.sim.cpu.core import CpuCore
from repro.sim.engine import ParallelOutcome, run_parallel_interleaved
from repro.sim.gpu.core import GpuCore
from repro.taxonomy import ProcessingUnit
from repro.trace.mix import InstructionMix
from repro.trace.phase import Segment


def make_cores():
    cpu = CpuCore(CpuConfig(), FixedLatencyMemory(1e-9))
    gpu = GpuCore(GpuConfig(), FixedLatencyMemory(1e-9))
    return cpu, gpu


def seg(pu, total, footprint=4096):
    loads = total // 4
    if pu is ProcessingUnit.GPU:
        mix = InstructionMix(simd_loads=loads, simd_alu=total - loads)
    else:
        mix = InstructionMix(loads=loads, int_alu=total - loads)
    return compile_segment(
        Segment(pu=pu, mix=mix, base_addr=0, footprint_bytes=footprint)
    )


def interleave(cpu, gpu, cpu_segment, gpu_segment):
    return run_parallel_interleaved(
        cpu.step_compiled(cpu_segment),
        gpu.step_compiled(gpu_segment),
        cpu.config.frequency,
        gpu.config.frequency,
    )


class TestOutcome:
    def test_seconds_is_max(self):
        outcome = ParallelOutcome(cpu_seconds=1.0, gpu_seconds=2.0)
        assert outcome.seconds == 2.0


class TestInterleaving:
    def test_both_sides_fully_executed(self):
        cpu, gpu = make_cores()
        interleave(cpu, gpu, seg(ProcessingUnit.CPU, 1000), seg(ProcessingUnit.GPU, 800))
        assert cpu.instructions_retired == 1000
        assert gpu.instructions_retired == 800

    def test_matches_sequential_timing_without_shared_state(self):
        """With private fixed-latency memories there is no contention, so
        interleaved and back-to-back execution must agree exactly."""
        cpu_a, gpu_a = make_cores()
        outcome = interleave(
            cpu_a, gpu_a, seg(ProcessingUnit.CPU, 2000), seg(ProcessingUnit.GPU, 1500)
        )
        cpu_b, gpu_b = make_cores()
        cpu_cycles = cpu_b.run_segment(seg(ProcessingUnit.CPU, 2000))
        gpu_cycles = gpu_b.run_segment(seg(ProcessingUnit.GPU, 1500))
        assert outcome.cpu_seconds == pytest.approx(
            cpu_b.config.frequency.cycles_to_seconds(
                cpu_cycles
            ),
            rel=1e-3,
        )
        assert outcome.gpu_seconds == pytest.approx(
            gpu_b.config.frequency.cycles_to_seconds(gpu_cycles), rel=1e-3
        )

    def test_empty_side_handled(self):
        cpu, gpu = make_cores()
        outcome = interleave(
            cpu,
            gpu,
            seg(ProcessingUnit.CPU, 0, footprint=0),
            seg(ProcessingUnit.GPU, 100),
        )
        assert outcome.cpu_seconds == 0.0
        assert outcome.gpu_seconds > 0.0

