"""Tests for the CPU and GPU core timing models."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import CpuConfig, GpuConfig
from repro.errors import SimulationError
from repro.mem.level import FixedLatencyMemory
from repro.perf.compiled import EV_COMPUTE_RUN, EV_MEMORY, CompiledSegment
from repro.sim.cpu.core import CpuCore
from repro.sim.gpu.core import GpuCore
from repro.sim.gpu.smem import Scratchpad
from repro.sim.reference import cpu_steps, gpu_steps, run_segment
from repro.taxonomy import ProcessingUnit
from repro.trace.instruction import Instruction
from repro.trace.mix import InstructionMix
from repro.trace.phase import Segment


def compute_stream(n):
    return [Instruction.compute() for _ in range(n)]


def load_stream(n, stride=64):
    return [Instruction.load(i * stride) for i in range(n)]


FAST_MEM = 1e-10  # effectively an always-hitting L1


class TestCpuCore:
    def make(self, latency=FAST_MEM, mlp=4.0):
        return CpuCore(CpuConfig(), FixedLatencyMemory(latency), mlp=mlp)

    def test_issue_width_bounds_throughput(self):
        core = self.make()
        cycles = run_segment(core, compute_stream(400))
        assert cycles == pytest.approx(100, abs=2)  # 4-wide issue

    def test_memory_stalls_slow_execution(self):
        fast = self.make(latency=FAST_MEM)
        slow = self.make(latency=100e-9)
        fast_cycles = run_segment(fast, load_stream(100))
        slow_cycles = run_segment(slow, load_stream(100))
        assert slow_cycles > fast_cycles * 2

    def test_mlp_divides_stall(self):
        no_mlp = CpuCore(CpuConfig(), FixedLatencyMemory(100e-9), mlp=1.0)
        high_mlp = CpuCore(CpuConfig(), FixedLatencyMemory(100e-9), mlp=8.0)
        base = run_segment(no_mlp, load_stream(64))
        overlapped = run_segment(high_mlp, load_stream(64))
        assert overlapped < base / 2

    def test_branch_mispredictions_cost_cycles(self):
        import random

        rng = random.Random(7)
        predictable = [Instruction.branch(True) for _ in range(500)]
        noisy = [Instruction.branch(rng.random() < 0.5) for _ in range(500)]
        core_a, core_b = self.make(), self.make()
        cheap = run_segment(core_a, predictable)
        costly = run_segment(core_b, noisy)
        assert costly > cheap

    def test_instruction_count_tracked(self):
        core = self.make()
        run_segment(core, compute_stream(123))
        assert core.instructions_retired == 123

    def test_rejects_mlp_below_one(self):
        with pytest.raises(SimulationError):
            CpuCore(CpuConfig(), FixedLatencyMemory(0.0), mlp=0.5)

    def test_stats_keys(self):
        core = self.make()
        run_segment(core, load_stream(10))
        stats = core.stats()
        assert set(stats) >= {"instructions", "memory_stall_cycles", "branch_stall_cycles"}


class TestGpuCore:
    def make(self, latency=FAST_MEM, warps=None):
        return GpuCore(GpuConfig(), FixedLatencyMemory(latency), latency_hiding_warps=warps)

    def test_in_order_cpi_one(self):
        core = self.make()
        cycles = run_segment(core, compute_stream(400))
        assert cycles == 400

    def test_stall_on_every_branch(self):
        core = self.make()
        branches = [Instruction.branch(True) for _ in range(100)]
        cycles = run_segment(core, branches)
        assert cycles == 100 * (1 + GpuConfig().branch_stall_cycles)

    def test_warps_hide_memory_latency(self):
        single = self.make(latency=400e-9, warps=1)
        many = self.make(latency=400e-9, warps=16)
        slow = run_segment(single, load_stream(32))
        fast = run_segment(many, load_stream(32))
        assert fast < slow / 4

    def test_scratchpad_bypasses_memory(self):
        backing = FixedLatencyMemory(1e-6)
        core = GpuCore(GpuConfig(), backing)
        core.push(0x0, 4096)
        cycles = run_segment(core, load_stream(32, stride=64))
        assert backing.stats()["accesses"] == 0
        assert core.scratchpad_hits == 32
        assert cycles < 32 * 4  # smem latency, not memory latency

    def test_rejects_zero_warps(self):
        with pytest.raises(SimulationError):
            self.make(warps=0)


class TestScratchpad:
    def test_capacity_enforced_by_eviction(self):
        pad = Scratchpad(capacity_bytes=1024)
        pad.push(0x0, 512)
        pad.push(0x1000, 512)
        pad.push(0x2000, 512)  # evicts the oldest
        assert not pad.contains(0x0)
        assert pad.contains(0x1000)
        assert pad.contains(0x2000)
        assert pad.evicted_regions == 1

    def test_oversized_region_rejected(self):
        from repro.errors import LocalityError

        pad = Scratchpad(capacity_bytes=256)
        with pytest.raises(LocalityError):
            pad.push(0, 512)

    def test_access_hit_and_miss(self):
        pad = Scratchpad(capacity_bytes=1024, latency_cycles=3)
        pad.push(0x100, 64)
        assert pad.access(0x120) == 3
        assert pad.access(0x200) is None

    def test_repush_same_base_replaces(self):
        pad = Scratchpad(capacity_bytes=1024)
        pad.push(0x0, 256)
        pad.push(0x0, 512)
        assert pad.used_bytes == 512

    def test_clear(self):
        pad = Scratchpad(capacity_bytes=1024)
        pad.push(0x0, 256)
        pad.clear()
        assert not pad.contains(0x0)


class TestComputeRunsAddExactly:
    """A compute run adds its count in one go only when that sum is
    exact; otherwise one ``1.0`` at a time, as the reference loop does."""

    @given(
        cycles=st.floats(min_value=0.0, max_value=2.0**52, allow_nan=False),
        count=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=500, deadline=None)
    def test_the_one_addition_rule_equals_repeated_addition(self, cycles, count):
        total = cycles + count
        looped = cycles
        for _ in range(count):
            looped += 1.0
        if cycles.is_integer() or (cycles >= count and total - cycles == count):
            assert total == looped

    @pytest.mark.parametrize("leading", [False, True])
    @pytest.mark.parametrize("pu", [ProcessingUnit.CPU, ProcessingUnit.GPU])
    @given(
        latency=st.floats(min_value=1e-10, max_value=1e-7),
        run=st.integers(min_value=8, max_value=3000),
    )
    @settings(max_examples=60, deadline=None)
    def test_long_run_after_a_fractional_stall(self, pu, leading, latency, run):
        # A run longer than the count so far: one addition would round
        # once where the reference rounds at every power of two crossed.
        # A leading run starts from a whole count and adds in one step.
        segment = Segment(pu=pu, mix=InstructionMix(loads=1, int_alu=run), footprint_bytes=64)
        events = [(EV_MEMORY, 0, 4, False), (EV_COMPUTE_RUN, run, 0, 0)]
        stream = [Instruction.load(0)] + compute_stream(run)
        if leading:
            events.reverse()
            stream.reverse()
        outcomes = []
        for production in (True, False):
            memory = FixedLatencyMemory(latency)
            if pu is ProcessingUnit.CPU:
                core, steps = CpuCore(CpuConfig(), memory), cpu_steps
            else:
                core, steps = GpuCore(GpuConfig(), memory), gpu_steps
            if production:
                counts = core.step_compiled(CompiledSegment(segment, run + 1, events))
            else:
                counts = steps(core, stream)
            *_, cycles = counts
            outcomes.append((cycles, core.stats()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("pu", [ProcessingUnit.CPU, ProcessingUnit.GPU])
    def test_run_from_a_whole_count_is_one_addition(self, pu):
        # Counts the stepper's executed lines: adding one wrap at a time
        # would run its loop body once per wrap.
        run = 4000
        segment = Segment(pu=pu, mix=InstructionMix(int_alu=run), footprint_bytes=64)
        compiled = CompiledSegment(segment, run, [(EV_COMPUTE_RUN, run, 0, 0)])
        if pu is ProcessingUnit.CPU:
            core = CpuCore(CpuConfig(), FixedLatencyMemory(FAST_MEM))
            expected = run // CpuConfig().issue_width
        else:
            core = GpuCore(GpuConfig(), FixedLatencyMemory(FAST_MEM))
            expected = run
        lines = []

        def tracer(frame, event, arg):
            if frame.f_code.co_name == "step_compiled":
                lines.append(event)
                return tracer
            return None

        sys.settrace(tracer)
        try:
            *_, cycles = core.step_compiled(compiled)
        finally:
            sys.settrace(None)
        assert cycles == float(expected)
        assert len(lines) < 100
