"""Tests for the MMU front-end and trace staging."""

import pytest

from repro.addrspace.base import make_address_space
from repro.config.presets import case_study
from repro.errors import AccessViolationError
from repro.kernels.registry import kernel
from repro.mem.level import FixedLatencyMemory
from repro.sim.detailed import DetailedSimulator
from repro.sim.mmu import TranslationFront, stage_trace
from repro.taxonomy import AddressSpaceKind, ProcessingUnit

CPU, GPU = ProcessingUnit.CPU, ProcessingUnit.GPU


def make_front(kind=AddressSpaceKind.UNIFIED, pu=CPU, **kwargs):
    space = make_address_space(kind)
    below = FixedLatencyMemory(10e-9)
    return TranslationFront(pu, space, below, **kwargs), space, below


class TestTranslationFront:
    def test_first_access_walks_and_faults(self):
        front, space, _ = make_front()
        addr = 0x1000_0000
        latency = front.access(addr)
        assert front.walks == 1
        assert front.faults_serviced == 1
        assert latency > 10e-9

    def test_second_access_hits_tlb(self):
        front, _, _ = make_front()
        addr = 0x1000_0000
        front.access(addr)
        second = front.access(addr + 4)
        assert front.tlb.hits == 1
        assert second == pytest.approx(10e-9)

    def test_mapped_page_walks_without_fault(self):
        front, space, _ = make_front()
        allocation = space.alloc("buf", 4096, pu=CPU)
        front.access(allocation.addr)
        assert front.walks == 1
        assert front.faults_serviced == 0

    def test_reachability_enforced(self):
        """A GPU touching CPU-private memory under a disjoint space raises,
        exactly like the address-space model demands."""
        front, space, _ = make_front(AddressSpaceKind.DISJOINT, pu=GPU)
        cpu_buf = space.alloc("host", 4096, pu=CPU)
        with pytest.raises(AccessViolationError):
            front.access(cpu_buf.addr)

    def test_stats(self):
        front, _, _ = make_front()
        front.access(0x1000_0000)
        stats = front.stats()
        assert stats["walks"] == 1
        assert stats["translation_latency_s"] > 0


class TestStageTrace:
    @pytest.mark.parametrize("kind", list(AddressSpaceKind))
    def test_staged_segments_are_reachable(self, kind):
        space = make_address_space(kind)
        staged = stage_trace(kernel("reduction").trace(), space)
        for phase in staged.parallel_phases:
            space.check_access(CPU, phase.cpu.base_addr)
            space.check_access(GPU, phase.gpu.base_addr)
        for phase in staged.sequential_phases:
            space.check_access(CPU, phase.segment.base_addr)

    def test_staging_preserves_structure(self):
        space = make_address_space(AddressSpaceKind.DISJOINT)
        base = kernel("k-mean").trace()
        staged = stage_trace(base, space)
        assert staged.cpu_instructions == base.cpu_instructions
        assert staged.gpu_instructions == base.gpu_instructions
        assert staged.num_communications == base.num_communications

    def test_buffers_deduplicated_across_phases(self):
        """k-means touches the same regions in all three iterations; the
        staging must allocate each once."""
        space = make_address_space(AddressSpaceKind.ADSM)
        before = len(space.live_allocations())
        stage_trace(kernel("k-mean").trace(), space)
        created = len(space.live_allocations()) - before
        # 2 parallel regions + 2 serial regions (update uses one region).
        assert created <= 4

    def test_pas_stages_gpu_data_in_shared_window(self):
        space = make_address_space(AddressSpaceKind.PARTIALLY_SHARED)
        staged = stage_trace(kernel("reduction").trace(), space)
        gpu_base = staged.parallel_phases[0].gpu.base_addr
        assert space.is_shared_addr(gpu_base)


class TestDetailedSimWithMMU:
    @pytest.mark.parametrize("kind", list(AddressSpaceKind))
    def test_runs_under_every_space(self, kind):
        sim = DetailedSimulator()
        result = sim.run(
            kernel("reduction").trace(),
            case=case_study("CPU+GPU"),
            scale=0.02,
            address_space=kind,
        )
        assert result.total_seconds > 0
        assert result.counters["mmu.cpu.walks"] >= 1
        assert result.counters["mmu.gpu.walks"] >= 1

    def test_translation_overhead_is_small(self):
        """Figure 7 at detailed fidelity: the MMU's cost is noise."""
        sim = DetailedSimulator()
        trace = kernel("reduction").trace()
        without = sim.run(trace, case=case_study("CPU+GPU"), scale=0.05)
        with_mmu = sim.run(
            trace,
            case=case_study("CPU+GPU"),
            scale=0.05,
            address_space=AddressSpaceKind.UNIFIED,
        )
        assert with_mmu.total_seconds < without.total_seconds * 1.1

    def test_no_mmu_by_default(self):
        sim = DetailedSimulator()
        result = sim.run(kernel("reduction").trace(), case=case_study("CPU+GPU"), scale=0.02)
        assert sim.last_mmus is None
        assert not any(k.startswith("mmu") for k in result.counters)
