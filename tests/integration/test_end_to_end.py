"""End-to-end integration tests spanning multiple subsystems."""

import pytest

from repro import (
    DetailedSimulator,
    FastSimulator,
    case_study,
    kernel,
)
from repro.addrspace.base import make_address_space
from repro.analysis.compare import compare_all
from repro.core.explorer import Explorer
from repro.core.space import DesignSpace
from repro.locality.manager import LocalityManager
from repro.mem.cache.replacement import HybridLocalityPolicy
from repro.progmodel.interpreter import Interpreter
from repro.progmodel.lowering import lower
from repro.progmodel.spec import program_spec
from repro.sim.system import build_machine
from repro.taxonomy import AddressSpaceKind, LocalityScheme, ProcessingUnit


class TestHeadlineReproduction:
    """The paper's three conclusions, end to end."""

    def test_conclusion_1_programmability_ordering(self):
        from repro.core.programmability import programmability_rank

        order = programmability_rank()
        assert order.index(AddressSpaceKind.UNIFIED) == 0
        assert order.index(AddressSpaceKind.PARTIALLY_SHARED) < order.index(
            AddressSpaceKind.DISJOINT
        )

    def test_conclusion_2_spaces_and_comm_decoupled(self):
        """Changing address space barely moves performance (Figure 7)
        while changing the communication mechanism moves it a lot
        (Figures 5/6)."""
        sim = FastSimulator()
        trace = kernel("reduction").trace()
        from repro.comm.base import IdealChannel

        space_totals = [
            sim.run(trace, channel=IdealChannel(), address_space=s).total_seconds
            for s in AddressSpaceKind
        ]
        space_spread = max(space_totals) / min(space_totals)

        comm_totals = [
            sim.run(trace, case=case_study(n)).total_seconds
            for n in ("CPU+GPU", "Fusion")
        ]
        comm_spread = max(comm_totals) / min(comm_totals)
        assert space_spread < 1.01
        assert comm_spread > 1.1

    def test_conclusion_3_pas_most_versatile(self):
        assert (
            DesignSpace().most_versatile_address_space()
            is AddressSpaceKind.PARTIALLY_SHARED
        )

    def test_all_30_paper_checks(self):
        checks = compare_all()
        assert all(c.passed for c in checks)


class TestProgramToSimulationPipeline:
    """Lowered program -> interpreter -> address space -> simulator."""

    @pytest.mark.parametrize("kind", list(AddressSpaceKind))
    def test_lower_execute_simulate(self, kind):
        spec = program_spec("reduction")
        program = lower(spec, kind)
        log = Interpreter().execute(program)
        assert log.kernel_launches == spec.gpu_call_sites

        sim = FastSimulator()
        from repro.comm.base import IdealChannel

        result = sim.run(
            kernel("reduction").trace(),
            channel=IdealChannel(),
            address_space=kind,
        )
        assert result.total_seconds > 0


class TestDetailedMachineWithLocality:
    def test_lrb_style_run_with_hybrid_l3_and_pushes(self):
        """Build the full machine, push hot data, run a scaled kernel."""
        policy = HybridLocalityPolicy(ways=32, max_explicit_ways=16)
        machine = build_machine(l3_policy=policy)
        manager = LocalityManager(
            machine,
            LocalityScheme.HYBRID_SHARED,
            AddressSpaceKind.PARTIALLY_SHARED,
        )
        manager.push(0x3000_0000, 4096, "S")
        manager.push(0x1000, 2048, "GPU.P")

        sim = DetailedSimulator(l3_policy=HybridLocalityPolicy(ways=32))
        result = sim.run(kernel("reduction").trace(), case=case_study("LRB"), scale=0.02)
        assert result.total_seconds > 0
        assert machine.l3.is_explicit(0x3000_0000)

    def test_coherent_machine_invalidates_across_pus(self):

        machine = build_machine(coherence="directory")
        shared = 0x3000_0000
        machine.cpu_core.memory.access(shared, is_write=False)
        machine.gpu_core.memory.access(shared, is_write=True)
        assert machine.directory.invalidations_sent == 1
        # CPU's private copy must be gone.
        assert not machine.cpu_l1d.contains(shared)


class TestExplorerConsistency:
    def test_explorer_and_direct_sim_agree(self):
        explorer = Explorer()
        results = explorer.run_case_studies(kernels=[kernel("dct")])
        direct = FastSimulator().run(kernel("dct").trace(), case=case_study("LRB"))
        assert results["dct"]["LRB"].total_seconds == pytest.approx(
            direct.total_seconds
        )


class TestAddressSpaceEndToEnd:
    def test_disjoint_workflow_figure3a(self):
        """Allocate, alias, 'copy', compute, free — the Figure 3(a) flow
        against the real allocator/page tables."""
        space = make_address_space(AddressSpaceKind.DISJOINT)
        a = space.alloc("a", 1024, pu=ProcessingUnit.CPU)
        gpu_a = space.alloc_device_copy(a, ProcessingUnit.GPU)
        assert space.transfer_required(a, ProcessingUnit.GPU)
        space.check_access(ProcessingUnit.GPU, gpu_a.addr)
        space.free(gpu_a)
        space.free(a)
        assert not space.live_allocations()

    def test_pas_workflow_figure2b(self):
        space = make_address_space(AddressSpaceKind.PARTIALLY_SHARED)
        for name in ("a", "b", "c"):
            space.alloc(name, 1024, shared=True)
        space.ownership.release(["a", "b", "c"], by=ProcessingUnit.CPU)
        space.ownership.acquire(["a", "b", "c"], by=ProcessingUnit.GPU)
        space.check_object_access("a", ProcessingUnit.GPU)
        space.ownership.acquire(["c"], by=ProcessingUnit.CPU)
        space.check_object_access("c", ProcessingUnit.CPU)
