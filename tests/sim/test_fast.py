"""Tests for the fast (segment-analytic) simulator."""

from dataclasses import replace

import pytest

from repro.config.comm import CommParams
from repro.config.presets import CASE_STUDIES, EXTENDED_CASE_STUDIES, case_study
from repro.config.system import CpuConfig, GpuConfig, SystemConfig
from repro.core.space import DesignSpace
from repro.errors import SimulationError
from repro.kernels.registry import all_kernels, kernel
from repro.perf.sweep import SweepPoint, SweepSimulator
from repro.sim.fast import SPACE_OVERHEAD_INSTRUCTIONS, FastSimulator
from repro.taxonomy import AddressSpaceKind, CommMechanism
from repro.units import GHZ, Frequency


def case_point(name):
    """An unlabeled point on a case study."""
    return SweepPoint(case=case_study(name))


def ideal(address_space=None):
    """An unlabeled point on the ideal channel."""
    return SweepPoint(mechanism=CommMechanism.IDEAL, address_space=address_space)


class TestBasicRuns:
    def test_requires_case_or_channel(self, fast_sim):
        with pytest.raises(SimulationError):
            fast_sim.run(kernel("reduction").trace(), SweepPoint())

    @pytest.mark.parametrize("k", all_kernels(), ids=lambda k: k.name)
    def test_all_kernels_all_cases(self, fast_sim, k):
        trace = k.trace()
        for name in ("CPU+GPU", "LRB", "GMAC", "Fusion", "IDEAL-HETERO"):
            result = fast_sim.run(trace, case_point(name))
            assert result.total_seconds > 0
            assert result.kernel == k.name
            assert result.system == name

    def test_breakdown_matches_phase_sum(self, fast_sim):
        result = fast_sim.run(kernel("reduction").trace(), case_point("CPU+GPU"))
        phase_total = sum(p.seconds for p in result.phases)
        assert phase_total == pytest.approx(result.total_seconds)

    def test_phase_kinds_cover_trace(self, fast_sim):
        trace = kernel("k-mean").trace()
        result = fast_sim.run(trace, case_point("LRB"))
        kinds = [p.kind for p in result.phases]
        assert kinds.count("communication") == trace.num_communications
        assert kinds.count("parallel") == len(trace.parallel_phases)
        assert kinds.count("sequential") == len(trace.sequential_phases)


class TestPaperShapes:
    def test_ideal_has_zero_communication(self, fast_sim):
        result = fast_sim.run(kernel("dct").trace(), case_point("IDEAL-HETERO"))
        assert result.breakdown.communication == 0.0

    def test_parallel_time_is_max_of_sides(self, fast_sim):
        result = fast_sim.run(kernel("matmul").trace(), case_point("IDEAL-HETERO"))
        for phase in result.phases:
            if phase.kind == "parallel":
                assert phase.seconds == pytest.approx(
                    max(phase.cpu_seconds, phase.gpu_seconds)
                )

    def test_gmac_overlaps_copies(self, fast_sim):
        blocked = fast_sim.run(kernel("reduction").trace(), case_point("CPU+GPU"))
        overlapped = fast_sim.run(kernel("reduction").trace(), case_point("GMAC"))
        assert (
            overlapped.breakdown.communication < blocked.breakdown.communication
        )
        comm_phases = [p for p in overlapped.phases if p.kind == "communication"]
        assert any(p.overlapped_seconds > 0 for p in comm_phases)

    def test_fusion_cheaper_than_pcie(self, fast_sim):
        pcie = fast_sim.run(kernel("reduction").trace(), case_point("CPU+GPU"))
        fusion = fast_sim.run(kernel("reduction").trace(), case_point("Fusion"))
        assert fusion.breakdown.communication < pcie.breakdown.communication

    def test_compute_time_identical_across_systems(self, fast_sim):
        """§V-A isolates memory systems: compute must not vary."""
        trace = kernel("dct").trace()
        results = [
            fast_sim.run(trace, case_point(n))
            for n in ("CPU+GPU", "LRB", "GMAC", "Fusion", "IDEAL-HETERO")
        ]
        parallels = {round(r.breakdown.parallel, 15) for r in results}
        sequentials = {round(r.breakdown.sequential, 15) for r in results}
        assert len(parallels) == 1
        assert len(sequentials) == 1


class TestAddressSpaceOverhead:
    def test_unified_adds_nothing(self, fast_sim):
        trace = kernel("reduction").trace()
        base = fast_sim.run(trace, ideal())
        uni = fast_sim.run(trace, ideal(AddressSpaceKind.UNIFIED))
        assert uni.total_seconds == pytest.approx(base.total_seconds)

    def test_disjoint_adds_most(self, fast_sim):
        trace = kernel("reduction").trace()
        results = {
            space: fast_sim.run(trace, ideal(space)).total_seconds
            for space in AddressSpaceKind
        }
        assert results[AddressSpaceKind.DISJOINT] == max(results.values())
        assert results[AddressSpaceKind.UNIFIED] == min(results.values())

    def test_overhead_is_tiny(self, fast_sim):
        """Figure 7: 'almost no performance difference between options'."""
        trace = kernel("matmul").trace()
        uni = fast_sim.run(trace, ideal(AddressSpaceKind.UNIFIED))
        dis = fast_sim.run(trace, ideal(AddressSpaceKind.DISJOINT))
        assert dis.total_seconds / uni.total_seconds < 1.001

    def test_overhead_table_is_ordered(self):
        assert (
            SPACE_OVERHEAD_INSTRUCTIONS[AddressSpaceKind.UNIFIED]
            < SPACE_OVERHEAD_INSTRUCTIONS[AddressSpaceKind.PARTIALLY_SHARED]
            < SPACE_OVERHEAD_INSTRUCTIONS[AddressSpaceKind.ADSM]
            < SPACE_OVERHEAD_INSTRUCTIONS[AddressSpaceKind.DISJOINT]
        )


def _overlap_probe_trace(copy_bytes, par_instructions, name="overlap-probe"):
    """An H2D copy and a D2H copy flanking one parallel phase.

    Both copies try to hide under the *same* phase (H2D looks forward,
    D2H looks backward), which is exactly the shape that used to let an
    asynchronous channel hide more communication than the phase lasts.
    """
    from repro.taxonomy import ProcessingUnit
    from repro.trace.mix import InstructionMix
    from repro.trace.phase import (
        CommPhase,
        Direction,
        ParallelPhase,
        Segment,
    )
    from repro.trace.stream import KernelTrace

    work = InstructionMix(int_alu=par_instructions)
    return KernelTrace(
        name=name,
        phases=(
            CommPhase(label="in", direction=Direction.H2D, num_bytes=copy_bytes),
            ParallelPhase(
                label="work",
                cpu=Segment(pu=ProcessingUnit.CPU, mix=work),
                gpu=Segment(pu=ProcessingUnit.GPU, mix=work),
            ),
            CommPhase(label="out", direction=Direction.D2H, num_bytes=copy_bytes),
        ),
    )


class TestOverlapBudget:
    """Regression tests: a parallel phase's overlap budget is finite.

    The budget bug let an H2D copy before a phase and a D2H copy after it
    each hide up to the phase's full duration — double-counting the
    window.
    """

    def test_total_overlap_never_exceeds_phase_duration(self, fast_sim):
        # Tiny phase, huge copies: both transfers want the whole window.
        trace = _overlap_probe_trace(32 * 1024 * 1024, par_instructions=1_000)
        result = fast_sim.run(trace, case_point("GMAC"))
        parallel = result.breakdown.parallel
        overlapped = sum(
            p.overlapped_seconds for p in result.phases if p.kind == "communication"
        )
        assert overlapped <= parallel + 1e-15
        # And the budget is actually used, not just clamped to zero.
        assert overlapped == pytest.approx(parallel)

    def test_second_copy_sees_the_depleted_budget(self, fast_sim):
        trace = _overlap_probe_trace(32 * 1024 * 1024, par_instructions=1_000)
        result = fast_sim.run(trace, case_point("GMAC"))
        h2d, d2h = [p for p in result.phases if p.kind == "communication"]
        # The H2D copy (priced first) drains the whole window; the D2H
        # copy finds nothing left to hide under.
        assert h2d.overlapped_seconds == pytest.approx(result.breakdown.parallel)
        assert d2h.overlapped_seconds == 0.0

    def test_large_phase_still_hides_both_copies(self, fast_sim):
        # A long phase with small copies: the budget never binds and both
        # transfers expose only their initiation latency, as before the fix.
        trace = _overlap_probe_trace(64 * 1024, par_instructions=50_000_000)
        result = fast_sim.run(trace, case_point("GMAC"))
        initiation = fast_sim.comm_params.cpu_frequency.cycles_to_seconds(
            fast_sim.comm_params.api_pci_base_cycles
        )
        for phase in result.phases:
            if phase.kind == "communication":
                assert phase.seconds == pytest.approx(initiation)
                assert phase.overlapped_seconds > 0.0

    def test_synchronous_channel_never_overlaps(self, fast_sim):
        trace = _overlap_probe_trace(32 * 1024 * 1024, par_instructions=1_000)
        result = fast_sim.run(trace, case_point("CPU+GPU"))
        for phase in result.phases:
            if phase.kind == "communication":
                assert phase.overlapped_seconds == 0.0

    def test_default_kernels_respect_the_budget(self, fast_sim):
        """Per-phase accounting on the real suite: communication hidden
        under all parallel phases never exceeds the parallel total."""
        for k in all_kernels():
            result = fast_sim.run(k.trace(), case_point("GMAC"))
            overlapped = sum(
                p.overlapped_seconds
                for p in result.phases
                if p.kind == "communication"
            )
            assert overlapped <= result.breakdown.parallel + 1e-15


class TestAnalyticProperties:
    def test_more_instructions_take_longer(self, fast_sim):
        k = kernel("reduction")
        small = fast_sim.run(k.build(k.for_size(10_000)), case_point("IDEAL-HETERO"))
        large = fast_sim.run(k.build(k.for_size(100_000)), case_point("IDEAL-HETERO"))
        assert large.total_seconds > small.total_seconds * 5

    def test_counters_expose_channel_stats(self, fast_sim):
        result = fast_sim.run(kernel("k-mean").trace(), case_point("LRB"))
        assert result.counters["transfers"] == 6
        assert result.counters["page_faults"] > 0


def _sharing_trace():
    """One parallel phase whose CPU and GPU both write the shared window."""
    from repro.sim.mmu import SHARED_BASE
    from repro.trace.mix import InstructionMix
    from repro.trace.phase import CommPhase, Direction, ParallelPhase, Segment
    from repro.trace.stream import KernelTrace
    from repro.taxonomy import ProcessingUnit

    kb = 1024
    return KernelTrace(
        name="pingpong",
        phases=(
            CommPhase(
                label="h2d",
                direction=Direction.H2D,
                num_bytes=4 * kb,
                num_objects=1,
            ),
            ParallelPhase(
                label="share",
                cpu=Segment(
                    pu=ProcessingUnit.CPU,
                    mix=InstructionMix(loads=256, stores=256, int_alu=256),
                    base_addr=SHARED_BASE,
                    footprint_bytes=4 * kb,
                    label="cpu",
                ),
                gpu=Segment(
                    pu=ProcessingUnit.GPU,
                    mix=InstructionMix(simd_loads=256, simd_stores=256, int_alu=256),
                    base_addr=SHARED_BASE,
                    footprint_bytes=4 * kb,
                    label="gpu",
                ),
            ),
        ),
    )


class TestCoherenceEstimate:
    """The analytic invalidation-traffic estimate vs the detailed protocol.

    The estimate is a streaming upper bound (every co-resident line
    invalidated once per writer); the detailed protocol resolves some of
    those conflicts silently. Parity here means order-of-magnitude: the
    estimate must be nonzero when the protocol measures traffic, bound the
    measured invalidations from above, and stay within a 10x band — close
    enough that ``metrics-diff`` between fast and detailed is meaningful.
    """

    def test_default_run_publishes_no_coherence_counters(self, fast_sim):
        result = fast_sim.run(kernel("reduction").trace(), case_point("CPU+GPU"))
        assert not any(k.startswith("coherence.") for k in result.counters)

    @pytest.mark.parametrize("kind", ["snoop", "directory"])
    def test_estimate_bounds_the_detailed_protocol(self, fast_sim, kind):
        from repro.sim.detailed import DetailedSimulator

        trace = _sharing_trace()
        case = case_study("CPU+GPU")
        fast = fast_sim.run(trace, SweepPoint(case=case, coherence=kind))
        detailed = DetailedSimulator().run(trace, case=case, coherence=kind)
        estimated = fast.counters["coherence.estimated_invalidations"]
        actual = detailed.counters[f"{kind}.invalidations_sent"]
        assert actual > 0
        assert estimated >= actual
        assert estimated <= 10 * actual

    def test_none_estimate_matches_default(self, fast_sim):
        trace = _sharing_trace()
        case = case_study("CPU+GPU")
        default = fast_sim.run(trace, SweepPoint(case=case))
        off = fast_sim.run(trace, SweepPoint(case=case, coherence="none"))
        assert off.counters == default.counters
        assert off.total_seconds == default.total_seconds


class TestOneDesignPointRecord:
    """``run(trace, point)``: the point alone decides pricing and label."""

    #: A non-default machine (4+4 cores, 2 GHz CPU, 128 B L3 lines) and
    #: non-default PCI-E costs.
    SYSTEM = SystemConfig(
        cpu=replace(CpuConfig(), num_cores=4, frequency=Frequency(2 * GHZ)),
        gpu=replace(GpuConfig(), num_cores=4),
        l3=replace(SystemConfig().l3, line_bytes=128),
    )
    PARAMS = CommParams(api_pci_base_cycles=50_000)

    @pytest.mark.parametrize("name", ["CPU+GPU", "GMAC"])
    @pytest.mark.parametrize(
        "trace", [kernel("reduction").trace(), _sharing_trace()], ids=["reduction", "sharing"]
    )
    def test_point_overrides_price_the_whole_run(self, name, trace):
        fields = dict(
            case=case_study(name),
            address_space=AddressSpaceKind.DISJOINT,
            coherence="directory",
        )
        overridden = FastSimulator().run(
            trace, SweepPoint(system=self.SYSTEM, comm_params=self.PARAMS, **fields)
        )
        native = FastSimulator(self.SYSTEM, self.PARAMS).run(trace, SweepPoint(**fields))
        assert overridden == native
        assert overridden != FastSimulator().run(trace, SweepPoint(**fields))

    def test_fast_and_detailed_share_one_label(self):
        trace = kernel("reduction").trace()
        points = [
            SweepPoint(case=case)
            for case in (*CASE_STUDIES.values(), *EXTENDED_CASE_STUDIES.values())
        ]
        points += [
            SweepPoint(
                mechanism=mechanism,
                async_overlap=mechanism is CommMechanism.DMA_ASYNC,
            )
            for mechanism in CommMechanism
        ]
        detailed = SweepSimulator().run(trace.scaled(0.003), points)
        for point, result in zip(points, detailed):
            fast = FastSimulator().run(trace, point)
            assert fast.system == point.label() == result.system


class TestComputePricingMemo:
    """Compute phases are priced once per (trace, system) and memoized on
    the trace; only communication is priced per point. Every run on a
    shared, memoized trace must equal the run on a freshly built one."""

    #: One feasible design point per timing key: the 22 simulations a
    #: rank runs per kernel.
    POINTS = list({p.timing_key: p for p in DesignSpace().feasible_points()}.values())
    #: Default system, a point override, the default again.
    SYSTEMS = (None, TestOneDesignPointRecord.SYSTEM, None)

    @staticmethod
    def record(result):
        return repr((result.breakdown, result.phases, result.counters))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: kernel("k-mean").trace(),
            lambda: _overlap_probe_trace(32 * 1024 * 1024, par_instructions=1_000),
        ],
        ids=["k-mean", "overlap-probe"],
    )
    def test_shared_trace_matches_fresh_traces(self, build):
        assert len(self.POINTS) == 22
        shared = build()
        for system in self.SYSTEMS:
            for point in self.POINTS:
                sweep = SweepPoint.from_design_point(point, system=system)
                want = self.record(FastSimulator().run(build(), sweep))
                # An async channel consumes the overlap budgets: a second
                # run must start from full budgets again.
                repeats = 2 if point.comm is CommMechanism.DMA_ASYNC else 1
                for _ in range(repeats):
                    assert self.record(FastSimulator().run(shared, sweep)) == want

    def test_rank_reprices_when_the_system_changes(self):
        from repro.core.explorer import Explorer
        from repro.exec.cache import TraceCache

        traces = TraceCache()
        a, b, again = (
            Explorer(system=system, trace_cache=traces).rank_design_points()
            for system in (SystemConfig(), TestOneDesignPointRecord.SYSTEM, SystemConfig())
        )
        assert traces.misses == len(all_kernels())
        assert repr(again) == repr(a)
        assert repr(b) != repr(a)


class TestChannelPassMemo:
    """A channel's pass over a trace is priced once per channel spec and
    memoized beside the compute pricing; a run adds only its address-space
    instructions, any coherence estimate and its label. Every run must
    still equal the same run on a freshly built trace."""

    POINTS = [
        SweepPoint(
            mechanism=mechanism,
            async_overlap=mechanism is CommMechanism.DMA_ASYNC,
            address_space=space,
        )
        for mechanism in CommMechanism
        for space in (None, *AddressSpaceKind)
    ]

    record = staticmethod(TestComputePricingMemo.record)

    @pytest.mark.parametrize("k", all_kernels(), ids=lambda k: k.name)
    def test_warm_trace_matches_cold_traces(self, k):
        warm = k.trace()
        cold = [FastSimulator().run(k.trace(), point) for point in self.POINTS]
        for _ in range(2):
            for point, want in zip(self.POINTS, cold):
                got = FastSimulator().run(warm, point)
                assert got == want
                assert self.record(got) == self.record(want)

    def test_points_sharing_a_pass_cannot_change_its_counters(self):
        trace = kernel("reduction").trace()
        points = [
            SweepPoint(mechanism=CommMechanism.PCIE, address_space=space)
            for space in (AddressSpaceKind.UNIFIED, AddressSpaceKind.DISJOINT)
        ]
        want = self.record(FastSimulator().run(kernel("reduction").trace(), points[1]))
        first = FastSimulator().run(trace, points[0])
        with pytest.raises(TypeError):
            first.counters[next(iter(first.counters))] = -1.0
        assert self.record(FastSimulator().run(trace, points[1])) == want

    def test_points_with_their_own_machine_share_a_trace(self):
        case = case_study("CPU+GPU")
        machine = TestOneDesignPointRecord
        points = [
            SweepPoint(case=case),
            SweepPoint(case=case, comm_params=machine.PARAMS),
            SweepPoint(case=case, system=machine.SYSTEM),
            SweepPoint(case=case, system=machine.SYSTEM, comm_params=machine.PARAMS),
        ]
        solo = [
            self.record(FastSimulator().run(kernel("k-mean").trace(), point))
            for point in points
        ]
        assert len(set(solo)) == len(points)
        shared = kernel("k-mean").trace()
        for order in (points, points[::-1]):
            for point in order:
                assert self.record(FastSimulator().run(shared, point)) == solo[
                    points.index(point)
                ]

    def test_a_sweep_over_comm_params_keeps_the_memo_bounded(self):
        from repro.sim.fast import _MEMO_SLOT, _PASS_LIMIT

        shared = kernel("reduction").trace()
        for extra in range(2 * _PASS_LIMIT + 1):
            point = SweepPoint(
                mechanism=CommMechanism.PCIE,
                comm_params=CommParams(api_pci_base_cycles=30_000 + extra),
            )
            want = FastSimulator().run(kernel("reduction").trace(), point)
            assert self.record(FastSimulator().run(shared, point)) == self.record(want)
            assert len(shared.__dict__[_MEMO_SLOT][1].passes) <= _PASS_LIMIT

    def test_explicit_channel_accumulates_across_runs(self):
        from repro.comm.pcie import PcieChannel
        from repro.exec.job import SimJob, run_sim_job

        trace = kernel("reduction").trace()
        job = SimJob(trace=trace, channel=PcieChannel())
        first, second = run_sim_job(job), run_sim_job(job)
        assert second.counters["transfers"] == 2 * first.counters["transfers"] > 0
        assert second.breakdown == first.breakdown
        # A job on the same mechanism without its own channel starts fresh
        # every run.
        plain = SimJob(trace=trace, mechanism=CommMechanism.PCIE)
        assert run_sim_job(plain) == run_sim_job(plain) == first

    def test_fault_plan_attempts_differ(self):
        from repro.exec.job import SimJob, run_sim_job
        from repro.faults.spec import FaultPlan

        trace = kernel("reduction").trace()
        job = SimJob(
            trace=trace,
            mechanism=CommMechanism.PCIE,
            fault_plan=FaultPlan.parse("seed=1;pcie:degrade=0.5"),
        )
        attempts = [self.record(run_sim_job(job.for_attempt(a))) for a in range(4)]
        assert len(set(attempts)) > 1
        assert self.record(run_sim_job(job.for_attempt(2))) == attempts[2]
        # Faulted runs leave nothing behind for a clean run of the trace.
        clean = SimJob(trace=trace, mechanism=CommMechanism.PCIE)
        fresh = replace(clean, trace=kernel("reduction").trace())
        assert self.record(run_sim_job(clean)) == self.record(run_sim_job(fresh))

    def test_memo_stays_out_of_pickles_store_keys_and_equality(self):
        import pickle

        from repro.exec.job import SimJob
        from repro.store.keys import stable_key

        warm, cold = kernel("dct").trace(), kernel("dct").trace()
        for point in self.POINTS:
            FastSimulator().run(warm, point)
        assert warm == cold
        assert pickle.dumps(warm) == pickle.dumps(cold)
        keys = [
            stable_key(SimJob(trace=trace, mechanism=CommMechanism.PCIE).cache_key())
            for trace in (warm, cold)
        ]
        assert keys[0] == keys[1]
