"""Bit-identity of the production detailed walk against the reference oracle.

Production runs one phase walk (:func:`repro.perf.sweep.walk_phases`)
per design point over compiled segments. It is only allowed to exist
because it changes nothing: every timing (to the last float bit) and every counter of the
:class:`~repro.sim.results.SimulationResult` must match the reference
oracle (:class:`~repro.sim.reference.ReferenceSimulator`, the
per-instruction generator expansion), for all six paper kernels across
all five case-study systems, and for every batched sweep point against
its own run. Each core's whole-segment run is checked against the
reference loop on its own.
"""

import pytest

from repro.config.presets import case_study, case_study_names
from repro.kernels.registry import all_kernels, kernel
from repro.perf.compiled import compile_segment
from repro.sim.detailed import DetailedSimulator
from repro.sim.reference import ReferenceSimulator
from repro.sim.reference import run_segment as reference_run_segment
from repro.sim.system import build_machine
from repro.taxonomy import AddressSpaceKind, ProcessingUnit
from repro.trace.phase import ParallelPhase, SequentialPhase

#: Small enough to keep the full 6x5 sweep under ~10 s, large enough
#: that every kernel exercises branches, cache misses, and both PUs.
SCALE = 0.002

KERNELS = [k.name for k in all_kernels()]
CASES = list(case_study_names())


def run_pair(trace, case, **kwargs):
    reference = ReferenceSimulator(**kwargs).run(trace, case=case)
    production = DetailedSimulator(**kwargs).run(trace, case=case)
    return reference, production


def assert_identical(reference, production):
    assert reference.breakdown == production.breakdown
    assert reference.phases == production.phases
    assert set(reference.counters) == set(production.counters)
    for key, value in reference.counters.items():
        assert production.counters[key] == value, key


class TestKernelsBySystem:
    @pytest.mark.parametrize("kernel_name", KERNELS)
    @pytest.mark.parametrize("case_name", CASES)
    def test_interleaved_bit_identical(self, kernel_name, case_name):
        trace = kernel(kernel_name).build().scaled(SCALE)
        reference, production = run_pair(trace, case_study(case_name))
        assert_identical(reference, production)


class TestWholeSegmentRuns:
    """Each core's whole-segment run (``run_segment``, a drain of its
    ``step_compiled``) against the reference loop, each side on a fresh
    machine: the first sequential segment and the first parallel phase's
    CPU and GPU segments of every kernel. Sequential phases reach the CPU
    loop only this way; the GPU's is also run with a scratchpad region
    pushed before the run, and in warp mode."""

    #: A non-zero start, so every access's issue time depends on it.
    START_SECONDS = 1e-6

    @staticmethod
    def _segments(kernel_name):
        trace = kernel(kernel_name).build().scaled(SCALE)
        sequential = next(p for p in trace.phases if isinstance(p, SequentialPhase))
        parallel = next(p for p in trace.phases if isinstance(p, ParallelPhase))
        return sequential.segment, parallel.cpu, parallel.gpu

    def _run_both(self, segment, gpu_mode="heuristic", push=None):
        """``(cycles, core stats, L1 stats)`` of production and reference."""
        outcomes = []
        for production in (True, False):
            machine = build_machine(gpu_mode=gpu_mode)
            if segment.pu is ProcessingUnit.CPU:
                core, l1 = machine.cpu_core, machine.cpu_l1d
            else:
                core, l1 = machine.gpu_core, machine.gpu_l1d
            if push is not None:
                core.push(*push)
            if production:
                cycles = core.run_segment(compile_segment(segment), self.START_SECONDS)
            else:
                cycles = reference_run_segment(
                    core, segment.instructions(), self.START_SECONDS
                )
            outcomes.append((cycles, core.stats(), l1.stats()))
        return outcomes

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_segments_bit_identical(self, kernel_name):
        for segment in self._segments(kernel_name):
            production, reference = self._run_both(segment)
            assert production == reference
            assert production[0] > 0

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_gpu_with_pushed_region_bit_identical(self, kernel_name):
        gpu = self._segments(kernel_name)[2]
        region = (gpu.base_addr, min(gpu.footprint_bytes, 8 * 1024))
        production, reference = self._run_both(gpu, push=region)
        assert production == reference
        # The pushed region served some of the segment's accesses.
        assert production[1]["scratchpad_hits"] > 0

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_gpu_warp_mode_bit_identical(self, kernel_name):
        gpu = self._segments(kernel_name)[2]
        production, reference = self._run_both(gpu, gpu_mode="warp")
        assert production == reference


class TestVariantModes:
    def test_warp_mode_bit_identical(self):
        trace = kernel("reduction").build().scaled(SCALE)
        reference, production = run_pair(trace, case_study("CPU+GPU"), gpu_mode="warp")
        assert_identical(reference, production)

    def test_hardware_coherence_bit_identical(self):
        # IDEAL-HETERO runs the hardware directory.
        trace = kernel("k-mean").build().scaled(SCALE)
        reference, production = run_pair(trace, case_study("IDEAL-HETERO"))
        assert_identical(reference, production)

    def test_l1_prefetch_bit_identical(self):
        trace = kernel("convolution").build().scaled(SCALE)
        reference, production = run_pair(trace, case_study("CPU+GPU"), l1_prefetch=True)
        assert_identical(reference, production)

    def test_mmu_staged_bit_identical(self):
        trace = kernel("merge sort").build().scaled(SCALE)
        case = case_study("CPU+GPU")
        reference = ReferenceSimulator().run(
            trace, case=case, address_space=AddressSpaceKind.DISJOINT
        )
        production = DetailedSimulator().run(
            trace, case=case, address_space=AddressSpaceKind.DISJOINT
        )
        assert_identical(reference, production)


class TestBatchedSweepParity:
    """The design-point axis: every point of a batch matches its own run.

    The deeper suite lives in tests/perf/test_sweep.py; this pins the
    headline contract against the reference oracle itself.
    """

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_every_point_of_a_batch_bit_identical(self, kernel_name):
        from repro.perf.sweep import SweepPoint, SweepSimulator

        trace = kernel(kernel_name).build().scaled(SCALE)
        points = [SweepPoint(case=case_study(name)) for name in CASES]
        batched = SweepSimulator().run(trace, points)
        for point, result in zip(points, batched):
            single = ReferenceSimulator().run(trace, case=point.case)
            assert single.breakdown == result.breakdown
            assert single.phases == result.phases
            assert single.counters == result.counters


class TestCompileCacheSharing:
    def test_runs_share_the_default_compile_cache(self):
        from repro.perf.compiled import SHARED_COMPILE_CACHE

        trace = kernel("reduction").build().scaled(SCALE)
        case = case_study("CPU+GPU")
        DetailedSimulator().run(trace, case=case)
        before = SHARED_COMPILE_CACHE.hits
        DetailedSimulator().run(trace, case=case)
        assert SHARED_COMPILE_CACHE.hits > before


class TestCoherentDesignPoints:
    """The coherence axis rides the same bit-identity contract.

    A protocol-on machine runs the per-access coherent front; production
    must drive it through exactly the same access sequence as the
    reference oracle — timings, protocol counters, everything.
    """

    def _staged(self, kernel_name):
        from repro.sim.mmu import stage_shared_trace

        return stage_shared_trace(
            kernel(kernel_name).build().scaled(SCALE), AddressSpaceKind.UNIFIED
        )

    @pytest.mark.parametrize("protocol", ["snoop", "directory"])
    def test_protocol_bit_identical(self, protocol):
        trace = self._staged("reduction")
        case = case_study("CPU+GPU")
        reference = ReferenceSimulator().run(trace, case=case, coherence=protocol)
        production = DetailedSimulator().run(trace, case=case, coherence=protocol)
        assert_identical(reference, production)
        # The parity only means something if the protocol actually fired.
        assert production.counters[f"{protocol}.tracked_lines"] > 0

    def test_batched_sweep_matches_single_runs_per_protocol(self):
        from repro.perf.sweep import SweepPoint, SweepSimulator

        trace = self._staged("k-mean")
        case = case_study("CPU+GPU")
        points = [
            SweepPoint(case=case, coherence=protocol, system_name=f"p/{protocol}")
            for protocol in ("none", "snoop", "directory")
        ]
        batched = SweepSimulator().run(trace, points)
        for point, result in zip(points, batched):
            single = ReferenceSimulator().run(
                trace,
                case=case,
                coherence=point.coherence,
                system_name=point.system_name,
            )
            assert single.breakdown == result.breakdown
            assert single.phases == result.phases
            assert single.counters == result.counters


class TestInterleaverTiesAndComputeRuns:
    """The production steppers yield only before each access to the
    memory hierarchy; the reference loops yield after every instruction.
    The engine must still merge the accesses in the same order.

    Both cores run at one frequency and issue one instruction per cycle,
    so their accesses tie and the CPU-first rule decides the order. A
    synthetic kernel with three memory operations per hundred
    instructions leaves long compute runs between accesses, which the
    steppers cross without a yield. Both PUs stream over the same lines,
    so the order decides who holds each line in which MESI state.
    """

    #: ``breakdown.parallel`` per protocol, computed while the production
    #: steppers still yielded after every instruction. Both sides share
    #: the engine, so only a pinned value sees a change to its tie rule.
    PARALLEL_SECONDS = {
        "snoop": 3.596828899080681e-05,
        "directory": 3.597911041937823e-05,
    }

    @staticmethod
    def _system():
        from dataclasses import replace

        from repro.config.system import SystemConfig

        system = SystemConfig()
        return replace(
            system,
            name="same-clock",
            cpu=replace(system.cpu, issue_width=1),
            gpu=replace(system.gpu, frequency=system.cpu.frequency),
        )

    @staticmethod
    def _trace():
        from dataclasses import replace

        from repro.kernels.base import MixProfile
        from repro.kernels.synthetic import SyntheticKernel
        from repro.sim.mmu import stage_shared_trace
        from repro.trace.phase import ParallelPhase

        synthetic = SyntheticKernel(seed=5)
        synthetic.profile_cpu = synthetic.profile_gpu = MixProfile(0.02, 0.01, 0.01, 0.3)
        shape = replace(
            synthetic.default_shape,
            cpu_instructions=120_000,
            gpu_instructions=120_000,
            serial_instructions=4_000,
        )
        trace = synthetic.build(shape)
        # The GPU half streams over the CPU half's lines.
        phases = tuple(
            replace(phase, gpu=replace(phase.gpu, base_addr=phase.cpu.base_addr))
            if isinstance(phase, ParallelPhase)
            else phase
            for phase in trace.phases
        )
        return stage_shared_trace(replace(trace, phases=phases), AddressSpaceKind.UNIFIED)

    @pytest.mark.parametrize("protocol", ["snoop", "directory"])
    def test_protocol_bit_identical(self, protocol):
        trace = self._trace()
        system = self._system()
        case = case_study("CPU+GPU")
        reference = ReferenceSimulator(system=system).run(
            trace, case=case, coherence=protocol
        )
        production = DetailedSimulator(system=system).run(
            trace, case=case, coherence=protocol
        )
        assert_identical(reference, production)
        assert production.breakdown.parallel == self.PARALLEL_SECONDS[protocol]
        assert production.counters[f"{protocol}.invalidations_sent"] > 0


class TestPrivateHits:
    """The production steppers serve private L1 hits in place, without a
    yield; the reference loops send every access through the engine.

    Each PU streams over a region that straddles the shared window's
    base, so its private and shared lines fill the same L1 sets, and the
    peer's writes invalidate the shared ones between the private hits.
    The CPU then re-reads two quarters of its private half, the upper one
    first, streams over new lines that evict all but one of the two (by
    the recency its hits stamped), and re-reads the lower quarter.
    """

    #: ``(breakdown.parallel, cpu.l1d hits, cpu.l1d misses, gpu.l1d
    #: hits)`` per ``(protocol, l1_prefetch)``, computed while every access
    #: still went through the engine. Both sides share the L1 hit body, so
    #: only a pinned value sees a change to it (a hit that stamps no fresh
    #: recency tick keeps the wrong quarter: 64 more CPU misses).
    PINNED = {
        ("snoop", False): (2.003625881015542e-05, 17472, 960, 15744),
        ("snoop", True): (1.6923605466497546e-05, 17952, 480, 16064),
        ("directory", False): (2.0091115953012564e-05, 17472, 960, 15744),
        ("directory", True): (1.697846260935469e-05, 17952, 480, 16064),
    }

    @staticmethod
    def _trace():
        from repro.addrspace.layout import SHARED_BASE
        from repro.trace.mix import InstructionMix
        from repro.trace.phase import CommPhase, Direction, ParallelPhase, Segment
        from repro.trace.stream import KernelTrace
        from repro.taxonomy import ProcessingUnit

        kb = 1024
        s = SHARED_BASE

        def segment(pu, base, footprint, stores=0):
            # 4-byte accesses cover the footprint exactly once.
            loads = footprint // 4 - stores
            mix = InstructionMix(int_alu=footprint // 4, loads=loads, stores=stores, branches=64)
            return Segment(pu=pu, mix=mix, base_addr=base, footprint_bytes=footprint)

        def phase(label, cpu, gpu):
            return ParallelPhase(
                label=label,
                cpu=segment(ProcessingUnit.CPU, *cpu),
                gpu=segment(ProcessingUnit.GPU, *gpu),
            )

        gpu_private = (s - 8 * kb, 8 * kb)
        phases = (
            CommPhase(label="h2d", direction=Direction.H2D, num_bytes=64 * kb),
            # The CPU L1 (64 sets x 8 ways) holds 4 private and 4 shared
            # lines per set; the GPU writes over the shared ones.
            phase("straddle", (s - 16 * kb, 32 * kb, 2730), (s - 8 * kb, 24 * kb, 3072)),
            phase("upper quarter", (s - 4 * kb, 4 * kb), gpu_private),
            phase("lower quarter", (s - 8 * kb, 4 * kb), gpu_private),
            # 7 new lines per set: all but the most recent re-read go.
            phase("evict", (s + 16 * kb, 28 * kb, 2048), (s, 16 * kb, 2048)),
            phase("reread", (s - 8 * kb, 4 * kb), gpu_private),
            CommPhase(label="d2h", direction=Direction.D2H, num_bytes=64 * kb),
        )
        return KernelTrace(name="straddle", phases=phases)

    @pytest.mark.parametrize("l1_prefetch", [False, True])
    @pytest.mark.parametrize("protocol", ["snoop", "directory"])
    def test_protocol_bit_identical(self, protocol, l1_prefetch):
        trace = self._trace()
        system = TestInterleaverTiesAndComputeRuns._system()
        case = case_study("CPU+GPU")
        kwargs = dict(system=system, l1_prefetch=l1_prefetch)
        reference = ReferenceSimulator(**kwargs).run(trace, case=case, coherence=protocol)
        production = DetailedSimulator(**kwargs).run(trace, case=case, coherence=protocol)
        assert_identical(reference, production)
        counters = production.counters
        assert (
            production.breakdown.parallel,
            counters["cpu.l1d.hits"],
            counters["cpu.l1d.misses"],
            counters["gpu.l1d.hits"],
        ) == self.PINNED[protocol, l1_prefetch]
        # Both PUs' writes invalidated shared lines in the other's L1.
        assert counters[f"{protocol}.invalidations_sent"] > 0
        assert counters["cpu.l1d.invalidations"] > 0
        assert counters["gpu.l1d.invalidations"] > 0

    def test_translation_fronts_keep_yielding(self):
        from repro.mem.level import MemoryLevel
        from repro.sim.mmu import TranslationFront

        trace = self._trace()
        system = TestInterleaverTiesAndComputeRuns._system()
        case = case_study("CPU+GPU")
        kwargs = dict(
            case=case,
            coherence="directory",
            address_space=AddressSpaceKind.PARTIALLY_SHARED,
        )
        reference = ReferenceSimulator(system=system).run(trace, **kwargs)
        simulator = DetailedSimulator(system=system)
        production = simulator.run(trace, **kwargs)
        assert_identical(reference, production)
        assert production.counters["directory.tracked_lines"] > 0
        # Every access translates first, so none is probed for a private hit.
        for core in (simulator.last_machine.cpu_core, simulator.last_machine.gpu_core):
            assert isinstance(core.memory, TranslationFront)
            assert core.memory.private_window()[0] == 0
        assert TranslationFront.private_window is MemoryLevel.private_window
        assert TranslationFront.miss is MemoryLevel.miss
