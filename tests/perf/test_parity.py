"""Bit-identity of the production detailed walk against the reference oracle.

Production runs one phase walk (:func:`repro.perf.sweep.walk_phases`, a
batch of one for :class:`~repro.sim.detailed.DetailedSimulator`) over
compiled segments. It is only allowed to exist because it changes
nothing: every timing (to the last float bit) and every counter of the
:class:`~repro.sim.results.SimulationResult` must match the reference
oracle (:class:`~repro.sim.reference.ReferenceSimulator`, the
per-instruction generator expansion), for all six paper kernels across
all five case-study systems, in both interleaved and serial parallel-phase
modes, and for every batched sweep point against its own run.
"""

import pytest

from repro.config.presets import case_study, case_study_names
from repro.kernels.registry import all_kernels, kernel
from repro.sim.detailed import DetailedSimulator
from repro.sim.reference import ReferenceSimulator
from repro.taxonomy import AddressSpaceKind

#: Small enough to keep the full 6x5x2 sweep under ~10 s, large enough
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

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_serial_bit_identical(self, kernel_name):
        trace = kernel(kernel_name).build().scaled(SCALE)
        reference, production = run_pair(
            trace, case_study("CPU+GPU"), interleave_parallel=False
        )
        assert_identical(reference, production)


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
