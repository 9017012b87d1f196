"""Tests for the ablation parameter sweeps."""

import pytest

from repro.core.sweeps import (
    repartition,
    sweep_api_latency,
    sweep_fault_granularity,
    sweep_partition,
    sweep_pci_bandwidth,
)
from repro.errors import DesignSpaceError
from repro.kernels.registry import kernel


class TestRepartition:
    def test_total_work_preserved(self):
        trace = kernel("reduction").trace()
        skewed = repartition(trace, 0.3)
        original = trace.cpu_instructions + trace.gpu_instructions
        new = skewed.cpu_instructions + skewed.gpu_instructions
        assert new == pytest.approx(original, rel=0.001)

    def test_fraction_respected(self):
        trace = kernel("dct").trace()
        skewed = repartition(trace, 0.25)
        total = skewed.cpu_instructions + skewed.gpu_instructions
        assert skewed.cpu_instructions / total == pytest.approx(0.25, rel=0.01)

    def test_comm_untouched(self):
        trace = kernel("k-mean").trace()
        skewed = repartition(trace, 0.7)
        assert skewed.num_communications == trace.num_communications
        assert skewed.initial_transfer_bytes == trace.initial_transfer_bytes

    def test_rejects_degenerate_fractions(self):
        trace = kernel("reduction").trace()
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DesignSpaceError):
                repartition(trace, bad)

    @staticmethod
    def _one_sided_trace(cpu_n, gpu_n):
        from repro.taxonomy import ProcessingUnit
        from repro.trace.mix import InstructionMix
        from repro.trace.phase import CommPhase, Direction, ParallelPhase, Segment
        from repro.trace.stream import KernelTrace

        return KernelTrace(
            name="one-sided",
            phases=(
                CommPhase(direction=Direction.H2D, num_bytes=4096),
                ParallelPhase(
                    label="lopsided",
                    cpu=Segment(pu=ProcessingUnit.CPU, mix=InstructionMix(int_alu=cpu_n)),
                    gpu=Segment(pu=ProcessingUnit.GPU, mix=InstructionMix(int_alu=gpu_n)),
                ),
                CommPhase(direction=Direction.D2H, num_bytes=4096),
            ),
        )

    def test_one_sided_phase_conserves_total_work(self):
        """Regression: a phase with an empty GPU side used to *drop* the
        share destined for the empty side (scaling 0 instructions by any
        factor is still 0), shrinking the kernel."""
        trace = self._one_sided_trace(cpu_n=10_000, gpu_n=0)
        skewed = repartition(trace, 0.3)
        assert (
            skewed.cpu_instructions + skewed.gpu_instructions
            == trace.cpu_instructions + trace.gpu_instructions
        )
        # The busy side keeps everything; nothing materializes on the
        # empty side either.
        assert skewed.cpu_instructions == 10_000
        assert skewed.gpu_instructions == 0

    def test_empty_gpu_side_in_either_direction(self):
        trace = self._one_sided_trace(cpu_n=0, gpu_n=7_000)
        skewed = repartition(trace, 0.8)
        assert skewed.gpu_instructions == 7_000
        assert skewed.cpu_instructions == 0

    def test_phase_with_no_work_at_all_raises(self):
        trace = self._one_sided_trace(cpu_n=0, gpu_n=0)
        with pytest.raises(DesignSpaceError, match="no work on either PU"):
            repartition(trace, 0.5)


class TestBandwidthSweep:
    def test_faster_link_reduces_comm(self):
        results = sweep_pci_bandwidth(kernel("reduction"), [4.0, 16.0, 64.0])
        comms = [results[r].breakdown.communication for r in (4.0, 16.0, 64.0)]
        assert comms[0] > comms[1] > comms[2]

    def test_compute_unaffected(self):
        results = sweep_pci_bandwidth(kernel("reduction"), [4.0, 64.0])
        assert results[4.0].breakdown.parallel == pytest.approx(
            results[64.0].breakdown.parallel
        )


class TestApiLatencySweep:
    def test_page_fault_cost_matters_for_lrb(self):
        results = sweep_api_latency(kernel("reduction"), "lib_pf_cycles", [0, 42000, 420000])
        comms = [results[v].breakdown.communication for v in (0, 42000, 420000)]
        assert comms[0] < comms[1] < comms[2]

    def test_unknown_parameter(self):
        with pytest.raises(DesignSpaceError):
            sweep_api_latency(kernel("reduction"), "warp_size", [1])


class TestPartitionSweep:
    def test_gpu_bound_kernels_prefer_cpu_heavy_splits(self):
        """The 1.5 GHz in-order GPU is the slower side at a 50/50 split, so
        shifting work toward the CPU helps (Qilin's observation)."""
        results = sweep_partition(kernel("dct"), [0.3, 0.5, 0.7])
        assert results[0.7].total_seconds < results[0.5].total_seconds

    def test_optimum_is_cpu_heavy(self):
        """With a ~2.2-IPC 3.5 GHz CPU against a CPI-1 1.5 GHz GPU, the
        makespan-optimal split gives most of the work to the CPU."""
        fractions = [round(0.1 * i, 1) for i in range(1, 10)]
        results = sweep_partition(kernel("dct"), fractions)
        best = min(fractions, key=lambda f: results[f].total_seconds)
        assert best >= 0.7

    def test_starving_the_cpu_is_worst(self):
        results = sweep_partition(kernel("dct"), [0.1, 0.5, 0.9])
        assert results[0.1].total_seconds == max(
            r.total_seconds for r in results.values()
        )


class TestSweepJobs:
    def test_parallel_bandwidth_sweep_matches_serial(self):
        rates = [4.0, 8.0, 16.0, 32.0]
        serial = sweep_pci_bandwidth(kernel("reduction"), rates)
        parallel = sweep_pci_bandwidth(kernel("reduction"), rates, jobs=2)
        assert serial == parallel

    def test_parallel_fault_granularity_matches_serial(self):
        serial = sweep_fault_granularity(kernel("reduction"))
        parallel = sweep_fault_granularity(kernel("reduction"), jobs=2)
        assert serial == parallel


class TestApertureSizing:
    def test_requirements_cover_all_kernels(self):
        from repro.core.sweeps import aperture_requirements

        needs = aperture_requirements()
        assert len(needs) == 6
        assert all(need > 0 for need in needs.values())
        # Matmul's three buffers are the largest footprint of the suite.
        assert max(needs, key=needs.get) == "matrix mul"

    def test_default_aperture_fits_everything(self):
        """The 32 MB default window holds every kernel's shared set."""
        from repro.addrspace.aperture import DEFAULT_APERTURE_BYTES
        from repro.core.sweeps import sweep_aperture_size

        fits = sweep_aperture_size([DEFAULT_APERTURE_BYTES])
        assert len(fits[DEFAULT_APERTURE_BYTES]) == 6

    def test_tiny_aperture_excludes_large_kernels(self):
        from repro.core.sweeps import sweep_aperture_size

        fits = sweep_aperture_size([128 * 1024])
        assert "matrix mul" not in fits[128 * 1024]  # needs 640 KB
        assert "merge sort" in fits[128 * 1024]  # needs 78 KB

    def test_rejects_nonpositive_size(self):
        from repro.core.sweeps import sweep_aperture_size

        with pytest.raises(DesignSpaceError):
            sweep_aperture_size([0])


class TestLrbCrossover:
    def test_reduction_crossover_near_analytic_value(self):
        """Hand calculation: LRB's size-independent cost is 100k cycles
        (acq + 2 tr + 2 faults + acq); CPU+GPU pays 2x33250 plus the
        bandwidth term, so the tie sits near (100000-66500)/(3.5e9/16e9)
        ~ 153 KB of transferred data."""
        from repro.core.sweeps import find_lrb_crossover_bytes
        from repro.kernels.registry import kernel

        crossover = find_lrb_crossover_bytes(kernel("reduction"))
        assert 100 * 1024 < crossover < 220 * 1024

    def test_single_object_kernels_always_prefer_lrb(self):
        """With one shared input object, LRB's fixed cost (51k cycles)
        undercuts two PCI-E bases (66.5k) at any size."""
        from repro.core.sweeps import find_lrb_crossover_bytes
        from repro.kernels.registry import kernel

        assert find_lrb_crossover_bytes(kernel("merge sort"), lo=256) == 256

    def test_crossover_side_consistency(self):
        """Below the crossover PCI-E's comm is cheaper; above, LRB's is."""
        from repro.config.presets import case_study
        from repro.core.sweeps import find_lrb_crossover_bytes
        from repro.kernels.registry import kernel
        from repro.perf.sweep import SweepPoint
        from repro.sim.fast import FastSimulator

        k = kernel("reduction")
        crossover = find_lrb_crossover_bytes(k)
        sim = FastSimulator()

        def comm(case_name, num_bytes):
            trace = k.build(k.for_size(num_bytes // 4))
            point = SweepPoint(case=case_study(case_name))
            return sim.run(trace, point).breakdown.communication

        below = crossover // 2
        above = crossover * 2
        assert comm("CPU+GPU", below) < comm("LRB", below)
        assert comm("LRB", above) < comm("CPU+GPU", above)

    def test_tolerance_validated(self):
        from repro.core.sweeps import find_lrb_crossover_bytes
        from repro.kernels.registry import kernel

        with pytest.raises(DesignSpaceError):
            find_lrb_crossover_bytes(kernel("reduction"), tolerance_bytes=0)


class TestFaultGranularity:
    def test_per_page_runtime_is_slower(self):
        results = sweep_fault_granularity(kernel("reduction"))
        assert (
            results["page"].breakdown.communication
            > results["object"].breakdown.communication
        )

    def test_compute_identical(self):
        results = sweep_fault_granularity(kernel("reduction"))
        assert results["page"].breakdown.parallel == pytest.approx(
            results["object"].breakdown.parallel
        )
