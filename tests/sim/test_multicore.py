"""Tests for the multi-core scaling extension (paper footnote 4 lifted)."""

from dataclasses import replace

import pytest

from repro.config.presets import case_study
from repro.config.system import CpuConfig, GpuConfig, SystemConfig
from repro.errors import SimulationError
from repro.kernels.registry import kernel
from repro.perf.sweep import SweepPoint
from repro.sim.analytic import SYNC_FRACTION, AnalyticTiming, multicore_speedup
from repro.sim.fast import FastSimulator
from repro.taxonomy import ProcessingUnit
from repro.trace.mix import InstructionMix
from repro.trace.phase import Segment


def system_with(cores_cpu=1, cores_gpu=1):
    return SystemConfig(
        cpu=replace(CpuConfig(), num_cores=cores_cpu),
        gpu=replace(GpuConfig(), num_cores=cores_gpu),
    )


def cpu_segment(total=100_000):
    return Segment(
        pu=ProcessingUnit.CPU,
        mix=InstructionMix(int_alu=total),
        base_addr=0,
        footprint_bytes=0,
    )


class TestSpeedupModel:
    def test_one_core_is_identity(self):
        assert multicore_speedup(1) == pytest.approx(1.0)

    def test_monotone_and_sublinear(self):
        values = [multicore_speedup(n) for n in (1, 2, 4, 8, 16)]
        assert values == sorted(values)
        assert multicore_speedup(8) < 8.0

    def test_two_cores(self):
        assert multicore_speedup(2) == pytest.approx(2 / (1 + SYNC_FRACTION))

    def test_rejects_zero_cores(self):
        with pytest.raises(SimulationError):
            multicore_speedup(0)


class TestAnalyticScaling:
    def test_parallel_segment_scales(self):
        single = AnalyticTiming(system_with(cores_cpu=1))
        quad = AnalyticTiming(system_with(cores_cpu=4))
        seg = cpu_segment()
        assert quad.cpu_segment_seconds(seg) < single.cpu_segment_seconds(seg) / 3

    def test_sequential_segments_never_scale(self):
        quad = AnalyticTiming(system_with(cores_cpu=4))
        single = AnalyticTiming(system_with(cores_cpu=1))
        seg = cpu_segment()
        assert quad.cpu_segment_seconds(seg, parallel=False) == pytest.approx(
            single.cpu_segment_seconds(seg, parallel=False)
        )

    def test_default_single_core_unchanged(self):
        """The paper's configuration (one core per PU) is unaffected."""
        base = AnalyticTiming(SystemConfig())
        explicit = AnalyticTiming(system_with(1, 1))
        seg = cpu_segment()
        assert base.cpu_segment_seconds(seg) == explicit.cpu_segment_seconds(seg)


class TestFastSimScaling:
    def test_amdahl_on_reduction(self):
        """Reduction's serial merge bounds its multi-core speedup."""
        trace = kernel("reduction").trace()
        single = FastSimulator(system_with(1, 1)).run(trace, SweepPoint(case=case_study("Fusion")))
        octa = FastSimulator(system_with(8, 8)).run(trace, SweepPoint(case=case_study("Fusion")))
        assert octa.breakdown.sequential == pytest.approx(single.breakdown.sequential)
        assert octa.breakdown.parallel < single.breakdown.parallel / 3
        speedup = single.total_seconds / octa.total_seconds
        assert speedup < 4.0  # far below 8: Amdahl

    def test_communication_unaffected_by_cores(self):
        trace = kernel("dct").trace()
        single = FastSimulator(system_with(1, 1)).run(trace, SweepPoint(case=case_study("CPU+GPU")))
        octa = FastSimulator(system_with(8, 8)).run(trace, SweepPoint(case=case_study("CPU+GPU")))
        assert octa.breakdown.communication == pytest.approx(
            single.breakdown.communication
        )
