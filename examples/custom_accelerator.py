#!/usr/bin/env python3
"""Extend the study: a custom workload on a custom accelerator.

The paper's framework generalizes beyond its six kernels and its
Fermi-like GPU (§II: "all the discussions and studies can be applied to
other accelerators"). This example:

1. defines a new kernel (histogram: parallel -> merge -> sequential) with
   its own instruction mix and communication structure;
2. defines a beefier accelerator (twice the clock, 32 warps) and a bigger
   shared L3;
3. compares the five case-study memory systems on both machines;
4. uses the partition sweep to find the best work split on each.

Run:  python examples/custom_accelerator.py
"""

from dataclasses import replace
from typing import Optional

from repro.config.presets import case_study
from repro.config.system import CacheConfig, GpuConfig, SystemConfig
from repro.core.report import format_table
from repro.core.sweeps import repartition, sweep_partition
from repro.kernels.base import Kernel, KernelShape, MixProfile, make_mix
from repro.perf.sweep import SweepPoint
from repro.sim.fast import FastSimulator
from repro.taxonomy import ProcessingUnit
from repro.trace.phase import CommPhase, Direction, ParallelPhase, Segment, SequentialPhase
from repro.trace.stream import KernelTrace
from repro.units import GHZ, KB, MB, Frequency


class HistogramKernel(Kernel):
    """256-bin histogram over a byte image, halves merged on the CPU."""

    name = "histogram"
    compute_pattern = "parallel -> merge -> sequential"
    profile_cpu = MixProfile(load_frac=0.40, store_frac=0.20, branch_frac=0.10, fp_frac=0.0)
    profile_gpu = MixProfile(load_frac=0.40, store_frac=0.20, branch_frac=0.10, fp_frac=0.0)
    default_shape = KernelShape(
        cpu_instructions=393216,  # ~3 instructions per pixel on 128K pixels
        gpu_instructions=393216,
        serial_instructions=2048,  # merge 2 x 256 bins + final pass
        initial_transfer_bytes=262144,
        result_bytes=2048,
    )

    def build(self, shape: Optional[KernelShape] = None) -> KernelTrace:
        shape = shape or self.default_shape
        half = shape.initial_transfer_bytes // 2
        cpu = Segment(
            pu=ProcessingUnit.CPU,
            mix=make_mix(shape.cpu_instructions, self.profile_cpu, ProcessingUnit.CPU),
            base_addr=0x1000_0000,
            footprint_bytes=half,
            elem_bytes=1,
            label="hist-cpu-half",
        )
        gpu = Segment(
            pu=ProcessingUnit.GPU,
            mix=make_mix(shape.gpu_instructions, self.profile_gpu, ProcessingUnit.GPU),
            base_addr=0x1000_0000 + half,
            footprint_bytes=half,
            elem_bytes=1,
            label="hist-gpu-half",
        )
        merge = Segment(
            pu=ProcessingUnit.CPU,
            mix=make_mix(shape.serial_instructions, self.profile_cpu, ProcessingUnit.CPU),
            base_addr=0x2000_0000,
            footprint_bytes=shape.result_bytes,
            label="hist-merge-bins",
        )
        return KernelTrace(
            name=self.name,
            phases=(
                CommPhase(
                    label="send-image-half",
                    direction=Direction.H2D,
                    num_bytes=shape.initial_transfer_bytes,
                    num_objects=1,
                    first_touch=True,
                ),
                ParallelPhase(label="count", cpu=cpu, gpu=gpu),
                CommPhase(label="return-bins", direction=Direction.D2H, num_bytes=shape.result_bytes),
                SequentialPhase(label="merge-bins", segment=merge),
            ),
        )


def beefy_machine() -> SystemConfig:
    """Twice the GPU clock, four times the warps, double the L3."""
    return SystemConfig(
        name="beefy",
        gpu=GpuConfig(frequency=Frequency(3.0 * GHZ), warps_per_core=64),
        l3=CacheConfig("l3", 16 * MB, ways=32, latency=24, tiles=4),
    )


def main() -> None:
    histogram = HistogramKernel()
    trace = histogram.trace()
    systems = {"baseline": SystemConfig(), "beefy": beefy_machine()}
    case_names = ("CPU+GPU", "LRB", "GMAC", "Fusion", "IDEAL-HETERO")

    rows = []
    for label, system in systems.items():
        sim = FastSimulator(system)
        for case_name in case_names:
            result = sim.run(trace, SweepPoint(case=case_study(case_name)))
            rows.append(
                (
                    label,
                    case_name,
                    f"{result.total_seconds * 1e6:.1f}",
                    f"{result.breakdown.communication_fraction:.1%}",
                )
            )
    print(
        format_table(
            ("machine", "memory system", "total us", "comm%"),
            rows,
            title="histogram kernel on two machines",
        )
    )

    print("\nbest CPU work fraction (makespan-optimal split):")
    fractions = [round(0.1 * i, 1) for i in range(1, 10)]
    for label, system in systems.items():
        results = sweep_partition(histogram, fractions, system=system)
        best = min(fractions, key=lambda f: results[f].total_seconds)
        print(
            f"  {label:<9} best split = {best:.1f} CPU "
            f"({results[best].total_seconds * 1e6:.1f} us vs "
            f"{results[0.5].total_seconds * 1e6:.1f} us at 50/50)"
        )


if __name__ == "__main__":
    main()
