"""Cross-check: analytic streaming-miss model vs functional cache simulation.

The fast simulator assumes streaming workloads miss once per cache line of
new data (``elem_bytes / line_bytes``). Here the same segments' expanded
instruction streams run through the *functional* cache model, and the
measured miss rates must agree with the analytic assumption.
"""

import pytest

from repro.config.system import CacheConfig
from repro.mem.cache.cache import Cache
from repro.mem.level import FixedLatencyMemory
from repro.sim.analytic import AnalyticTiming
from repro.taxonomy import ProcessingUnit
from repro.trace.mix import InstructionMix
from repro.trace.phase import Segment
from repro.units import GHZ, KB, MB, Frequency


def measure_miss_rate(segment, cache_kb=32, ways=8):
    """Run a segment's memory accesses through a functional cache."""
    cache = Cache(
        CacheConfig("probe", cache_kb * KB, ways=ways),
        Frequency(1 * GHZ),
        next_level=FixedLatencyMemory(50e-9),
    )
    time = 0.0
    for inst in segment.instructions():
        if inst.opcode.is_memory:
            cache.access(inst.addr, is_write=inst.is_store, issue_time=time)
            time += 1e-9
    return cache.miss_rate


def streaming_segment(footprint_bytes, total=20000):
    loads = total // 2
    return Segment(
        pu=ProcessingUnit.CPU,
        mix=InstructionMix(loads=loads, int_alu=total - loads),
        base_addr=0,
        footprint_bytes=footprint_bytes,
        elem_bytes=4,
    )


class TestStreamingMissModel:
    def test_l1_resident_footprint_mostly_hits(self):
        """Footprint fits: after the cold pass, everything hits."""
        segment = streaming_segment(16 * KB)
        measured = measure_miss_rate(segment)
        assert measured < 0.05

    def test_oversized_footprint_misses_once_per_line(self):
        """Footprint >> cache: one miss per 64B line = 1/16 of 4B accesses."""
        segment = streaming_segment(4 * MB, total=40000)
        measured = measure_miss_rate(segment)
        analytic = segment.elem_bytes / 64
        assert measured == pytest.approx(analytic, rel=0.25)

    def test_analytic_ranks_footprints_like_functional_sim(self):
        """Both models must order the same segments the same way."""
        timing = AnalyticTiming()
        footprints = (16 * KB, 128 * KB, 4 * MB)
        analytic_times = [
            timing.cpu_segment_seconds(streaming_segment(fp)) for fp in footprints
        ]
        measured_rates = [
            measure_miss_rate(streaming_segment(fp)) for fp in footprints
        ]
        assert analytic_times == sorted(analytic_times)
        assert measured_rates == sorted(measured_rates)
