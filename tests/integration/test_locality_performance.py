"""Kernel-level locality-management performance (past the paper's §V-D).

The paper could not evaluate locality management quantitatively; the
detailed machine can, and the results cut both ways — which is itself the
§II-B trade-off:

- when a working set *fits the L1*, implicit caching matches or beats the
  explicit scratchpad (hardware caches capture the locality for free, and
  the scratchpad's fixed latency wins nothing);
- when streaming traffic *thrashes the L1*, explicitly pinning the reused
  table in the scratchpad guarantees its hits and removes its demand
  traffic entirely;
- the §II-B5 hybrid shared cache protects pushed data from a peer PU's
  streaming sweep.
"""

import pytest

from repro.locality.manager import LocalityManager
from repro.mem.cache.replacement import HybridLocalityPolicy
from repro.mem.request import MemRequest
from repro.sim.reference import run_segment
from repro.sim.system import build_machine
from repro.taxonomy import AddressSpaceKind, LocalityScheme, ProcessingUnit
from repro.trace.instruction import Instruction
from repro.trace.mix import InstructionMix
from repro.trace.phase import Segment
from repro.units import KB

PAS = AddressSpaceKind.PARTIALLY_SHARED
TABLE = 0x1000_0000
STREAM = 0x2000_0000


def thrashing_workload(iterations=2000, stream_ratio=8):
    """One reused-table load per ``stream_ratio`` streaming loads.

    The stream pressure (8 new lines per set between table reuses on the
    32 KB / 8-way L1) evicts every table line before its next use.
    """
    instrs = []
    offset = 0
    for i in range(iterations):
        instrs.append(Instruction.load(TABLE + (i * 64) % (4 * KB), simd=True))
        for _ in range(stream_ratio):
            instrs.append(Instruction.load(STREAM + offset, simd=True))
            offset += 64
    return instrs


class TestScratchpadTradeoff:
    def test_fitting_working_set_prefers_implicit_caching(self):
        """§II-B trade-off, negative direction: a 12 KB set fits the 32 KB
        L1, so hardware caching wins and the push buys nothing."""
        segment = Segment(
            pu=ProcessingUnit.GPU,
            mix=InstructionMix(simd_loads=3000, simd_alu=3000),
            base_addr=TABLE,
            footprint_bytes=12 * KB,
        )
        implicit = build_machine()
        implicit_cycles = run_segment(implicit.gpu_core, segment.instructions())
        explicit = build_machine()
        explicit.gpu_core.push(TABLE, 12 * KB)
        explicit_cycles = run_segment(explicit.gpu_core, segment.instructions())
        assert explicit_cycles >= implicit_cycles

    def test_thrashed_table_prefers_explicit_placement(self):
        """§II-B trade-off, positive direction: under L1 thrashing the
        pinned table always hits the scratchpad and its demand traffic
        disappears; implicit caching gets a ~0% table hit rate."""
        implicit = build_machine()
        implicit_cycles = run_segment(implicit.gpu_core, thrashing_workload())
        implicit_hit_rate = implicit.gpu_l1d.hits / implicit.gpu_l1d.accesses

        explicit = build_machine()
        explicit.gpu_core.push(TABLE, 4 * KB)
        explicit_cycles = run_segment(explicit.gpu_core, thrashing_workload())

        assert implicit_hit_rate < 0.05  # the stream destroys the table
        assert explicit.gpu_core.scratchpad_hits == 2000  # every table access
        assert explicit_cycles < implicit_cycles
        # The table's demand traffic is gone: only stream accesses remain.
        assert explicit.gpu_l1d.accesses == implicit.gpu_l1d.accesses - 2000

    def test_oversized_working_set_cannot_be_pushed_whole(self):
        from repro.errors import LocalityError

        machine = build_machine()
        manager = LocalityManager(
            machine, LocalityScheme.EXPLICIT_PRIVATE_EXPLICIT_SHARED, PAS
        )
        with pytest.raises(LocalityError):
            manager.push(0x0, 64 * KB, "GPU.P")  # scratchpad holds 16 KB


class TestHybridSharedUnderCrossTraffic:
    @staticmethod
    def _run_sweep(policy):
        """Push CPU hot data into a small shared L3, stream the GPU through
        it with more pressure than the associativity can absorb, then
        re-read the hot data from the CPU. Returns the L3 hit count of the
        re-read pass."""
        from repro.config.system import CacheConfig, SystemConfig

        system = SystemConfig(
            l3=CacheConfig("l3", 512 * KB, ways=8, latency=12, tiles=1)
        )
        machine = build_machine(system, l3_policy=policy)
        hot_base = 0x3000_0000
        line = 64
        for addr in range(hot_base, hot_base + 4 * KB, line):
            machine.l3.push_line(addr)

        time = 0.0
        for addr in range(0x3010_0000, 0x3010_0000 + 2 * 1024 * KB, line):
            machine.gpu_core.memory.access(
                MemRequest(addr=addr, pu=ProcessingUnit.GPU, issue_time=time)
            )
            time += 1e-9

        hits_before = machine.l3.hits
        for addr in range(hot_base, hot_base + 4 * KB, line):
            machine.cpu_core.memory.access(
                MemRequest(addr=addr, pu=ProcessingUnit.CPU, explicit=True, issue_time=time)
            )
            time += 1e-9
        return machine.l3.hits - hits_before

    def test_protected_cpu_data_survives_gpu_streaming(self):
        """§II-B5 at the system level, differentially: with the hybrid
        policy every hot line survives the GPU's 2 MB sweep (32 lines/set
        of pressure on an 8-way cache); with plain LRU the sweep destroys
        them all."""
        hybrid_hits = self._run_sweep(HybridLocalityPolicy(ways=8, max_explicit_ways=4))
        lru_hits = self._run_sweep(None)  # default LRU
        total_lines = 4 * KB // 64
        assert hybrid_hits == total_lines
        assert lru_hits == 0
