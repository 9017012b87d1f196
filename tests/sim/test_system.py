"""Tests for the machine builder and the coherent front-end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.mem.cache.replacement import HybridLocalityPolicy
from repro.sim.system import CoherentFront, Machine, build_machine

SHARED = 0x3000_0000
PRIVATE = 0x1000_0000


class TestBuildMachine:
    def test_components_present(self):
        machine = build_machine()
        assert machine.cpu_l1d.config.name == "cpu.l1d"
        assert machine.cpu_l2.config.name == "cpu.l2"
        assert machine.gpu_l1d.config.name == "gpu.l1d"
        assert machine.l3.config.name == "l3"
        assert machine.directory is None

    def test_hierarchy_wiring(self):
        """A CPU miss must descend L1 -> L2 -> ring -> L3 -> ring -> DRAM."""
        machine = build_machine()
        machine.cpu_core.memory.access(0x1234)
        assert machine.cpu_l1d.misses == 1
        assert machine.cpu_l2.misses == 1
        assert machine.l3.misses == 1
        assert machine.dram.stats()["requests"] == 1

    def test_gpu_skips_l2(self):
        machine = build_machine()
        machine.gpu_core.memory.access(0x5678)
        assert machine.gpu_l1d.misses == 1
        assert machine.cpu_l2.accesses == 0
        assert machine.l3.misses == 1

    def test_l3_shared_between_pus(self):
        """GPU data fetched once serves later CPU accesses at L3."""
        machine = build_machine()
        machine.gpu_core.memory.access(0x9000)
        machine.cpu_core.memory.access(0x9000)
        assert machine.l3.hits == 1

    @pytest.mark.parametrize("coherence", ["none", "directory"])
    def test_negative_address_rejected(self, coherence):
        machine = build_machine(coherence=coherence)
        with pytest.raises(SimulationError, match="negative address"):
            machine.cpu_core.memory.access(-64)
        assert machine.dram.stats()["requests"] == 0

    def test_custom_l3_policy(self):
        policy = HybridLocalityPolicy(ways=32)
        machine = build_machine(l3_policy=policy)
        assert machine.l3.policy is policy

    def test_stats_include_all_components(self):
        machine = build_machine(coherence="directory")
        stats = machine.stats()
        assert set(stats) >= {
            "cpu_core",
            "gpu_core",
            "cpu.l1d",
            "cpu.l2",
            "gpu.l1d",
            "l3",
            "ring",
            "dram",
            "directory",
        }


class TestCoherentFront:
    def test_private_addresses_skip_the_directory(self):
        machine = build_machine(coherence="directory")
        machine.cpu_core.memory.access(PRIVATE, is_write=True)
        assert machine.directory.stats()["tracked_lines"] == 0

    def test_shared_write_invalidates_peer_caches(self):
        machine = build_machine(coherence="directory")
        machine.gpu_core.memory.access(SHARED)
        assert machine.gpu_l1d.contains(SHARED)
        machine.cpu_core.memory.access(SHARED, is_write=True)
        assert not machine.gpu_l1d.contains(SHARED)
        assert machine.directory.invalidations_sent == 1

    def test_coherence_traffic_charged_as_latency(self):
        machine = build_machine(coherence="directory")
        machine.gpu_core.memory.access(SHARED)
        machine.cpu_core.memory.access(SHARED, is_write=True)
        front = machine.cpu_core.memory
        assert isinstance(front, CoherentFront)
        assert front.coherence_latency > 0

    def test_read_sharing_needs_no_invalidation(self):
        machine = build_machine(coherence="directory")
        machine.cpu_core.memory.access(SHARED)
        machine.gpu_core.memory.access(SHARED)
        assert machine.directory.invalidations_sent == 0

    def test_custom_shared_base(self):
        machine = build_machine(coherence="directory", shared_base=0x100)
        machine.cpu_core.memory.access(0x200, is_write=True)
        assert machine.directory.stats()["tracked_lines"] == 1


class TestProbeThenMissThroughFronts:
    """Both PUs' top levels driven as the cores drive them (the probe of
    ``private_window`` below its limit, then ``miss``; ``access`` above
    it) against a twin machine driven by ``access`` alone."""

    @staticmethod
    def _drive(memory, probing, addr, is_write, issue_time):
        limit, probe = memory.private_window()
        if probing and addr < limit:
            latency = probe(addr, is_write)
            if latency is not None:
                return latency
            return memory.miss(addr, is_write, issue_time)
        return memory.access(addr, is_write, issue_time)

    @pytest.mark.parametrize("coherence", ["none", "snoop", "directory"])
    @given(
        stream=st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from([PRIVATE, SHARED]),
                st.integers(min_value=0, max_value=2047),
                st.booleans(),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_same_latencies_and_counters(self, coherence, stream):
        # 2048 lines of 64 B fill the 32 KB L1s, so fills evict too.
        probed, plain = (build_machine(coherence=coherence) for _ in range(2))
        for step, (on_cpu, region, line, is_write) in enumerate(stream):
            addr = region + line * 64
            issue_time = step * 1e-8
            latencies = [
                self._drive(
                    (m.cpu_core if on_cpu else m.gpu_core).memory,
                    probing,
                    addr,
                    is_write,
                    issue_time,
                )
                for m, probing in ((probed, True), (plain, False))
            ]
            assert latencies[0] == latencies[1]
        assert probed.stats() == plain.stats()

    def test_front_window_stops_at_the_shared_base(self):
        machine = build_machine(coherence="snoop")
        limit, probe = machine.cpu_core.memory.private_window()
        assert limit == machine.cpu_core.memory.shared_base
        assert probe == machine.cpu_l1d.private_hit
        assert build_machine().cpu_core.memory.private_window()[0] > SHARED

    def test_shared_reread_hits_the_l1_once_probed(self):
        machine = build_machine(coherence="directory")
        front = machine.cpu_core.memory
        front.access(SHARED)
        assert front.access(SHARED) == machine.cpu_l1d.hit_latency
        assert (machine.cpu_l1d.hits, machine.cpu_l1d.misses) == (1, 1)

    def test_miss_on_a_shared_address_takes_the_protocol_step(self):
        twins = [build_machine(coherence="directory") for _ in range(2)]
        for machine in twins:
            machine.gpu_core.memory.access(SHARED)
        assert twins[0].cpu_core.memory.miss(SHARED, True) == twins[1].cpu_core.memory.access(
            SHARED, True
        )
        assert twins[0].stats() == twins[1].stats()
        assert twins[0].directory.invalidations_sent == 1
