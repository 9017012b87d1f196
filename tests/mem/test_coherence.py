"""Tests for the MESI protocol and the two-PU directory."""

import pytest

from repro.errors import SimulationError
from repro.mem.coherence.directory import Directory, SoftwareCoherence
from repro.mem.coherence.protocol import (
    MESIState,
    ProtocolError,
    next_state,
    remote_state_on_snoop,
)
from repro.taxonomy import ProcessingUnit

CPU, GPU = ProcessingUnit.CPU, ProcessingUnit.GPU


class TestProtocolTransitions:
    def test_cold_read_goes_exclusive(self):
        assert next_state(MESIState.INVALID, False, False) == (MESIState.EXCLUSIVE, False)

    def test_read_with_sharers_goes_shared(self):
        assert next_state(MESIState.INVALID, False, True) == (MESIState.SHARED, False)

    def test_cold_write_goes_modified(self):
        assert next_state(MESIState.INVALID, True, False) == (MESIState.MODIFIED, False)

    def test_write_with_sharers_invalidates(self):
        state, invalidate = next_state(MESIState.SHARED, True, True)
        assert state is MESIState.MODIFIED and invalidate

    def test_silent_e_to_m_upgrade(self):
        assert next_state(MESIState.EXCLUSIVE, True, False) == (MESIState.MODIFIED, False)

    def test_e_with_other_copy_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            next_state(MESIState.EXCLUSIVE, True, True)

    def test_m_with_other_copy_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            next_state(MESIState.MODIFIED, False, True)

    def test_snoop_write_invalidates(self):
        assert remote_state_on_snoop(MESIState.SHARED, True) is MESIState.INVALID

    def test_snoop_read_downgrades_m_to_s(self):
        assert remote_state_on_snoop(MESIState.MODIFIED, False) is MESIState.SHARED

    def test_snoop_read_leaves_s(self):
        assert remote_state_on_snoop(MESIState.SHARED, False) is MESIState.SHARED


class TestActionNewState:
    @pytest.mark.parametrize("kind", ["snoop", "directory"])
    def test_action_carries_the_requesters_state(self, kind):
        import random

        from repro.mem.coherence.api import protocol_for

        protocol = protocol_for(kind)
        rng = random.Random(7)
        for _ in range(500):
            addr = rng.randrange(8) * 64
            pu = rng.choice((CPU, GPU))
            action = protocol.access(addr, pu, rng.random() < 0.4)
            assert action.new_state is protocol.state_of(addr, pu)
            assert action.new_state is not MESIState.INVALID
        protocol.check_invariants()


class TestStepTable:
    """Each protocol tabulates its step once; every entry must match a
    re-derivation from the pure MESI transitions and the message rules in
    the ``directory`` and ``snoop`` module docstrings."""

    STATES = list(MESIState)
    ADDR = 0x1C0

    @staticmethod
    def _rule(kind, local, remote, is_write, new_local, invalidate):
        """(messages, counter deltas) of one access, rule by rule."""
        I, S = MESIState.INVALID, MESIState.SHARED
        cold = local is I
        upgrade = local is S and new_local is MESIState.MODIFIED
        if kind == "directory":
            downgrade = not is_write and remote in (MESIState.MODIFIED, MESIState.EXCLUSIVE)
            messages = cold + 2 * invalidate + downgrade
            deltas = {
                "invalidations_sent": int(invalidate),
                "downgrades": int(downgrade),
                "upgrades": int(upgrade),
            }
        else:
            peer_supplies = cold and remote is not I
            write_to_shared = is_write and local is S
            messages = cold + peer_supplies + write_to_shared
            deltas = {
                "broadcasts": int(cold or write_to_shared),
                "snoop_hits": int(peer_supplies),
                "invalidations_sent": int(invalidate),
                "upgrades": int(upgrade),
            }
        return messages, deltas

    def _seeded(self, kind, local, remote):
        from repro.mem.coherence.api import STATES, protocol_for

        protocol = protocol_for(kind)
        line = self.ADDR & ~63
        for pu, state in ((CPU, local), (GPU, remote)):
            if state is not MESIState.INVALID:
                protocol._lines[pu][line] = STATES.index(state)
        return protocol

    @pytest.mark.parametrize("is_write", [False, True])
    @pytest.mark.parametrize("kind", ["snoop", "directory"])
    def test_every_entry_matches_the_rules(self, kind, is_write):
        for local in self.STATES:
            for remote in self.STATES:
                others = remote is not MESIState.INVALID
                protocol = self._seeded(kind, local, remote)
                before = protocol.metrics.as_dict()
                try:
                    new_local, invalidate = next_state(local, is_write, others)
                except ProtocolError:
                    with pytest.raises(ProtocolError):
                        protocol.access(self.ADDR, CPU, is_write)
                    assert protocol.metrics.as_dict() == before
                    continue
                action = protocol.access(self.ADDR, CPU, is_write)
                new_remote = remote_state_on_snoop(remote, is_write) if others else remote
                messages, deltas = self._rule(
                    kind, local, remote, is_write, new_local, invalidate
                )
                case = (local, remote, is_write)
                assert protocol.state_of(self.ADDR, CPU) is new_local, case
                assert protocol.state_of(self.ADDR, GPU) is new_remote, case
                assert action.new_state is new_local, case
                assert action.invalidate_peer is invalidate, case
                assert action.extra_latency_messages == messages, case
                after = protocol.metrics.as_dict()
                assert set(after) == set(deltas)
                for name, delta in deltas.items():
                    assert after[name] - before[name] == delta, (case, name)

    @pytest.mark.parametrize("kind", ["snoop", "directory"])
    def test_access_is_the_bound_step(self, kind):
        import random

        from repro.mem.coherence.api import protocol_for

        by_access, by_step = protocol_for(kind), protocol_for(kind)
        steps = {pu: by_step.accessor(pu) for pu in (CPU, GPU)}
        rng = random.Random(11)
        actions = []
        for _ in range(400):
            addr = rng.randrange(6) * 64 + rng.randrange(64)
            pu = rng.choice((CPU, GPU))
            is_write = rng.random() < 0.4
            action = by_access.access(addr, pu, is_write)
            assert steps[pu](addr, is_write) == action
            for unit in (CPU, GPU):
                assert by_access.state_of(addr, unit) is by_step.state_of(addr, unit)
            actions.append(action)
        assert by_access.stats() == by_step.stats()
        # Actions are interned: one object per table entry at most.
        assert len({id(action) for action in actions}) <= 32


class TestDirectory:
    def test_cold_read_is_exclusive(self):
        d = Directory()
        d.access(0x100, CPU, is_write=False)
        assert d.state_of(0x100, CPU) is MESIState.EXCLUSIVE

    def test_second_reader_shares(self):
        d = Directory()
        d.access(0x100, CPU, False)
        d.access(0x100, GPU, False)
        assert d.state_of(0x100, CPU) is MESIState.SHARED
        assert d.state_of(0x100, GPU) is MESIState.SHARED

    def test_write_invalidates_peer(self):
        d = Directory()
        d.access(0x100, CPU, False)
        d.access(0x100, GPU, False)
        action = d.access(0x100, CPU, True)
        assert action.invalidate_peer
        assert d.state_of(0x100, GPU) is MESIState.INVALID
        assert d.state_of(0x100, CPU) is MESIState.MODIFIED

    def test_reader_downgrades_writer(self):
        d = Directory()
        d.access(0x100, GPU, True)
        d.access(0x100, CPU, False)
        assert d.state_of(0x100, GPU) is MESIState.SHARED
        assert d.downgrades == 1

    def test_line_granularity(self):
        d = Directory(line_bytes=64)
        d.access(0x100, CPU, True)
        assert d.state_of(0x13F, CPU) is MESIState.MODIFIED
        assert d.state_of(0x140, CPU) is MESIState.INVALID

    def test_sharers(self):
        d = Directory()
        d.access(0x200, CPU, False)
        d.access(0x200, GPU, False)
        assert set(d.sharers(0x200)) == {CPU, GPU}

    def test_invariants_hold_over_random_walk(self):
        d = Directory()
        pattern = [(CPU, False), (GPU, False), (CPU, True), (GPU, True), (CPU, False)]
        for addr in (0x0, 0x40, 0x80):
            for pu, is_write in pattern:
                d.access(addr, pu, is_write)
                d.check_invariants()

    def test_messages_charged_on_misses(self):
        d = Directory()
        action = d.access(0x300, CPU, False)
        assert action.extra_latency_messages >= 1

    def test_bad_line_size(self):
        with pytest.raises(SimulationError):
            Directory(line_bytes=48)


class TestSoftwareCoherence:
    def test_sync_flushes_dirty_lines(self):
        sw = SoftwareCoherence()
        sw.record_write(0x100, CPU)
        sw.record_write(0x104, CPU)  # same line
        sw.record_write(0x140, CPU)
        assert sw.dirty_lines(CPU) == 2
        assert sw.sync(CPU) == 2
        assert sw.dirty_lines(CPU) == 0

    def test_per_pu_isolation(self):
        sw = SoftwareCoherence()
        sw.record_write(0x100, CPU)
        sw.record_write(0x200, GPU)
        assert sw.sync(CPU) == 1
        assert sw.dirty_lines(GPU) == 1

    def test_stats(self):
        sw = SoftwareCoherence()
        sw.record_write(0x0, GPU)
        sw.sync(GPU)
        assert sw.stats() == {"syncs": 1, "lines_flushed": 1}


class TestStatsReset:
    """Counter hygiene: every protocol counter registers and resets.

    Mirrors the PR 1 prefetcher-reset bug, where a counter survived
    ``reset_stats`` because it lived outside the registry: here the audit
    is structural (stats() must be exactly the registry plus the derived
    ``tracked_lines``) and behavioural (reset zeroes everything while the
    MESI line state is kept).
    """

    def _drive(self, protocol):
        protocol.access(0x0, CPU, is_write=False)
        protocol.access(0x0, GPU, is_write=True)
        protocol.access(0x40, GPU, is_write=False)
        protocol.access(0x40, GPU, is_write=True)
        protocol.access(0x40, CPU, is_write=False)

    @pytest.mark.parametrize("kind", ["snoop", "directory"])
    def test_every_stat_lives_in_the_metric_registry(self, kind):
        from repro.mem.coherence.api import protocol_for

        protocol = protocol_for(kind)
        self._drive(protocol)
        registered = set(protocol.metrics.as_dict())
        assert set(protocol.stats()) == registered | {"tracked_lines"}

    @pytest.mark.parametrize("kind", ["snoop", "directory"])
    def test_reset_zeroes_counters_but_keeps_line_state(self, kind):
        from repro.mem.coherence.api import protocol_for

        protocol = protocol_for(kind)
        self._drive(protocol)
        before = protocol.stats()
        assert any(v for name, v in before.items() if name != "tracked_lines")
        tracked = protocol.tracked_lines
        sharers = protocol.sharers(0x40)
        protocol.reset_stats()
        after = protocol.stats()
        for name, value in after.items():
            if name == "tracked_lines":
                continue
            assert value == 0, f"{kind}.{name} survived reset_stats"
        assert protocol.tracked_lines == tracked
        assert protocol.sharers(0x40) == sharers

    def test_detailed_runs_do_not_leak_counters_across_runs(self):
        # A second identical simulation must report identical protocol
        # counters — each run builds a fresh machine, so any accumulation
        # means a counter escaped the per-run registry.
        from repro.config.presets import case_study
        from repro.kernels.registry import kernel
        from repro.sim.detailed import DetailedSimulator
        from repro.sim.mmu import stage_shared_trace
        from repro.taxonomy import AddressSpaceKind

        trace = stage_shared_trace(
            kernel("reduction").build().scaled(0.002), AddressSpaceKind.UNIFIED
        )
        case = case_study("CPU+GPU")
        sim = DetailedSimulator()
        first = sim.run(trace, case=case, coherence="snoop")
        second = sim.run(trace, case=case, coherence="snoop")
        keys = [k for k in first.counters if k.startswith("snoop.")]
        assert keys, "snoop counters missing from the result"
        for key in keys:
            assert second.counters[key] == first.counters[key], key
