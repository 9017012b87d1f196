"""Compiled-segment decode fidelity and cache behaviour.

The compiled hot path is only correct if a :class:`CompiledSegment`
decodes to *exactly* the stream ``Segment.instructions()`` generates —
the hypothesis property here pins that for random mixes on both PUs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import CODE_TO_OPCODE, OPCODE_TO_CODE, Opcode
from repro.perf.compiled import (
    EV_BRANCH,
    EV_COMPUTE_RUN,
    EV_MEMORY,
    PC_BASE,
    SHARED_COMPILE_CACHE,
    CompiledSegment,
    SegmentCompileCache,
    compile_segment,
)
from repro.taxonomy import ProcessingUnit
from repro.trace.instruction import Instruction
from repro.trace.mix import InstructionMix
from repro.trace.phase import Segment

counts = st.integers(min_value=0, max_value=40)


@st.composite
def segments(draw):
    pu = draw(st.sampled_from([ProcessingUnit.CPU, ProcessingUnit.GPU]))
    simd = pu is ProcessingUnit.GPU
    mix = InstructionMix(
        int_alu=draw(counts),
        fp_alu=draw(counts),
        simd_alu=draw(counts) if simd else 0,
        loads=draw(counts),
        stores=draw(counts),
        simd_loads=draw(counts) if simd else 0,
        simd_stores=draw(counts) if simd else 0,
        branches=draw(counts),
    )
    elem_bytes = draw(st.sampled_from([4, 8, 16]))
    footprint = draw(st.integers(min_value=0, max_value=1 << 16))
    if mix.memory_ops > 0:
        footprint = max(footprint, elem_bytes)
    base_addr = draw(st.integers(min_value=0, max_value=1 << 24))
    return Segment(
        pu=pu,
        mix=mix,
        base_addr=base_addr,
        footprint_bytes=footprint,
        elem_bytes=elem_bytes,
        label="prop",
    )


class TestDecodeFidelity:
    @given(segment=segments())
    @settings(max_examples=150, deadline=None)
    def test_decodes_to_exact_instruction_stream(self, segment):
        compiled = CompiledSegment.from_segment(segment)
        assert list(compiled.instructions()) == list(segment.instructions())

    @given(segment=segments())
    @settings(max_examples=100, deadline=None)
    def test_events_reexpand_to_instruction_stream(self, segment):
        compiled = CompiledSegment.from_segment(segment)
        stream = list(segment.instructions())
        assert compiled.length == len(stream) == len(compiled)
        expected = []
        for index, inst in enumerate(stream):
            if inst.opcode.is_memory:
                expected.append((EV_MEMORY, inst.addr, inst.size, inst.opcode.is_store))
            elif inst.opcode is Opcode.BRANCH:
                expected.append((EV_BRANCH, inst.taken, PC_BASE + 4 * (index + 1), 0))
            else:
                expected.append(EV_COMPUTE_RUN)
        expanded = []
        for event in compiled.events:
            if event[0] == EV_COMPUTE_RUN:
                assert event[1] > 0 and event[2:] == (0, 0)
                expanded.extend([EV_COMPUTE_RUN] * event[1])
            else:
                expanded.append(event)
        assert expanded == expected

    @given(segment=segments())
    @settings(max_examples=100, deadline=None)
    def test_events_cover_every_instruction_once(self, segment):
        compiled = CompiledSegment.from_segment(segment)
        total = sum(
            a if kind == EV_COMPUTE_RUN else 1
            for kind, a, _b, _c in compiled.events
        )
        assert total == compiled.length
        # Event kinds agree with the array records they summarize.
        memory = sum(1 for kind, *_ in compiled.events if kind == EV_MEMORY)
        branch = sum(1 for kind, *_ in compiled.events if kind == EV_BRANCH)
        assert memory == segment.mix.memory_ops
        assert branch == segment.mix.branches


class TestArrays:
    def test_branch_events_carry_advancing_pc(self):
        segment = Segment(pu=ProcessingUnit.CPU, mix=InstructionMix(branches=3))
        compiled = CompiledSegment.from_segment(segment)
        pcs = [b for kind, _a, b, _c in compiled.events if kind == EV_BRANCH]
        # The legacy CPU loop advances pc by 4 *before* predicting.
        assert pcs == [0x400004, 0x400008, 0x40000C]

    def test_opcode_codes_round_trip(self):
        for code, opcode in enumerate(CODE_TO_OPCODE):
            assert OPCODE_TO_CODE[opcode] == code


class TestCompileCache:
    def make_segment(self, base_addr=0):
        return Segment(
            pu=ProcessingUnit.CPU,
            mix=InstructionMix(int_alu=4, loads=2),
            base_addr=base_addr,
            footprint_bytes=64,
        )

    def test_equal_segments_share_one_compilation(self):
        cache = SegmentCompileCache()
        first = cache.get(self.make_segment())
        second = cache.get(self.make_segment())
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_segments_compile_separately(self):
        cache = SegmentCompileCache()
        a = cache.get(self.make_segment(base_addr=0))
        b = cache.get(self.make_segment(base_addr=4096))
        assert a is not b
        assert cache.misses == 2

    def test_lru_bound(self):
        cache = SegmentCompileCache(capacity=2)
        segs = [self.make_segment(base_addr=4096 * i) for i in range(3)]
        for seg in segs:
            cache.get(seg)
        assert len(cache) == 2
        # Oldest entry evicted: re-fetching it recompiles.
        first_again = cache.get(segs[0])
        assert cache.misses == 4
        assert first_again.length == 6

    def test_stats_shape(self):
        cache = SegmentCompileCache()
        cache.get(self.make_segment())
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 1
        assert 0.0 <= stats["hit_rate"] <= 1.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SegmentCompileCache(capacity=0)

    def test_shared_cache_entry_point(self):
        segment = self.make_segment(base_addr=1 << 22)
        compiled = compile_segment(segment)
        assert SHARED_COMPILE_CACHE.get(segment) is compiled

    @pytest.mark.parametrize("simulator", ["detailed", "sweep"])
    def test_empty_private_cache_is_used(self, simulator):
        """An empty private cache is falsy (``__len__`` is 0) but must
        still replace the shared one, not fall back to it."""
        from repro.config.presets import case_study
        from repro.kernels.registry import kernel
        from repro.perf.sweep import SweepPoint, SweepSimulator
        from repro.sim.detailed import DetailedSimulator

        trace = kernel("reduction").build().scaled(0.002)
        private = SegmentCompileCache()
        shared_before = SHARED_COMPILE_CACHE.stats()
        if simulator == "detailed":
            DetailedSimulator(compile_cache=private).run(
                trace, case=case_study("Fusion")
            )
        else:
            SweepSimulator(compile_cache=private).run(
                trace, [SweepPoint(case=case_study("Fusion"))]
            )
        assert private.misses > 0
        assert SHARED_COMPILE_CACHE.stats() == shared_before


class TestEagerEvents:
    """``from_segment`` builds the whole event list, and it rides along
    through pickling: a worker receiving a cache-warm compilation never
    compiles the segment again."""

    def make_segment(self):
        return Segment(
            pu=ProcessingUnit.CPU,
            mix=InstructionMix(int_alu=4, loads=2, branches=1),
            footprint_bytes=64,
        )

    def test_from_segment_builds_events_eagerly(self):
        segment = self.make_segment()
        compiled = CompiledSegment.from_segment(segment)
        assert type(compiled.events) is list
        covered = sum(
            event[1] if event[0] == EV_COMPUTE_RUN else 1 for event in compiled.events
        )
        assert covered == compiled.length == len(list(segment.instructions()))

    def test_cache_warm_worker_makes_zero_build_calls(self, monkeypatch):
        import pickle

        cache = SegmentCompileCache()
        warm = cache.get(self.make_segment())
        # Ship the warm compilation to a "worker" the way the pool does.
        shipped = pickle.loads(pickle.dumps(warm))
        calls = []
        original = CompiledSegment.from_segment.__func__

        def counting(cls, segment):
            calls.append(segment)
            return original(cls, segment)

        monkeypatch.setattr(CompiledSegment, "from_segment", classmethod(counting))
        assert cache.get(self.make_segment()) is warm
        assert shipped.events == warm.events and shipped.length == warm.length
        assert calls == []
        # The counter does see a cold compile.
        SegmentCompileCache().get(self.make_segment())
        assert len(calls) == 1

    def test_hand_constructed_segments_still_build_lazily(self, monkeypatch):
        """A hand-constructed segment holds the events it is given and
        compiles nothing; its Instruction objects are still generated on
        demand by ``instructions()``."""
        eager = CompiledSegment.from_segment(self.make_segment())
        calls = []
        original = CompiledSegment.from_segment.__func__

        def counting(cls, segment):
            calls.append(segment)
            return original(cls, segment)

        monkeypatch.setattr(CompiledSegment, "from_segment", classmethod(counting))
        compiled = CompiledSegment(eager.segment, eager.length, eager.events)
        assert compiled.events is eager.events and len(compiled) == len(eager)
        stream = compiled.instructions()
        assert iter(stream) is stream
        assert list(stream) == list(eager.segment.instructions())
        assert calls == []


class TestSharedEvents:
    def test_run_and_branch_tuples_shared_across_spaces(self):
        """One segment staged into two address spaces: only the memory
        records (the addresses staging rewrote) are new objects."""
        from repro.addrspace.base import make_address_space
        from repro.kernels.registry import kernel
        from repro.sim.mmu import stage_trace
        from repro.taxonomy import AddressSpaceKind

        trace = kernel("reduction").build().scaled(0.002)
        first, second = (
            stage_trace(trace, make_address_space(kind)).parallel_phases[0].gpu
            for kind in (AddressSpaceKind.DISJOINT, AddressSpaceKind.ADSM)
        )
        assert first.base_addr != second.base_addr
        cache = SegmentCompileCache()
        a, b = cache.get(first).events, cache.get(second).events
        assert cache.misses == 2 and len(a) == len(b)
        kinds = {event[0] for event in a}
        assert kinds == {EV_COMPUTE_RUN, EV_MEMORY, EV_BRANCH}
        for x, y in zip(a, b):
            if x[0] == EV_MEMORY:
                assert x[1] != y[1] and x is not y
            else:
                assert x is y


class TestInstructionObjects:
    def test_decoded_instructions_are_valid(self):
        segment = Segment(
            pu=ProcessingUnit.GPU,
            mix=InstructionMix(simd_alu=2, simd_loads=2, branches=1),
            footprint_bytes=128,
        )
        for inst in CompiledSegment.from_segment(segment).instructions():
            assert isinstance(inst, Instruction)
            inst.validate()
