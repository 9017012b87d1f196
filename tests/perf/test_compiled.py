"""Compiled-segment decode fidelity and cache behaviour.

The compiled hot path is only correct if a :class:`CompiledSegment`
decodes to *exactly* the stream ``Segment.instructions()`` generates —
the hypothesis property here pins that for random mixes on both PUs.
``from_segment`` computes its events in closed form from the mix, so
:func:`encode_raw_ops` (one pass over ``Segment.raw_ops``, the
expansion's single source of truth) is its oracle: every kernel segment
and a property over mix edge cases must encode the same on both.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import CODE_TO_OPCODE, OPCODE_TO_CODE, Opcode
from repro.kernels.registry import all_kernels, kernel
from repro.perf.compiled import (
    _SHARED_EVENTS,
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


_STORE_CODES = {OPCODE_TO_CODE[op] for op in (Opcode.STORE, Opcode.SIMD_STORE)}
_RECORD_CODES = _STORE_CODES | {
    OPCODE_TO_CODE[op] for op in (Opcode.LOAD, Opcode.SIMD_LOAD, Opcode.BRANCH)
}


def encode_raw_ops(segment):
    """``(events, length)`` by one pass over ``segment.raw_ops()``: each
    memory or branch record becomes one event, each maximal run of the
    other records one compute-run event, and run and branch events come
    from the process-wide shared table."""
    share = _SHARED_EVENTS.setdefault
    events = []
    run = 0
    pc = PC_BASE
    for code, addr, size, taken in segment.raw_ops():
        pc += 4
        if code not in _RECORD_CODES:
            run += 1
            continue
        if run:
            event = (EV_COMPUTE_RUN, run, 0, 0)
            events.append(share(event, event))
            run = 0
        if code == OPCODE_TO_CODE[Opcode.BRANCH]:
            event = (EV_BRANCH, taken, pc, 0)
            events.append(share(event, event))
        else:
            events.append((EV_MEMORY, addr, size, code in _STORE_CODES))
    if run:
        event = (EV_COMPUTE_RUN, run, 0, 0)
        events.append(share(event, event))
    return events, (pc - PC_BASE) // 4


def assert_encodes_as_raw_ops(segment):
    """The closed-form compilation equals the ``raw_ops`` encoding: the
    same events with the same field types (``True`` is not ``1``), the
    same length, and the very same shared run and branch tuples."""
    compiled = CompiledSegment.from_segment(segment)
    events, length = encode_raw_ops(segment)
    assert compiled.length == length
    assert compiled.events == events
    for got, want in zip(compiled.events, events):
        assert [type(field) for field in got] == [type(field) for field in want]
        if got[0] != EV_MEMORY:
            assert got is want


def _trace_segments(trace):
    for phase in trace.phases:
        for name in ("segment", "cpu", "gpu"):
            segment = getattr(phase, name, None)
            if segment is not None:
                yield segment


#: Kernels small enough to check as built, at scale 1.0 (under 0.5M
#: instructions); the others' full traces hold 1-17M instructions, too many
#: to expand twice in a unit test, and reach the same closed form through
#: the scaled mixes and the mix properties below.
_FULL_SCALE_KERNELS = ("reduction", "merge sort")


@st.composite
def edge_segments(draw):
    """A segment whose mix is one of the expansion's edge cases."""
    shape = draw(
        st.sampled_from(
            ["no memory", "remainder past memory", "branches only",
             "compute ends mid-slot", "simd memory"]
        )
    )
    small = st.integers(min_value=0, max_value=30)
    positive = st.integers(min_value=1, max_value=30)
    pu = draw(st.sampled_from([ProcessingUnit.CPU, ProcessingUnit.GPU]))
    simd = pu is ProcessingUnit.GPU
    compute = dict(
        int_alu=draw(small), fp_alu=draw(small), simd_alu=draw(small) if simd else 0
    )
    if shape == "no memory":
        mix = InstructionMix(**compute, branches=draw(small))
    elif shape == "remainder past memory":
        # Few memory ops, many others: remainder exceeds memory_ops.
        mix = InstructionMix(
            **compute,
            loads=draw(st.integers(min_value=1, max_value=2)),
            stores=draw(st.integers(min_value=0, max_value=1)),
            branches=draw(st.integers(min_value=10, max_value=60)),
        )
        m = mix.memory_ops
        other = mix.compute_ops + mix.branches
        assume(other - other // (m + 1) * m > m)
    elif shape == "branches only":
        mix = InstructionMix(branches=draw(positive), loads=draw(small), stores=draw(small))
    elif shape == "compute ends mid-slot":
        # At least two others per slot, and the last compute op lands
        # inside a slot with branches after it.
        mix = InstructionMix(
            **compute,
            loads=draw(st.integers(min_value=1, max_value=6)),
            branches=draw(st.integers(min_value=20, max_value=60)),
        )
        m = mix.memory_ops
        per_slot = (mix.compute_ops + mix.branches) // (m + 1)
        assume(per_slot >= 2 and mix.compute_ops % per_slot)
    else:
        pu = ProcessingUnit.GPU
        mix = InstructionMix(
            **compute,
            simd_loads=draw(small),
            simd_stores=draw(small),
            loads=draw(small),
            stores=draw(small),
            branches=draw(small),
        )
        assume(mix.simd_loads or mix.simd_stores)
    footprint = 256 if mix.memory_ops else 0
    return Segment(pu=pu, mix=mix, base_addr=4096, footprint_bytes=footprint, label="edge")


class TestClosedFormCompile:
    """Every kernel's segments, as built, scaled and staged into each
    address space, compile to their ``raw_ops`` encoding."""

    @pytest.mark.parametrize("name", [k.name for k in all_kernels()])
    def test_kernel_segments_scaled_and_staged(self, name):
        from repro.addrspace.base import make_address_space
        from repro.sim.mmu import stage_trace
        from repro.taxonomy import AddressSpaceKind

        trace = kernel(name).build()
        smallest = trace.scaled(0.002)
        variants = [trace.scaled(scale) for scale in (0.002, 0.003, 0.02)]
        # Staging rewrites base addresses (and so the memory events).
        variants += [stage_trace(smallest, make_address_space(kind)) for kind in AddressSpaceKind]
        if name in _FULL_SCALE_KERNELS:
            variants.append(trace.scaled(1.0))
        checked = 0
        for variant in variants:
            for segment in _trace_segments(variant):
                assert_encodes_as_raw_ops(segment)
                checked += 1
        assert checked >= 3 * len(variants)

    @given(segment=segments())
    @settings(max_examples=150, deadline=None)
    def test_random_segments(self, segment):
        assert_encodes_as_raw_ops(segment)

    @given(segment=edge_segments())
    @example(segment=Segment(pu=ProcessingUnit.CPU, mix=InstructionMix(int_alu=5, branches=40)))
    @example(segment=Segment(pu=ProcessingUnit.CPU, mix=InstructionMix()))
    @example(
        segment=Segment(
            pu=ProcessingUnit.CPU,
            mix=InstructionMix(int_alu=3, loads=1, branches=17),
            footprint_bytes=64,
        )
    )
    @example(
        segment=Segment(
            pu=ProcessingUnit.GPU,
            mix=InstructionMix(branches=33, loads=2, stores=1),
            footprint_bytes=64,
        )
    )
    @example(
        segment=Segment(
            pu=ProcessingUnit.GPU,
            mix=InstructionMix(simd_alu=5, fp_alu=1, simd_loads=4, simd_stores=3, branches=9),
            footprint_bytes=32,
            elem_bytes=16,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_mix_edge_cases(self, segment):
        assert_encodes_as_raw_ops(segment)


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
