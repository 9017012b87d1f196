"""Unit tests for the analysis IR (`repro.check.ir`)."""

from repro.check.ir import AddressAtoms, EventKind, Space, cfg_from_trace
from repro.taxonomy import ProcessingUnit
from repro.trace.mix import InstructionMix
from repro.trace.phase import CommPhase, Direction, ParallelPhase, Segment
from repro.trace.stream import KernelTrace

KB = 1024
BASE = 0x1000_0000


def _seg(pu, loads=0, stores=0, base=BASE, footprint=4 * KB, label="seg"):
    if pu is ProcessingUnit.GPU:
        mix = InstructionMix(simd_loads=loads, simd_stores=stores, int_alu=8)
    else:
        mix = InstructionMix(loads=loads, stores=stores, int_alu=8)
    return Segment(
        pu=pu, mix=mix, base_addr=base, footprint_bytes=footprint, label=label
    )


class TestSpace:
    def test_other_is_an_involution(self):
        for space in Space:
            assert space.other.other is space

    def test_pu_round_trips(self):
        for space in Space:
            assert Space.of(space.pu) is space


class TestAddressAtoms:
    def test_overlapping_spans_are_cut_at_every_boundary(self):
        atoms = AddressAtoms([(0, 100), (50, 150)])
        assert atoms.atoms == ((0, 50), (50, 100), (100, 150))

    def test_gaps_between_spans_are_not_atoms(self):
        atoms = AddressAtoms([(0, 10), (20, 30)])
        assert atoms.atoms == ((0, 10), (20, 30))

    def test_mask_for_selects_contained_atoms_only(self):
        atoms = AddressAtoms([(0, 100), (50, 150)])
        assert atoms.mask_for(0, 100) == 0b011
        assert atoms.mask_for(50, 150) == 0b110
        assert atoms.mask_for(0, 150) == atoms.all_mask == 0b111
        # A range strictly inside one atom contains no whole atom.
        assert atoms.mask_for(60, 70) == 0

    def test_bytes_of_sums_selected_atom_sizes(self):
        atoms = AddressAtoms([(0, 100), (50, 150)])
        assert atoms.bytes_of(atoms.all_mask) == 150
        assert atoms.bytes_of(0b010) == 50

    def test_spans_of_merges_contiguous_atoms(self):
        atoms = AddressAtoms([(0, 100), (50, 150)])
        assert atoms.spans_of(0b111) == ((0, 150),)
        assert atoms.spans_of(0b101) == ((0, 50), (100, 150))

    def test_empty_and_degenerate_spans(self):
        assert AddressAtoms([]).atoms == ()
        assert AddressAtoms([(5, 5)]).atoms == ()
        assert AddressAtoms([]).all_mask == 0


class TestTraceLowering:
    def _trace(self):
        return KernelTrace(
            name="t",
            phases=(
                CommPhase(
                    label="send",
                    direction=Direction.H2D,
                    num_bytes=4 * KB,
                    num_objects=2,
                ),
                ParallelPhase(
                    label="work",
                    cpu=_seg(ProcessingUnit.CPU, loads=4, label="c"),
                    gpu=_seg(ProcessingUnit.GPU, loads=2, stores=2, label="g"),
                ),
            ),
        )

    def test_linear_shape_with_entry_and_exit(self):
        ir = cfg_from_trace(self._trace())
        kinds = [node.kind for node in ir.nodes]
        assert kinds == ["entry", "comm", "parallel", "exit"]
        assert [n.index for n in ir.nodes] == list(range(len(ir.nodes)))
        assert ir.nodes[0].phase_index == -1
        assert ir.nodes[1].phase_index == 0

    def test_comm_phase_events(self):
        ir = cfg_from_trace(self._trace())
        events = ir.nodes[1].events
        kinds = {e.kind for e in events}
        assert kinds == {EventKind.TRANSFER, EventKind.RELEASE, EventKind.ACQUIRE}
        transfer = next(e for e in events if e.kind is EventKind.TRANSFER)
        # H2D lands in the device space and conservatively covers all atoms.
        assert transfer.space is Space.DEVICE
        assert transfer.mask == ir.atoms.all_mask
        assert transfer.num_bytes == 4 * KB
        release = next(e for e in events if e.kind is EventKind.RELEASE)
        assert release.space is Space.HOST and release.num_objects == 2

    def test_segment_use_precedes_def(self):
        ir = cfg_from_trace(self._trace())
        gpu_events = [
            e for e in ir.nodes[2].events if e.space is Space.DEVICE
        ]
        assert [e.kind for e in gpu_events] == [EventKind.USE, EventKind.DEF]

    def test_read_only_segment_has_no_def(self):
        ir = cfg_from_trace(self._trace())
        cpu_events = [e for e in ir.nodes[2].events if e.space is Space.HOST]
        assert [e.kind for e in cpu_events] == [EventKind.USE]
