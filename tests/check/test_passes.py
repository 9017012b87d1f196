"""Unit tests for the dataflow passes (`repro.check.passes`)."""

from repro.check.config import CheckConfig
from repro.check.ir import Space, cfg_from_trace
from repro.check.passes import (
    access_mode_findings,
    available_copies,
    buffer_liveness,
    dead_transfer_findings,
    infer_access_modes,
    reaching_transfers,
    redundant_transfer_findings,
    staleness_findings,
)
from repro.kernels.registry import kernel
from repro.progmodel.spec import access_modes, all_program_specs, program_spec
from repro.taxonomy import (
    AddressSpaceKind,
    CoherenceKind,
    ConsistencyModel,
    LocalityScheme,
    ProcessingUnit,
)
from repro.trace.mix import InstructionMix
from repro.trace.phase import (
    CommPhase,
    Direction,
    ParallelPhase,
    Segment,
    SequentialPhase,
)
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


def _par(cpu=None, gpu=None, label="par"):
    return ParallelPhase(
        label=label,
        cpu=cpu or _seg(ProcessingUnit.CPU, loads=2, label="cpu"),
        gpu=gpu or _seg(ProcessingUnit.GPU, loads=2, stores=2, label="gpu"),
    )


def _h2d(label="h2d", num_bytes=4 * KB):
    return CommPhase(
        label=label, direction=Direction.H2D, num_bytes=num_bytes, num_objects=1
    )


def _d2h(label="d2h", num_bytes=4 * KB):
    return CommPhase(
        label=label, direction=Direction.D2H, num_bytes=num_bytes, num_objects=1
    )


def _trace(*phases, name="t"):
    return KernelTrace(name=name, phases=tuple(phases))


_EXPLICIT = CheckConfig(
    address_space=AddressSpaceKind.PARTIALLY_SHARED,
    coherence=CoherenceKind.OWNERSHIP,
    consistency=ConsistencyModel.WEAK,
    locality=LocalityScheme.EXPLICIT_PRIVATE_EXPLICIT_SHARED,
    name="expl",
)

_IMPLICIT = CheckConfig(
    address_space=AddressSpaceKind.PARTIALLY_SHARED,
    coherence=CoherenceKind.OWNERSHIP,
    consistency=ConsistencyModel.WEAK,
    name="impl",
)


class TestReachingTransfers:
    def test_def_dirties_and_transfer_cleans(self):
        # GPU writes, then D2H pushes the write: device bits must be
        # dirty between the phases and clean after the transfer.
        trace = _trace(
            _par(gpu=_seg(ProcessingUnit.GPU, stores=4, label="w")),
            _d2h(),
        )
        ir = cfg_from_trace(trace)
        solution = reaching_transfers(ir)
        device = ir.atoms.all_mask << len(ir.atoms)
        assert solution.after[1] & device == device  # dirty after the write
        assert solution.after[2] & device == 0  # pushed by the D2H

    def test_staleness_needs_explicit_locality(self):
        # The leading H2D satisfies trace validation (parallel phases
        # need a comm) and only pushes *host* writes — the GPU's later
        # store stays unpushed when the CPU reads it.
        trace = _trace(
            _h2d(label="preload"),
            _par(gpu=_seg(ProcessingUnit.GPU, stores=4, label="prod")),
            _par(cpu=_seg(ProcessingUnit.CPU, loads=4, label="cons")),
        )
        assert list(staleness_findings(cfg_from_trace(trace), _IMPLICIT)) == []
        found = list(staleness_findings(cfg_from_trace(trace), _EXPLICIT))
        assert [f.rule for f in found] == ["LOC001"]
        assert found[0].phase_index == 2
        assert "'prod'" in found[0].message

    def test_transfer_between_producer_and_consumer_silences_loc001(self):
        trace = _trace(
            _par(gpu=_seg(ProcessingUnit.GPU, stores=4, label="prod")),
            _d2h(label="push"),
            _par(cpu=_seg(ProcessingUnit.CPU, loads=4, label="cons")),
        )
        assert list(staleness_findings(cfg_from_trace(trace), _EXPLICIT)) == []


class TestBufferLiveness:
    def test_trailing_h2d_is_dead(self):
        trace = _trace(
            _h2d(label="send"),
            _par(),
            _d2h(label="ret"),
            _h2d(label="preload-unused"),
        )
        found = list(dead_transfer_findings(cfg_from_trace(trace)))
        assert [f.rule for f in found] == ["OPT001"]
        assert found[0].phase_index == 3
        assert found[0].bytes_saved == 4 * KB
        assert found[0].space == "device"

    def test_final_d2h_is_live_because_results_escape(self):
        # The exit boundary keeps host atoms live: a trailing D2H that
        # returns results is NOT dead.
        trace = _trace(_h2d(), _par(), _d2h())
        assert list(dead_transfer_findings(cfg_from_trace(trace))) == []

    def test_liveness_boundary_is_host_only(self):
        ir = cfg_from_trace(_trace(_h2d(), _par()))
        solution = buffer_liveness(ir)
        exit_index = len(ir.nodes) - 1
        host = ir.atoms.all_mask
        assert solution.after[exit_index] == host  # device half dead


class TestAvailableCopies:
    def test_resend_of_unmodified_data_is_redundant(self):
        trace = _trace(
            _h2d(label="send"),
            _par(gpu=_seg(ProcessingUnit.GPU, loads=4, stores=4, label="g")),
            _h2d(label="resend"),
            _par(gpu=_seg(ProcessingUnit.GPU, loads=4, stores=4, label="g2")),
            _d2h(label="ret"),
        )
        found = list(redundant_transfer_findings(cfg_from_trace(trace)))
        assert [f.rule for f in found] == ["OPT002"]
        assert found[0].phase_index == 2
        assert found[0].space == "device"

    def test_host_write_invalidates_the_device_copy(self):
        # A sequential CPU store between the two H2Ds makes the resend
        # necessary (sequential, not parallel: a concurrent GPU write to
        # the same atoms would be a race, and within one node gen beats
        # kill, masking the invalidation).
        trace = _trace(
            _h2d(label="send"),
            _par(gpu=_seg(ProcessingUnit.GPU, loads=4, stores=4, label="g")),
            SequentialPhase(
                label="host-update",
                segment=_seg(ProcessingUnit.CPU, stores=4, label="host-w"),
            ),
            _h2d(label="resend"),
            _par(gpu=_seg(ProcessingUnit.GPU, loads=4, stores=4, label="g2")),
            _d2h(label="ret"),
        )
        assert list(redundant_transfer_findings(cfg_from_trace(trace))) == []

    def test_entry_boundary_host_resident_device_empty(self):
        ir = cfg_from_trace(_trace(_h2d(), _par()))
        solution = available_copies(ir)
        assert solution.before[0] == ir.atoms.all_mask


class TestAccessModeInference:
    def test_inference_matches_the_declared_modes_for_every_kernel(self):
        """The structural inference (from the DISJOINT lowering's
        transfers) recovers exactly what access_modes() reads off the
        spec's direction fields, for all six paper kernels."""
        for spec in all_program_specs():
            assert infer_access_modes(spec) == access_modes(spec), spec.name

    def test_inf001_fires_on_kmean_under_pas(self):
        trace = kernel("k-mean").trace()
        found = list(access_mode_findings(cfg_from_trace(trace), _IMPLICIT))
        assert [f.rule for f in found] == ["INF001"]
        assert "saves 2 communication line(s)" in found[0].message
        assert "declareAccess(points, read);" in found[0].fix_hint
        assert "declareAccess(partials, reduce);" in found[0].fix_hint

    def test_inf001_silent_under_disjoint(self):
        """Declarations elide nothing under DIS (Table V: 3B -> 3B+N
        grows); the rule must not fire."""
        trace = kernel("k-mean").trace()
        config = CheckConfig(
            address_space=AddressSpaceKind.DISJOINT,
            coherence=CoherenceKind.NONE,
            consistency=ConsistencyModel.WEAK,
            name="dis",
        )
        assert list(access_mode_findings(cfg_from_trace(trace), config)) == []

    def test_inf001_silent_when_already_declared(self):
        trace = kernel("k-mean").trace()
        config = CheckConfig(
            address_space=AddressSpaceKind.PARTIALLY_SHARED,
            coherence=CoherenceKind.OWNERSHIP,
            consistency=ConsistencyModel.WEAK,
            name="declared",
            declared_writes=((BASE, BASE + 4 * KB),),
        )
        assert list(access_mode_findings(cfg_from_trace(trace), config)) == []

    def test_inf001_silent_on_unknown_traces(self):
        trace = _trace(_h2d(), _par(), _d2h(), name="not-a-paper-kernel")
        assert list(access_mode_findings(cfg_from_trace(trace), _IMPLICIT)) == []


class TestSpaceHelpers:
    def test_space_string_matches_finding_payload(self):
        assert str(Space.HOST) == "host" and str(Space.DEVICE) == "device"
