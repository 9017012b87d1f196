"""Tests for kernel traces."""

import hashlib
import pickle

import pytest

from repro.errors import TraceError
from repro.taxonomy import ProcessingUnit
from repro.trace.mix import InstructionMix
from repro.trace.phase import CommPhase, Direction, ParallelPhase, Segment, SequentialPhase
from repro.trace.stream import KernelTrace


def seg(pu, total, footprint=1024):
    loads = total // 4
    mix = InstructionMix(loads=loads, int_alu=total - loads)
    return Segment(pu=pu, mix=mix, base_addr=0, footprint_bytes=footprint)


@pytest.fixture
def trace():
    return KernelTrace(
        name="toy",
        phases=(
            CommPhase(direction=Direction.H2D, num_bytes=4096, num_objects=2),
            ParallelPhase(cpu=seg(ProcessingUnit.CPU, 1000), gpu=seg(ProcessingUnit.GPU, 800)),
            CommPhase(direction=Direction.D2H, num_bytes=1024),
            SequentialPhase(segment=seg(ProcessingUnit.CPU, 500)),
        ),
    )


class TestStatistics:
    def test_cpu_instructions(self, trace):
        assert trace.cpu_instructions == 1000

    def test_gpu_instructions(self, trace):
        assert trace.gpu_instructions == 800

    def test_serial_instructions(self, trace):
        assert trace.serial_instructions == 500

    def test_num_communications(self, trace):
        assert trace.num_communications == 2

    def test_initial_transfer(self, trace):
        assert trace.initial_transfer_bytes == 4096

    def test_total_transfer(self, trace):
        assert trace.total_transfer_bytes == 5120

    def test_phase_accessors(self, trace):
        assert len(trace.sequential_phases) == 1
        assert len(trace.parallel_phases) == 1
        assert len(trace.comm_phases) == 2


class TestValidation:
    def test_requires_name(self):
        with pytest.raises(TraceError):
            KernelTrace(name="", phases=(CommPhase(num_bytes=1),))

    def test_requires_phases(self):
        with pytest.raises(TraceError):
            KernelTrace(name="empty", phases=())

    def test_parallel_without_comm_is_invalid(self):
        with pytest.raises(TraceError):
            KernelTrace(
                name="no-comm",
                phases=(
                    ParallelPhase(
                        cpu=seg(ProcessingUnit.CPU, 10), gpu=seg(ProcessingUnit.GPU, 10)
                    ),
                ),
            )

    def test_sequential_only_is_valid(self):
        trace = KernelTrace(
            name="serial-only",
            phases=(SequentialPhase(segment=seg(ProcessingUnit.CPU, 10)),),
        )
        assert trace.num_communications == 0


class TestScaling:
    def test_scaled_halves_compute(self, trace):
        half = trace.scaled(0.5)
        assert half.cpu_instructions == 500
        assert half.gpu_instructions == 400
        assert half.serial_instructions == 250

    def test_scaled_preserves_communication(self, trace):
        half = trace.scaled(0.5)
        assert half.num_communications == trace.num_communications
        assert half.initial_transfer_bytes == trace.initial_transfer_bytes

    def test_scaled_preserves_name_and_structure(self, trace):
        half = trace.scaled(0.25)
        assert half.name == trace.name
        assert len(half.phases) == len(trace.phases)

    def test_scaled_rejects_nonpositive(self, trace):
        with pytest.raises(TraceError):
            trace.scaled(0.0)


class TestMemo:
    """A trace's stored hash and the fast model's pricing memo are
    invisible to equality, hashing, repr, pickling and store keys."""

    @staticmethod
    def traces(trace):
        from repro.kernels.registry import all_kernels

        return [trace, *(k.trace() for k in all_kernels())]

    @staticmethod
    def twin(trace):
        return KernelTrace(name=trace.name, phases=trace.phases)

    def test_memo_is_out_of_eq_hash_repr_pickle_and_store_keys(self, trace):
        from repro.perf.sweep import SweepPoint
        from repro.sim.fast import FastSimulator
        from repro.store.keys import PICKLE_PROTOCOL, stable_digest
        from repro.taxonomy import CommMechanism

        for fresh in self.traces(trace):
            before = (pickle.dumps(fresh, protocol=PICKLE_PROTOCOL), repr(fresh))
            for mechanism in (CommMechanism.PCIE, CommMechanism.DMA_ASYNC):
                FastSimulator().run(fresh, SweepPoint(mechanism=mechanism))
            assert hash(fresh) == hash((fresh.name, fresh.phases))
            assert len(vars(fresh)) == 4  # the fields, the hash, the pricing
            assert (pickle.dumps(fresh, protocol=PICKLE_PROTOCOL), repr(fresh)) == before
            assert stable_digest(fresh) == hashlib.sha256(before[0]).hexdigest()
            twin = self.twin(fresh)
            assert twin == fresh and hash(twin) == hash(fresh)
            copy = pickle.loads(before[0])
            assert set(vars(copy)) == {"name", "phases"}
            assert copy == fresh and hash(copy) == hash(fresh)

    def test_hash_is_computed_once_per_instance(self, trace):
        value = hash(trace)
        vars(trace)["_hash"] = value + 1
        assert hash(trace) == value + 1
        assert hash(self.twin(trace)) == value
