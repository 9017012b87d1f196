"""Behavioural tests for the static analysis passes.

Two layers: unit checks that each pass fires (and, as importantly, does
not fire) on hand-built traces, and the acceptance sweep — every paper
kernel must check clean under every paper-correct configuration, fast.
"""

import time

import pytest

from repro.check import CheckConfig, check_trace
from repro.config.presets import CASE_STUDIES
from repro.kernels.registry import all_kernels
from repro.taxonomy import (
    AddressSpaceKind,
    CoherenceKind,
    ConsistencyModel,
    LocalityScheme,
    ProcessingUnit,
)
from repro.trace.mix import InstructionMix
from repro.trace.phase import CommPhase, Direction, ParallelPhase, Segment, SequentialPhase
from repro.trace.stream import KernelTrace

CPU, GPU = ProcessingUnit.CPU, ProcessingUnit.GPU
BASE = 0x2000_0000
KB = 1024


def seg(pu, loads=0, stores=0, base=BASE, footprint=4 * KB, label=""):
    if pu is GPU:
        mix = InstructionMix(simd_loads=loads, simd_stores=stores, int_alu=16)
    else:
        mix = InstructionMix(loads=loads, stores=stores, int_alu=16)
    return Segment(
        pu=pu, mix=mix, base_addr=base, footprint_bytes=footprint, label=label or str(pu)
    )


def h2d(num_objects=1, label="h2d"):
    return CommPhase(
        label=label, direction=Direction.H2D, num_bytes=4 * KB, num_objects=num_objects
    )


def d2h(num_objects=1, label="d2h"):
    return CommPhase(
        label=label, direction=Direction.D2H, num_bytes=4 * KB, num_objects=num_objects
    )


def trace(*phases, name="unit"):
    return KernelTrace(name=name, phases=tuple(phases))


def rules_of(report):
    return [f.rule for f in report.findings]


UNI = CheckConfig(
    address_space=AddressSpaceKind.UNIFIED,
    coherence=CoherenceKind.HARDWARE_DIRECTORY,
    name="uni",
)
UNI_STRONG = CheckConfig(
    address_space=AddressSpaceKind.UNIFIED,
    coherence=CoherenceKind.HARDWARE_DIRECTORY,
    consistency=ConsistencyModel.STRONG,
    name="uni-strong",
)
PAS = CheckConfig(
    address_space=AddressSpaceKind.PARTIALLY_SHARED,
    coherence=CoherenceKind.OWNERSHIP,
    name="pas",
)
DIS = CheckConfig(address_space=AddressSpaceKind.DISJOINT, name="dis")
PAS_EXPLICIT = CheckConfig(
    address_space=AddressSpaceKind.PARTIALLY_SHARED,
    coherence=CoherenceKind.OWNERSHIP,
    locality=LocalityScheme.EXPLICIT_PRIVATE_EXPLICIT_SHARED,
    name="pas-explicit",
)


class TestRacePass:
    def overlap_writes(self):
        return trace(
            h2d(),
            ParallelPhase(
                label="p",
                cpu=seg(CPU, stores=4),
                gpu=seg(GPU, stores=4),
            ),
            d2h(),
        )

    def test_write_write_overlap_races(self):
        report = check_trace(self.overlap_writes(), UNI)
        assert "RACE001" in rules_of(report)
        finding = next(f for f in report.findings if f.rule == "RACE001")
        assert finding.phase_index == 1

    def test_write_read_overlap_races(self):
        t = trace(
            h2d(),
            ParallelPhase(label="p", cpu=seg(CPU, stores=4), gpu=seg(GPU, loads=4)),
            d2h(),
        )
        assert rules_of(check_trace(t, UNI)) == ["RACE002"]

    def test_disjoint_ranges_do_not_race(self):
        t = trace(
            h2d(),
            ParallelPhase(
                label="p",
                cpu=seg(CPU, stores=4),
                gpu=seg(GPU, stores=4, base=BASE + 8 * KB),
            ),
            d2h(),
        )
        assert check_trace(t, UNI).ok

    def test_no_shared_window_means_no_race(self):
        """Under a disjoint space the same virtual range names different
        memories; the overlap is not a race (Table I)."""
        report = check_trace(self.overlap_writes(), DIS)
        assert "RACE001" not in rules_of(report)

    def test_read_read_overlap_is_fine(self):
        t = trace(
            h2d(),
            ParallelPhase(label="p", cpu=seg(CPU, loads=4), gpu=seg(GPU, loads=4)),
            d2h(),
        )
        assert check_trace(t, UNI).ok


class TestConsistencyPass:
    def exchange(self):
        return trace(
            h2d(),
            ParallelPhase(
                label="p",
                cpu=seg(CPU, loads=4, stores=4),
                gpu=seg(GPU, loads=4, stores=4),
            ),
            d2h(),
        )

    def test_weak_model_confirms_sb_hazard(self):
        report = check_trace(self.exchange(), UNI)
        cons = [f for f in report.findings if f.rule == "CONS001"]
        assert len(cons) == 1
        assert cons[0].confirmed is True

    def test_strong_model_rules_out_sb(self):
        """The same exchange under strong consistency: the litmus executor
        cannot reach the bad outcome, so no CONS001 (the race itself
        still stands)."""
        report = check_trace(self.exchange(), UNI_STRONG)
        assert "CONS001" not in rules_of(report)
        assert "RACE001" in rules_of(report)


class TestOwnershipPass:
    def test_compute_without_grant(self):
        t = trace(
            ParallelPhase(
                label="p",
                cpu=seg(CPU, loads=4),
                gpu=seg(GPU, loads=4, base=BASE + 8 * KB),
            ),
            d2h(),
        )
        assert "PAS001" in rules_of(check_trace(t, PAS))

    def test_adjacent_grants_flagged(self):
        t = trace(
            h2d(label="g1"),
            h2d(label="g2"),
            ParallelPhase(
                label="p", cpu=seg(CPU, loads=4), gpu=seg(GPU, loads=4, base=BASE + 8 * KB)
            ),
            d2h(num_objects=2),
        )
        assert "PAS002" in rules_of(check_trace(t, PAS))

    def test_d2h_between_grants_is_not_a_double_grant(self):
        """H2D -> D2H -> H2D is a legal round trip (ownership went back to
        the host in between), not a double acquire."""
        t = trace(
            h2d(),
            d2h(),
            h2d(),
            ParallelPhase(
                label="p", cpu=seg(CPU, loads=4), gpu=seg(GPU, loads=4, base=BASE + 8 * KB)
            ),
            d2h(),
        )
        assert "PAS002" not in rules_of(check_trace(t, PAS))

    def test_release_underflow(self):
        t = trace(
            h2d(num_objects=1),
            ParallelPhase(
                label="p", cpu=seg(CPU, loads=4), gpu=seg(GPU, loads=4, base=BASE + 8 * KB)
            ),
            d2h(num_objects=2),
        )
        findings = check_trace(t, PAS).findings
        assert [f.rule for f in findings] == ["PAS003"]
        assert findings[0].phase_index == 2

    def test_split_releases_within_budget_are_fine(self):
        t = trace(
            h2d(num_objects=2),
            ParallelPhase(
                label="p", cpu=seg(CPU, loads=4), gpu=seg(GPU, loads=4, base=BASE + 8 * KB)
            ),
            d2h(num_objects=1),
            SequentialPhase(label="s", segment=seg(CPU, loads=4)),
            d2h(num_objects=1),
        )
        assert check_trace(t, PAS).ok

    def test_pass_inactive_off_pas(self):
        t = trace(
            ParallelPhase(
                label="p", cpu=seg(CPU, loads=4), gpu=seg(GPU, loads=4, base=BASE + 8 * KB)
            ),
            d2h(),
        )
        assert "PAS001" not in rules_of(check_trace(t, UNI))


class TestTransferPass:
    def test_consume_before_copy(self):
        t = trace(
            ParallelPhase(
                label="p", cpu=seg(CPU, loads=4), gpu=seg(GPU, loads=4, base=BASE + 8 * KB)
            ),
            d2h(),
        )
        assert "DIS001" in rules_of(check_trace(t, DIS))

    def test_copy_then_consume_is_clean(self):
        t = trace(
            h2d(),
            ParallelPhase(
                label="p", cpu=seg(CPU, loads=4), gpu=seg(GPU, loads=4, base=BASE + 8 * KB)
            ),
            d2h(),
        )
        assert check_trace(t, DIS).ok

    def test_back_to_back_same_direction_is_redundant(self):
        t = trace(
            h2d(label="c1"),
            h2d(label="c2"),
            ParallelPhase(
                label="p", cpu=seg(CPU, loads=4), gpu=seg(GPU, loads=4, base=BASE + 8 * KB)
            ),
            d2h(),
        )
        report = check_trace(t, DIS)
        assert rules_of(report) == ["DIS002"]
        assert report.findings[0].phase_index == 1

    def test_compute_between_copies_clears_redundancy(self):
        t = trace(
            h2d(),
            ParallelPhase(
                label="p", cpu=seg(CPU, loads=4), gpu=seg(GPU, loads=4, base=BASE + 8 * KB)
            ),
            h2d(),
            ParallelPhase(
                label="q", cpu=seg(CPU, loads=4), gpu=seg(GPU, loads=4, base=BASE + 8 * KB)
            ),
            d2h(),
        )
        assert check_trace(t, DIS).ok

    def test_opposite_directions_not_redundant(self):
        t = trace(
            h2d(),
            d2h(),
            h2d(),
            ParallelPhase(
                label="p", cpu=seg(CPU, loads=4), gpu=seg(GPU, loads=4, base=BASE + 8 * KB)
            ),
            d2h(),
        )
        assert "DIS002" not in rules_of(check_trace(t, DIS))


class TestStalenessPass:
    def produce_consume(self, with_push):
        phases = [
            h2d(),
            ParallelPhase(
                label="produce",
                cpu=seg(CPU, loads=4),
                gpu=seg(GPU, stores=4, base=BASE + 8 * KB, label="producer"),
            ),
        ]
        if with_push:
            phases.append(d2h(label="push"))
        phases.append(
            SequentialPhase(
                label="consume",
                segment=seg(CPU, loads=4, base=BASE + 8 * KB, label="consumer"),
            )
        )
        phases.append(d2h(label="ret"))
        return trace(*phases)

    def test_unpushed_produce_then_read_is_stale(self):
        report = check_trace(self.produce_consume(with_push=False), PAS_EXPLICIT)
        loc = [f for f in report.findings if f.rule == "LOC001"]
        assert len(loc) == 1
        assert loc[0].phase_index == 2
        assert loc[0].segment == "consumer"

    def test_push_clears_staleness(self):
        report = check_trace(self.produce_consume(with_push=True), PAS_EXPLICIT)
        assert "LOC001" not in rules_of(report)

    def test_pass_inactive_without_explicit_locality(self):
        assert "LOC001" not in rules_of(
            check_trace(self.produce_consume(with_push=False), PAS)
        )

    def test_producer_phase_does_not_self_flag(self):
        """Reads observe the state before the phase's own writes land;
        a produce phase never flags itself."""
        t = trace(
            h2d(),
            ParallelPhase(
                label="p",
                cpu=seg(CPU, loads=4),
                gpu=seg(GPU, loads=4, stores=4, base=BASE + 8 * KB),
            ),
            d2h(),
        )
        assert "LOC001" not in rules_of(check_trace(t, PAS_EXPLICIT))


class TestPaperKernelsClean:
    """Acceptance: zero findings for every kernel under every
    paper-correct configuration (Table I obligations are met by the
    generated traces)."""

    @pytest.mark.parametrize("case_name", sorted(CASE_STUDIES))
    def test_clean_under_case_studies(self, case_name):
        config = CheckConfig.from_case_study(CASE_STUDIES[case_name])
        for kernel in all_kernels():
            report = check_trace(kernel.trace(), config)
            assert report.ok, report.format_text()

    @pytest.mark.parametrize("space", list(AddressSpaceKind))
    def test_clean_under_space_sweep(self, space):
        config = CheckConfig.from_space(space)
        for kernel in all_kernels():
            report = check_trace(kernel.trace(), config)
            assert report.ok, report.format_text()

    @pytest.mark.parametrize("scheme", list(LocalityScheme))
    def test_clean_under_explicit_locality(self, scheme):
        config = CheckConfig(
            address_space=AddressSpaceKind.PARTIALLY_SHARED,
            coherence=CoherenceKind.OWNERSHIP,
            locality=scheme,
            name=f"pas/{scheme.value}",
        )
        for kernel in all_kernels():
            report = check_trace(kernel.trace(), config)
            assert report.ok, report.format_text()

    def test_check_pairs_batches(self):
        configs = [CheckConfig.from_case_study(c) for c in CASE_STUDIES.values()]
        pairs = [(k.trace(), c) for k in all_kernels() for c in configs]
        reports = [check_trace(trace, config) for trace, config in pairs]
        assert len(reports) == len(pairs)
        assert all(r.ok for r in reports)

    def test_checking_a_kernel_is_fast(self):
        """ISSUE budget: under a second per kernel — checking all six
        under all five systems should take a tiny fraction of that."""
        pairs = [
            (k.trace(), CheckConfig.from_case_study(c))
            for k in all_kernels()
            for c in CASE_STUDIES.values()
        ]
        start = time.perf_counter()
        for trace, config in pairs:
            check_trace(trace, config)
        elapsed = time.perf_counter() - start
        assert elapsed < 6.0, f"checking 30 pairs took {elapsed:.2f}s"
