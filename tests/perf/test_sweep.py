"""Bit-identity of the batched design-point axis against the per-point path.

The sweep engine (:mod:`repro.perf.sweep`) is only allowed to exist
because it changes nothing: for every point of a batch, the returned
:class:`~repro.sim.results.SimulationResult` must equal — to the last
float bit and counter — what ``DetailedSimulator`` (a walk with N=1)
produces for that point alone. Pinned here for all six paper kernels across the
five case-study systems, for rank-style mechanism/address-space batches
(including duplicate-label relabel-on-scatter), for the variant machine
modes, and as a hypothesis property over singleton batches.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.base import make_channel
from repro.config.presets import case_study, case_study_names
from repro.config.system import SystemConfig
from repro.core.explorer import Explorer
from repro.core.space import DesignSpace
from repro.errors import SimulationError
from repro.exec import ResultCache, TraceCache
from repro.kernels.registry import all_kernels, kernel
from repro.perf.sweep import BatchedDesignPoints, SweepPoint, SweepSimulator
from repro.sim.detailed import DetailedSimulator
from repro.taxonomy import CommMechanism

#: Matches tests/perf/test_parity.py: small enough to keep the suite
#: fast, large enough that every kernel exercises branches, cache misses,
#: and both PUs.
SCALE = 0.002

KERNELS = [k.name for k in all_kernels()]
CASES = list(case_study_names())


def assert_identical(single, batched):
    assert single.kernel == batched.kernel
    assert single.system == batched.system
    assert single.breakdown == batched.breakdown
    assert single.phases == batched.phases
    assert set(single.counters) == set(batched.counters)
    for key, value in single.counters.items():
        assert batched.counters[key] == value, key


def case_points():
    return [SweepPoint(case=case_study(name)) for name in CASES]


def rank_style_points(count=24, stride=60):
    """A duplicate-label-free slice of the feasible space as sweep points."""
    sampled = DesignSpace().feasible_points()[:: stride][:count]
    return [
        SweepPoint(
            mechanism=p.comm,
            async_overlap=p.comm is CommMechanism.DMA_ASYNC,
            address_space=p.address_space,
            system_name=p.label,
        )
        for p in sampled
    ]


def run_single(trace, point, **kwargs):
    """The per-point parity oracle: one DetailedSimulator run per point."""
    sim = DetailedSimulator(**kwargs)
    if point.case is not None:
        return sim.run(trace, case=point.case, system_name=point.system_name)
    channel = make_channel(
        point.mechanism,
        params=sim.comm_params,
        system=sim.system,
        async_overlap=point.async_overlap,
    )
    return sim.run(
        trace,
        channel=channel,
        system_name=point.system_name,
        address_space=point.address_space,
    )


class TestCaseStudyBatchParity:
    """All five case-study systems batched, per kernel."""

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_batch_bit_identical(self, kernel_name):
        trace = kernel(kernel_name).build().scaled(SCALE)
        points = case_points()
        batched = SweepSimulator().run(trace, points)
        for point, result in zip(points, batched):
            assert_identical(run_single(trace, point), result)

    def test_serial_parallel_phases_bit_identical(self):
        trace = kernel("merge sort").build().scaled(SCALE)
        points = case_points()
        batched = SweepSimulator(interleave_parallel=False).run(trace, points)
        for point, result in zip(points, batched):
            single = run_single(trace, point, interleave_parallel=False)
            assert_identical(single, result)


class TestRankStyleBatchParity:
    """Mechanism/address-space batches — the rank fan-out's shape."""

    @pytest.mark.parametrize("interleave", [True, False])
    def test_batch_bit_identical(self, interleave):
        trace = kernel("reduction").build().scaled(SCALE)
        points = rank_style_points()
        batched = SweepSimulator(interleave_parallel=interleave).run(trace, points)
        for point, result in zip(points, batched):
            single = run_single(trace, point, interleave_parallel=interleave)
            assert_identical(single, result)

    def test_duplicate_timing_keys_share_one_simulation(self):
        trace = kernel("reduction").build().scaled(SCALE)
        base, seen = [], set()
        for p in rank_style_points():
            if p.timing_key() not in seen:
                seen.add(p.timing_key())
                base.append(p)
            if len(base) == 4:
                break
        twins = [
            SweepPoint(
                mechanism=p.mechanism,
                async_overlap=p.async_overlap,
                address_space=p.address_space,
                system_name=f"{p.system_name}#twin",
            )
            for p in base
        ]
        batch = BatchedDesignPoints(base + twins)
        assert len(batch.distinct) == len(base)
        results = SweepSimulator().run(trace, batch)
        for original, twin, p in zip(results[: len(base)], results[len(base) :], base):
            assert twin.system == f"{p.system_name}#twin"
            assert original.system == p.system_name
            assert twin.breakdown == original.breakdown
            assert twin.counters == original.counters

    def test_variant_machine_modes_bit_identical(self):
        trace = kernel("convolution").build().scaled(SCALE)
        points = rank_style_points(count=8)
        kwargs = dict(gpu_mode="warp", l1_prefetch=True)
        batched = SweepSimulator(**kwargs).run(trace, points)
        for point, result in zip(points, batched):
            assert_identical(run_single(trace, point, **kwargs), result)


class TestBatchedDesignPoints:
    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError):
            BatchedDesignPoints([])

    def test_point_needs_exactly_one_selector(self):
        with pytest.raises(SimulationError):
            SweepPoint()
        with pytest.raises(SimulationError):
            SweepPoint(case=case_study("CPU+GPU"), mechanism=CommMechanism.PCIE)

    def test_groups_partition_the_distinct_points(self):
        points = rank_style_points() + case_points()
        batch = BatchedDesignPoints(points)
        positions = sorted(pos for group in batch.groups() for pos in group)
        assert positions == list(range(len(batch.distinct)))

    def test_prebuilt_batch_runs_under_the_simulators_defaults(self):
        # A batch carries no machine defaults: points without their own
        # system simulate under the SweepSimulator's, however passed.
        base = SystemConfig()
        system = replace(base, cpu=replace(base.cpu, issue_width=1))
        trace = kernel("reduction").build().scaled(SCALE)
        points = case_points()
        simulator = SweepSimulator(system=system)
        from_list = simulator.run(trace, points)
        from_batch = simulator.run(trace, BatchedDesignPoints(points))
        for listed, batched in zip(from_list, from_batch):
            assert_identical(listed, batched)
        default = SweepSimulator().run(trace, points)
        assert from_batch[0].breakdown != default[0].breakdown


class TestSingletonBatchProperty:
    """Satellite: a singleton batch IS the single-point compiled path."""

    @given(
        k=st.sampled_from(all_kernels()),
        interleave=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_singleton_batch_reproduces_single_point(self, k, interleave):
        trace = k.build().scaled(SCALE)
        point = SweepPoint(case=case_study("CPU+GPU"))
        batched = SweepSimulator(interleave_parallel=interleave).run(
            trace, [point]
        )
        assert len(batched) == 1
        single = run_single(trace, point, interleave_parallel=interleave)
        assert_identical(single, batched[0])


class TestExplorerSweepAxis:
    """The Explorer's detailed grid — one job per point through the
    runner, its only detailed route — is bit-identical to the batched
    design-point axis over the same points."""

    def test_detailed_grid_bit_identical(self):
        explorer = Explorer(
            detailed_scale=SCALE,
            trace_cache=TraceCache(),
            result_cache=ResultCache(),
        )
        kernels = [kernel("reduction"), kernel("merge sort")]
        grid = explorer.run_case_studies_detailed(kernels=kernels)
        assert set(grid) == {k.name for k in kernels}
        for k in kernels:
            trace = k.trace().scaled(SCALE)
            batched = SweepSimulator().run(trace, case_points())
            assert list(grid[k.name]) == CASES
            for single, point_result in zip(grid[k.name].values(), batched):
                assert_identical(single, point_result)
