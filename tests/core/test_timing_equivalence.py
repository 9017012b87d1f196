"""The timing-equivalence chain, as a property over the feasible space.

:attr:`~repro.core.design_point.DesignPoint.timing_key` documents three
keys, each finer than the last: a point's channel spec, its timing key
and its sweep timing key / job cache key. A rank relies on each link:
one channel pass per spec, one simulation per timing group, one memo
entry per cache key.
"""

from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.comm import CommParams
from repro.config.system import SystemConfig
from repro.core.space import DesignSpace
from repro.exec.job import SimJob, run_sim_job
from repro.kernels.registry import all_kernels
from repro.perf.sweep import SweepPoint
from repro.sim.fast import FastSimulator, _ChannelPass

POINTS = DesignSpace().feasible_points()
GROUPS = {}
for _point in POINTS:
    GROUPS.setdefault(_point.timing_key, []).append(_point)
KERNELS = all_kernels()

#: Two points of one timing group, or any two points.
pairs = st.one_of(
    st.sampled_from(list(GROUPS.values())).flatmap(
        lambda group: st.tuples(st.sampled_from(group), st.sampled_from(group))
    ),
    st.tuples(st.sampled_from(POINTS), st.sampled_from(POINTS)),
)
kernels = st.sampled_from(KERNELS)


@given(pair=pairs, kernel=kernels)
@settings(max_examples=60, deadline=None)
def test_equal_channel_specs_share_one_pass(pair, kernel):
    a, b = (SweepPoint.from_design_point(point) for point in pair)
    specs = [p.channel_spec(SystemConfig(), CommParams()) for p in (a, b)]
    trace = kernel.trace()
    passes = []
    run = _ChannelPass.run

    def counted(priced, channel):
        passes.append(channel)
        return run(priced, channel)

    with mock.patch.object(_ChannelPass, "run", counted):
        FastSimulator().run(trace, a)
        FastSimulator().run(trace, b)
    assert len(passes) == (1 if specs[0] == specs[1] else 2)


@given(pair=pairs, kernel=kernels)
@settings(max_examples=60, deadline=None)
def test_equal_timing_keys_give_equal_results_but_the_label(pair, kernel):
    a, b = pair
    trace = kernel.trace()
    first, second = (
        run_sim_job(SimJob.from_design_point(point, trace=trace)) for point in pair
    )
    assert first.system == a.label and second.system == b.label
    if a.timing_key == b.timing_key:
        specs = [
            SweepPoint.from_design_point(p).channel_spec(SystemConfig(), CommParams())
            for p in pair
        ]
        assert specs[0] == specs[1]
        assert replace(first, system=b.label) == second


@given(pair=pairs, kernel=kernels)
@settings(max_examples=100, deadline=None)
def test_timing_keys_refine_into_cache_keys(pair, kernel):
    trace = kernel.trace()
    a, b = (SimJob.from_design_point(point, trace=trace) for point in pair)
    same_group = pair[0].timing_key == pair[1].timing_key
    assert (a.timing_key() == b.timing_key()) == same_group
    assert (a.cache_key() == b.cache_key()) == (a.timing_key() == b.timing_key())
