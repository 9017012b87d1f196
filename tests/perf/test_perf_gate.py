"""The perf gate's decisions (tools/perf_gate.py), on synthetic perfbench lines.

No benchmark runs here: each test builds perfbench result lines by hand
and checks which of them :func:`perf_gate.regressions` lets through.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))
import perf_gate  # noqa: E402

LIMITS = perf_gate.bounds(json.loads((REPO_ROOT / "BENCHMARK.json").read_text()))
BASE = {"setup_s": 2.0, "throughput_per_s": 100.0, "latency_p50_ms": 50.0, "peak_rss_mb": 80.0}
SHARE = 0.13


def line(correct=True, attempted=100, failed=0, **metrics):
    values = {**BASE, **metrics}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in values.items()},
    }


def traced(share=SHARE, correct=True):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {perf_gate.SHARE_METRIC: {"value": share, "unit": "ratio"}},
    }


def runs(*lines):
    return {workload: list(lines) for workload in perf_gate.WORKLOADS}


def judge(change, parent=None, change_share=SHARE):
    parent = parent or runs(*[line()] * perf_gate.PAIRS)
    return perf_gate.regressions(LIMITS, parent, change, traced(), traced(change_share))


class TestBounds:
    def test_every_end_to_end_metric_has_a_bound(self):
        assert set(LIMITS) == set(BASE)
        assert {limit["better"] for limit in LIMITS.values()} == {"lower", "higher"}


class TestVerdict:
    def test_identical_runs_pass(self):
        assert judge(runs(*[line()] * perf_gate.PAIRS)) == []

    def test_change_within_every_bound_passes(self):
        near = line(
            setup_s=2.0 * 1.2,
            throughput_per_s=100.0 * 0.8,
            latency_p50_ms=50.0 * 1.2,
            peak_rss_mb=80.0 * 1.2,
        )
        within = SHARE * (1 + perf_gate.SHARE_RISE) * 0.99
        assert judge(runs(*[near] * perf_gate.PAIRS), change_share=within) == []

    @pytest.mark.parametrize(
        "name, value",
        [
            ("setup_s", 2.0 * 1.3),
            ("latency_p50_ms", 50.0 * 1.3),
            ("peak_rss_mb", 80.0 * 1.3),
            ("throughput_per_s", 100.0 * 0.7),
        ],
    )
    def test_worse_than_bound_fails_in_its_direction(self, name, value):
        problems = judge(runs(*[line(**{name: value})] * perf_gate.PAIRS))
        assert len(problems) == len(perf_gate.WORKLOADS)
        assert all(name in problem for problem in problems)

    @pytest.mark.parametrize(
        "name, value",
        [("setup_s", 2.0 * 0.5), ("throughput_per_s", 100.0 * 2.0)],
    )
    def test_better_is_never_a_regression(self, name, value):
        assert judge(runs(*[line(**{name: value})] * perf_gate.PAIRS)) == []

    def test_the_median_decides_not_one_outlier(self):
        slow = line(throughput_per_s=10.0)
        assert judge(runs(slow, *[line()] * (perf_gate.PAIRS - 1))) == []

    def test_incorrect_run_fails(self):
        bad = line(correct=False, failed=0)
        problems = judge(runs(bad, *[line()] * (perf_gate.PAIRS - 1)))
        assert problems and all("correct: false" in p for p in problems)

    def test_incorrect_traced_run_fails(self):
        parent = runs(*[line()] * perf_gate.PAIRS)
        problems = perf_gate.regressions(
            LIMITS, parent, parent, traced(), traced(correct=False)
        )
        assert len(problems) == 1 and "correct: false" in problems[0]

    def test_larger_failed_share_fails(self):
        parent = runs(*[line(failed=1, correct=False)] * perf_gate.PAIRS)
        change = runs(*[line(failed=2, correct=False)] * perf_gate.PAIRS)
        problems = judge(change, parent)
        assert any("failed share" in p for p in problems)

    def test_coherence_share_rise_past_tolerance_fails(self):
        (problem,) = judge(
            runs(*[line()] * perf_gate.PAIRS),
            change_share=SHARE * (1 + perf_gate.SHARE_RISE) * 1.01,
        )
        assert perf_gate.SHARE_METRIC in problem


class TestProtocolWork:
    """Protocol work is judged per unit of simulated work: the traced
    share over the median detailed-grid throughput."""

    @staticmethod
    def judge_grid(throughput, change_share):
        change = runs(*[line()] * perf_gate.PAIRS)
        change[perf_gate.SHARE_WORKLOAD] = [line(throughput_per_s=throughput)] * perf_gate.PAIRS
        return judge(change, change_share=change_share)

    def test_share_rise_from_faster_other_layers_passes(self):
        # Everything but the protocol got faster: the share rose 25% with
        # the throughput, so protocol seconds per instruction are flat.
        assert self.judge_grid(100.0 * 1.25, SHARE * 1.25 * 1.01) == []

    def test_protocol_doing_its_work_twice_fails(self):
        # The protocol's seconds doubled at an unchanged throughput.
        (problem,) = self.judge_grid(100.0, SHARE * 1.6)
        assert perf_gate.SHARE_METRIC in problem

    def test_protocol_work_is_share_over_median_throughput(self):
        grid = [line(throughput_per_s=value) for value in (50.0, 80.0, 100.0, 120.0, 900.0)]
        cost = perf_gate.protocol_cost({perf_gate.SHARE_WORKLOAD: grid}, traced(0.2))
        assert cost == pytest.approx(0.2 / 100.0)


class TestArguments:
    def test_needs_two_checkouts(self, capsys):
        assert perf_gate.main([]) == 2
        assert perf_gate.main([str(REPO_ROOT), str(REPO_ROOT / "src")]) == 2
        assert "perfbench" in capsys.readouterr().err
