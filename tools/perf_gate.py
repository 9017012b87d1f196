#!/usr/bin/env python3
"""Performance gate: run perfbench from two checkouts and compare them.

Usage::

    python tools/perf_gate.py PARENT_DIR CHANGE_DIR

Runs ``perfbench/run.py`` from each checkout; each run puts its own
``src/`` first on the path, so each side measures its own program. Both
sides run ``detailed-grid`` and ``detailed-sweep`` with the same seed and
``--seconds``, in pairs that alternate which side goes first, plus one
``--trace 1`` run of ``detailed-grid`` per side. The change fails when:

- any run reports ``correct: false``;
- it fails a larger share of operations than the parent on a workload;
- an end-to-end metric's median is worse than the parent's by more than
  the metric's ``bound`` in the parent's ``BENCHMARK.json``, judged in
  the direction of its ``better`` field;
- detailed-grid ``mem.coherence.share`` rises by more than
  :data:`SHARE_RISE` relative to the parent. Protocol work is about an
  eighth of a detailed-grid round, so a slower protocol moves the
  end-to-end metrics by a fraction of its own slowdown, and the share
  by most of it.

The bounds come from the parent, so a change cannot loosen the gate it
is judged by. Exit 0 when the change passes, 1 when it regresses (every
failed check is printed with its workload and metric), 2 on bad
arguments or a run that printed no result.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

#: The workloads that drive the compiled core loops (``detailed-grid``
#: walks one point at a time, ``detailed-sweep`` the deduplicated sweep) and
#: every coherence protocol.
WORKLOADS = ("detailed-grid", "detailed-sweep")
#: Runs per side and workload. Odd, so each median is one run's value;
#: five keeps a quiet pair's spread well inside the 0.25 bounds.
PAIRS = 5
#: One seed for both sides: the same points, orders and kernels.
SEED = 1
#: Measured work per run. Each run still covers at least three passes
#: over the workload, so the medians see every piece.
SECONDS = 5.0
#: The share that protocol work may rise by, relative to the parent,
#: before the change fails. Ten traced runs of one commit read
#: 0.120-0.130 (highest over lowest 1.085), so +25% clears the noise
#: between the one traced run per side with room to spare, and still
#: fails a protocol that does its lookups and transitions twice (read
#: +30% and +47% in two gate runs).
SHARE_METRIC = "mem.coherence.share"
SHARE_WORKLOAD = "detailed-grid"
SHARE_RISE = 0.25


def bounds(benchmark: dict) -> Dict[str, dict]:
    """End-to-end metric name -> its ``better`` and ``bound`` fields."""
    return {
        row["name"]: {"better": row["better"], "bound": float(row["bound"])}
        for row in benchmark["end_to_end"]
    }


def regressions(
    limits: Dict[str, dict],
    parent: Dict[str, List[dict]],
    change: Dict[str, List[dict]],
    parent_traced: dict,
    change_traced: dict,
) -> List[str]:
    """Every check the change fails, one line each; empty means it passes.

    ``parent``/``change`` map each workload to its ``--trace 0`` result
    lines; ``*_traced`` are the ``--trace 1`` lines of
    :data:`SHARE_WORKLOAD`.
    """
    problems = []
    for side, runs, traced in (
        ("parent", parent, parent_traced),
        ("change", change, change_traced),
    ):
        for workload, results in runs.items():
            bad = sum(1 for result in results if not result["correct"])
            if bad:
                problems.append(f"{workload}: {bad} {side} run(s) report correct: false")
        if not traced["correct"]:
            problems.append(f"{SHARE_WORKLOAD} --trace 1: {side} run reports correct: false")
    for workload, results in change.items():
        before, after = failed_share(parent[workload]), failed_share(results)
        if after > before:
            problems.append(
                f"{workload}: failed share {after:.4f} exceeds the parent's {before:.4f}"
            )
        for name, limit in limits.items():
            base = median(parent[workload], name)
            now = median(results, name)
            if limit["better"] == "lower":
                worse = now > base * (1.0 + limit["bound"])
            else:
                worse = now < base * (1.0 - limit["bound"])
            if worse:
                problems.append(
                    f"{workload}: {name} median {now:.4g} is worse than the parent's "
                    f"{base:.4g} by more than {limit['bound']:.0%} ({limit['better']} is better)"
                )
    base = metric(parent_traced, SHARE_METRIC)
    now = metric(change_traced, SHARE_METRIC)
    if now > base * (1.0 + SHARE_RISE):
        problems.append(
            f"{SHARE_WORKLOAD}: {SHARE_METRIC} {now:.3f} rose more than "
            f"{SHARE_RISE:.0%} above the parent's {base:.3f}"
        )
    return problems


def failed_share(results: List[dict]) -> float:
    attempted = sum(result["attempted"] for result in results)
    return sum(result["failed"] for result in results) / attempted if attempted else 0.0


def metric(result: dict, name: str) -> float:
    return float(result["metrics"][name]["value"])


def median(results: List[dict], name: str) -> float:
    return statistics.median(metric(result, name) for result in results)


def run_perfbench(checkout: str, workload: str, trace: int) -> dict:
    """One perfbench run from ``checkout``; its JSON result line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [
        sys.executable,
        os.path.join(checkout, "perfbench", "run.py"),
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", str(SECONDS),
        "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def report(limits, parent, change, parent_traced, change_traced) -> None:
    print(f"{'workload':<15} {'metric':<20} {'parent':>10} {'change':>10} {'ratio':>7}")
    for workload in change:
        for name in limits:
            base, now = median(parent[workload], name), median(change[workload], name)
            ratio = now / base if base else float("inf")
            print(f"{workload:<15} {name:<20} {base:>10.4g} {now:>10.4g} {ratio:>7.3f}")
    base, now = metric(parent_traced, SHARE_METRIC), metric(change_traced, SHARE_METRIC)
    ratio = now / base if base else float("inf")
    print(f"{SHARE_WORKLOAD:<15} {SHARE_METRIC:<20} {base:>10.4g} {now:>10.4g} {ratio:>7.3f}")


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(os.path.join(a, "perfbench")) for a in args):
        print(
            "usage: python tools/perf_gate.py PARENT_DIR CHANGE_DIR "
            "(two checkouts, each with a perfbench/ directory)",
            file=sys.stderr,
        )
        return 2
    parent_dir, change_dir = (os.path.abspath(a) for a in args)
    with open(os.path.join(parent_dir, "BENCHMARK.json"), encoding="utf-8") as handle:
        limits = bounds(json.load(handle))
    start = time.perf_counter()
    parent: Dict[str, List[dict]] = {w: [] for w in WORKLOADS}
    change: Dict[str, List[dict]] = {w: [] for w in WORKLOADS}
    try:
        for index in range(PAIRS):
            sides = [(parent_dir, parent), (change_dir, change)]
            if index % 2:
                sides.reverse()
            for workload in WORKLOADS:
                for checkout, runs in sides:
                    runs[workload].append(run_perfbench(checkout, workload, 0))
        parent_traced = run_perfbench(parent_dir, SHARE_WORKLOAD, 1)
        change_traced = run_perfbench(change_dir, SHARE_WORKLOAD, 1)
    except (RuntimeError, ValueError) as exc:
        print(f"perf gate: a run failed: {exc}", file=sys.stderr)
        return 2
    report(limits, parent, change, parent_traced, change_traced)
    problems = regressions(limits, parent, change, parent_traced, change_traced)
    elapsed = time.perf_counter() - start
    for problem in problems:
        print(f"REGRESSION: {problem}")
    verdict = f"FAIL ({len(problems)} check(s))" if problems else "pass"
    print(f"perf gate: {verdict} after {PAIRS} pairs in {elapsed:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
