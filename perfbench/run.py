#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload rank-full --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached to the
program. ``--trace 1`` makes the same untraced measurement, then a traced
pass (spans at layer boundaries, see ``layers.py``) and a profiled round,
and prints the per-layer metrics instead. Every round's outputs are
checked against ``digests.json`` before anything is printed; ``correct``
is false if any check failed. ``--write-digests`` recomputes
``digests.json`` from the code in ``src/`` (only for an intended model
change). ``NOTES.md`` explains the workloads and every metric.
"""

import time

from hostspeed import probe, speed

_START_PROBE = probe()
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
#: Scratch space (server stores, logs) stays inside the checkout.
SCRATCH_ROOT = os.path.join(ROOT, ".perfbench-tmp")

WORKLOADS = ("rank-full", "detailed-grid", "detailed-sweep", "serve-mix")
#: Cold set-ups per run; ``setup_s`` is imports plus their median.
SETUP_REPEATS = 3
#: A run measures whole rounds until ``--seconds`` of measured work and at
#: least this many passes over the workload's pieces have passed.
MIN_PASSES = 3
#: Passes in the traced pass; fixed, so the per-layer counts repeat.
TRACED_PASSES = 2

#: Unit of every end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests",
        action="store_true",
        help="recompute digests.json from the current program and exit",
    )
    args = parser.parse_args(argv)
    if not args.write_digests and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def make_workload(name: str, seed: int, expected: dict, scratch: str):
    if name == "serve-mix":
        from serve_mix import ServeMix

        return ServeMix(seed, expected, scratch)
    classes = {
        "rank-full": workloads.RankFull,
        "detailed-grid": workloads.DetailedGrid,
        "detailed-sweep": workloads.DetailedSweep,
    }
    return classes[name](seed, expected, scratch)


def measure(workload, seconds: float) -> list:
    """Whole rounds until ``seconds`` of measured work (and MIN_PASSES)."""
    rounds = []
    measured = 0.0
    index = 0
    while workload.has_round(index) and (
        measured < seconds or index < MIN_PASSES * workload.pieces
    ):
        rnd = workload.timed_round(index)
        rnd.checked = workload.check(rnd)
        if not workload.keep_outputs:
            rnd.outputs = None
        rounds.append(rnd)
        measured += rnd.seconds
        index += 1
    return rounds


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(workload, setup_s: float, rounds) -> dict:
    """Medians over the rounds of each piece of work, host-speed scaled.

    Pieces differ in size (kernels do), so the latency median is taken
    over the pieces' own medians; a run that stops mid-pass then cannot
    move it from one kernel's latency to another's.
    """
    seconds = workloads.piece_seconds(rounds)
    work = {rnd.key: rnd.work for rnd in rounds}
    latencies = defaultdict(list)
    for rnd in rounds:
        latencies[rnd.key].extend(x * rnd.speed for x in rnd.latencies)
    return {
        "setup_s": setup_s,
        "throughput_per_s": sum(work[key] for key in seconds) / sum(seconds.values()),
        "latency_p50_ms": statistics.median(
            statistics.median(values) for values in latencies.values()
        )
        * 1000.0,
        "peak_rss_mb": workload.peak_rss_mb(),
    }


#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("trace.calls", "count"),
    ("trace.s", "s"),
    ("compile.lookups", "count"),
    ("compile.misses", "count"),
    ("compile.hit_ratio", "ratio"),
    ("compile.s", "s"),
    ("detailed.runs", "count"),
    ("detailed.self_s", "s"),
    ("engine.interleaved_s", "s"),
    ("cpu.run_s", "s"),
    ("gpu.run_s", "s"),
    ("cpu.batch_s", "s"),
    ("gpu.batch_s", "s"),
    ("sweep.s", "s"),
    ("sweep.points", "count"),
    ("sweep.distinct_ratio", "ratio"),
    ("sweep.groups", "count"),
    ("mem.cache.share", "ratio"),
    ("mem.dram.share", "ratio"),
    ("mem.interconnect.share", "ratio"),
    ("mem.coherence.share", "ratio"),
    ("comm.share", "ratio"),
    ("sim.cpu.share", "ratio"),
    ("sim.gpu.share", "ratio"),
    ("sim.engine.share", "ratio"),
    ("py.hash.share", "ratio"),
    ("fast.runs", "count"),
    ("fast.s", "s"),
    ("exec.jobs", "count"),
    ("exec.cache_key_calls", "count"),
    ("exec.cache_key_s", "s"),
    ("exec.memo_hit_ratio", "ratio"),
    ("exec.memo_s", "s"),
    ("exec.run_jobs_s", "s"),
    ("explorer.self_s", "s"),
    ("programmability.table5_s", "s"),
    ("store.puts", "count"),
    ("store.put_s", "s"),
    ("store.gets", "count"),
    ("store.get_s", "s"),
    ("store.hit_ratio", "ratio"),
    ("serve.queue_wait_s", "s"),
    ("serve.execute_s", "s"),
    ("serve.http_s", "s"),
    ("serve.coalesced", "count"),
    ("serve.fast_p50_ms", "ms"),
    ("serve.fast_p99_ms", "ms"),
    ("serve.detailed_p50_ms", "ms"),
    ("serve.rank_job_s", "s"),
    ("count.instructions", "count"),
    ("count.hits", "count"),
    ("count.misses", "count"),
    ("count.dram_requests", "count"),
    ("count.ring_messages", "count"),
    ("count.invalidations", "count"),
    ("count.transfers", "count"),
    ("count.bytes_moved", "count"),
    ("error_share", "ratio"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
)


def per_layer(workload, rounds, attempted: int, failed: int) -> dict:
    traced = workload.traced_pass(TRACED_PASSES, workloads.piece_seconds(rounds))
    rec = traced.recorder
    stats = traced.compile_stats
    lookups = stats.get("hits", 0) + stats.get("shared_hits", 0) + stats.get("misses", 0)
    distinct_ratio, groups = workload.sweep_shape()
    values = {
        "trace.calls": rec.calls("trace.build", "trace.scaled", "trace.stage"),
        "trace.s": rec.self_time("trace.build", "trace.scaled", "trace.stage"),
        "compile.lookups": lookups,
        "compile.misses": stats.get("misses", 0),
        "compile.hit_ratio": stats.get("hits", 0) / lookups if lookups else 0.0,
        "compile.s": rec.inclusive("compile.compile"),
        "detailed.runs": rec.calls("detailed.run"),
        "detailed.self_s": rec.self_time("detailed.run"),
        "engine.interleaved_s": rec.inclusive("engine.interleaved"),
        "cpu.run_s": rec.inclusive("cpu.run"),
        "gpu.run_s": rec.inclusive("gpu.run"),
        "cpu.batch_s": rec.inclusive("cpu.batch"),
        "gpu.batch_s": rec.inclusive("gpu.batch"),
        "sweep.s": rec.inclusive("sweep.run"),
        "sweep.points": rec.items("sweep.run"),
        "sweep.distinct_ratio": distinct_ratio,
        "sweep.groups": groups,
        "fast.runs": rec.calls("fast.run"),
        "fast.s": rec.inclusive("fast.run"),
        "exec.jobs": rec.items("exec.run_jobs"),
        "exec.cache_key_calls": rec.calls("exec.cache_key"),
        "exec.cache_key_s": rec.inclusive("exec.cache_key"),
        "exec.memo_hit_ratio": rec.hit_ratio("exec.memo_get"),
        "exec.memo_s": rec.self_time("exec.memo_get", "exec.memo_put"),
        "exec.run_jobs_s": rec.self_time("exec.run_jobs", "exec.map", "exec.shard"),
        "explorer.self_s": rec.self_time("explorer.init", "explorer.api"),
        "programmability.table5_s": rec.inclusive("programmability.table5"),
        "store.puts": rec.calls("store.put"),
        "store.put_s": rec.inclusive("store.put"),
        "store.gets": rec.calls("store.get"),
        "store.get_s": rec.inclusive("store.get"),
        "store.hit_ratio": rec.hit_ratio("store.get"),
        "error_share": failed / attempted if attempted else 0.0,
        "unattributed_share": traced.unattributed,
        "trace_overhead": traced.overhead,
    }
    for group in (
        "mem.cache", "mem.dram", "mem.interconnect", "mem.coherence", "comm",
        "sim.cpu", "sim.gpu", "sim.engine", "py.hash",
    ):
        values[f"{group}.share"] = traced.shares.get(group, 0.0)
    values.update(traced.counts)
    values.update(traced.serve)
    if workload.name == "serve-mix":
        kinds = workload.latencies_by_kind(rounds)
        values["serve.fast_p50_ms"] = statistics.median(kinds["fast"]) * 1000.0
        values["serve.fast_p99_ms"] = percentile(kinds["fast"], 0.99) * 1000.0
        values["serve.detailed_p50_ms"] = statistics.median(kinds["detailed"]) * 1000.0
        values["serve.rank_job_s"] = statistics.median(kinds["rank"])
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }


def run(args) -> dict:

    with open(DIGESTS, encoding="utf-8") as handle:
        expected = json.load(handle)
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=SCRATCH_ROOT)
    workload = make_workload(args.workload, args.seed, expected, scratch)
    try:
        workload.load()
        import_s = time.perf_counter() - _PROCESS_START
        if not workload.wall_clock:
            import_s *= speed(_START_PROBE, probe())
        setup_s = import_s + statistics.median(
            workload.timed_setup() for _ in range(SETUP_REPEATS)
        )
        rounds = measure(workload, args.seconds)
        attempted = sum(r.checked[0] for r in rounds)
        failed = sum(r.checked[1] for r in rounds)
        if args.trace:
            metrics = per_layer(workload, rounds, attempted, failed)
        else:
            metrics = {
                name: {"value": value, "unit": END_TO_END[name]}
                for name, value in end_to_end(workload, setup_s, rounds).items()
            }
        workload.final_check()
    finally:
        workload.close()
        remove_scratch(scratch)
    attempted += workload.side_checks[0]
    failed += workload.side_checks[1]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def remove_scratch(scratch: str) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        os.rmdir(SCRATCH_ROOT)
    except OSError:
        pass  # another run still uses it


def write_digests() -> int:
    from serve_mix import ServeMix

    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=SCRATCH_ROOT)
    try:
        doc = {}
        rank = workloads.RankFull(0, {}, scratch)
        rank.load()
        doc["rank-full"] = rank.canonical(rank.run_round(0).outputs["ranking"])
        grid = workloads.DetailedGrid(0, {}, scratch)
        grid.load()
        doc["detailed-grid"] = {}
        for index in range(grid.pieces):
            doc["detailed-grid"].update(
                grid.canonical(grid.run_round(index).outputs["results"])
            )
        doc["detailed-sweep"] = {}
        for offset in range(workloads.DetailedSweep.stride):
            sweep = workloads.DetailedSweep(offset, {}, scratch)
            sweep.load()
            sweep.build_traces()
            doc["detailed-sweep"][str(offset)] = {
                rnd.key: workloads.sorted_digest(rnd.outputs["results"])
                for rnd in (sweep.run_round(i) for i in range(sweep.pieces))
            }
        serve = ServeMix(0, {}, scratch)
        serve.load()
        doc["serve-mix"] = serve.expected_digests()
    finally:
        remove_scratch(scratch)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.write_digests:
        return write_digests()
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
