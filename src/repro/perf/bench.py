"""The hot-path perf harness: reference oracle vs production per kernel.

Times the six Table III kernels at a reduced scale, once through the
reference oracle (:class:`repro.sim.reference.ReferenceSimulator`, the
per-instruction generator expansion; the ``legacy_seconds`` column) and
once through production :meth:`repro.sim.detailed.DetailedSimulator.run`
(the compiled walk; ``compiled_seconds``), at two fidelities — ``serial``
(cores run back-to-back, the batched core loops) and ``interleaved``
(timestamp-ordered parallel phases, the per-instruction compiled
steppers) — plus the analytic :class:`~repro.sim.fast.FastSimulator` as a
reference row. The result feeds ``BENCH_hotpath.json``: the repo's perf
trajectory, and what the CI perf-smoke job regresses against.

A second mode, :func:`run_sweep_bench`, measures the design-point axis
(:mod:`repro.perf.sweep`) on a rank-style workload: a stride sample of
the full feasible design space evaluated per kernel, once point-by-point
through ``DetailedSimulator`` (N=1 walks) and once as one
:class:`~repro.perf.sweep.BatchedDesignPoints` pass. The two result lists
are asserted equal before either timing is reported, so the recorded
speedup is only ever for bit-identical output.

A third mode, :func:`run_coherence_bench`, measures what the coherence
axis costs the simulator itself: every kernel trace staged into the
shared window and run through the compiled path with protocol modeling
off (``coherence="none"``) and once per hardware protocol. The recorded
*slowdown* ratio bounds what a sweep pays for turning the axis on.

A fourth mode, :func:`run_store_bench`, measures the durable result
store's warm-start payoff: the same rank-style sweep run cold (fresh
store, every group of points simulated and written through) and warm
(fresh explorer and caches against the store the cold run populated, so
every group is a disk hit). Both evaluation lists are asserted equal
before either timing is reported.

Comparisons against a stored baseline use the *speedup ratio* (or, for
the coherence section, the slowdown ratio), not raw wall-clock —
absolute seconds differ across machines, but both sides of each ratio
run on the same machine in the same process, so the ratio travels well.
"""

from __future__ import annotations

import json
import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config.presets import case_study
from repro.errors import ConfigError, SimulationError
from repro.kernels.registry import all_kernels, kernel
from repro.perf.compiled import SegmentCompileCache
from repro.sim.detailed import DetailedSimulator
from repro.sim.fast import FastSimulator
from repro.sim.results import SimulationResult

__all__ = [
    "SCHEMA",
    "run_hotpath_bench",
    "run_sweep_bench",
    "run_coherence_bench",
    "run_store_bench",
    "format_bench",
    "compare_to_baseline",
    "write_bench_json",
    "load_bench_json",
]

SCHEMA = "bench_hotpath/v1"

#: (fidelity name, interleave_parallel flag) measured by the harness.
FIDELITIES = (("serial", False), ("interleaved", True))

#: Defaults for the sweep mode. Two kernels bound the workload shapes
#: (reduction: comm-heavy with short phases; k-mean: the largest compute
#: trace); a smaller trace scale than the hotpath cells because the
#: single-point oracle replays the trace once per sampled design point.
SWEEP_KERNELS = ("reduction", "k-mean")
SWEEP_SCALE = 0.01
SWEEP_STRIDE = 3

#: Hardware protocols measured by the coherence mode, in report order.
COHERENCE_PROTOCOLS = ("snoop", "directory")

#: Defaults for the store mode: same bounding kernels as the sweep mode,
#: a coarser stride (the cold side simulates every sampled point).
STORE_STRIDE = 8


def _geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(map(math.log, positive)) / len(positive))


def _time_detailed(
    simulator_class,
    trace,
    case,
    interleave: bool,
    repeats: int,
    compile_cache: SegmentCompileCache,
) -> Tuple[float, SimulationResult]:
    """Best-of-N wall clock of one simulator cell, and its result."""
    best = math.inf
    result = None
    for _ in range(repeats):
        sim = simulator_class(
            interleave_parallel=interleave, compile_cache=compile_cache
        )
        start = time.perf_counter()
        result = sim.run(trace, case=case)
        best = min(best, time.perf_counter() - start)
    return best, result


def run_hotpath_bench(
    scale: float = 0.05,
    repeats: int = 1,
    case_name: str = "CPU+GPU",
    kernels: Optional[Sequence[str]] = None,
) -> Dict:
    """Benchmark the six kernels; returns the ``BENCH_hotpath`` document.

    ``scale`` shrinks the compute phases (0.05 keeps the full run under a
    minute while the largest kernels still execute >400k instructions);
    ``repeats`` takes the best of N timings per cell. Segment compilation
    is pre-warmed through a private cache so the compiled timings measure
    execution, not compilation — matching exploration, where every design
    point past the first reuses the cached compilation.
    """
    if scale <= 0:
        raise ConfigError(f"bench scale must be positive, got {scale}")
    if repeats < 1:
        raise ConfigError(f"bench repeats must be >= 1, got {repeats}")
    from repro.sim.reference import ReferenceSimulator

    case = case_study(case_name)
    if kernels:
        selected = [kernel(name) for name in kernels]
    else:
        selected = list(all_kernels())

    compile_cache = SegmentCompileCache()
    fidelities: Dict[str, Dict] = {
        name: {"kernels": {}} for name, _ in FIDELITIES
    }
    fast_rows: Dict[str, float] = {}
    fast_sim = FastSimulator()
    for k in selected:
        trace = k.build().scaled(scale)
        # Warm the compile cache (and any lazy kernel state) off the clock.
        DetailedSimulator(
            interleave_parallel=False, compile_cache=compile_cache
        ).run(trace, case=case)
        for name, interleave in FIDELITIES:
            legacy, expected = _time_detailed(
                ReferenceSimulator, trace, case, interleave, repeats, compile_cache
            )
            compiled, got = _time_detailed(
                DetailedSimulator, trace, case, interleave, repeats, compile_cache
            )
            if got != expected:
                raise SimulationError(
                    f"{k.name} ({name}): production result differs from "
                    "the reference oracle"
                )
            fidelities[name]["kernels"][k.name] = {
                "legacy_seconds": legacy,
                "compiled_seconds": compiled,
                "speedup": legacy / compiled if compiled > 0 else 0.0,
            }
        start = time.perf_counter()
        fast_sim.run(trace, case=case)
        fast_rows[k.name] = time.perf_counter() - start

    for name, _ in FIDELITIES:
        rows = fidelities[name]["kernels"]
        fidelities[name]["geomean_speedup"] = _geomean(
            [row["speedup"] for row in rows.values()]
        )
    return {
        "schema": SCHEMA,
        "scale": scale,
        "repeats": repeats,
        "case": case.name,
        "fidelities": fidelities,
        "fast_reference_seconds": fast_rows,
    }


def _time_coherent(trace, case, coherence: str, repeats: int, compile_cache):
    """Best-of-N wall clock (and that run's result) for one protocol cell."""
    best = math.inf
    result = None
    for _ in range(repeats):
        sim = DetailedSimulator(compile_cache=compile_cache)
        start = time.perf_counter()
        out = sim.run(trace, case=case, coherence=coherence)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, out
    return best, result


def run_coherence_bench(
    scale: float = 0.05,
    repeats: int = 1,
    case_name: str = "CPU+GPU",
    kernels: Optional[Sequence[str]] = None,
) -> Dict:
    """Benchmark protocol-on vs protocol-off simulation; returns a document.

    Every kernel trace is staged into the shared window with the unified
    layout (so the protocol sees the whole working set — the worst case
    for bookkeeping cost) and run through the compiled
    ``DetailedSimulator`` once with coherence modeling off
    (``coherence="none"``) and once per hardware protocol. The recorded
    *slowdown* ratio (protocol-on wall clock over protocol-off) is what
    travels to the baseline: it bounds what enabling the coherence axis
    costs a sweep, independent of the machine's absolute speed.
    """
    if scale <= 0:
        raise ConfigError(f"bench scale must be positive, got {scale}")
    if repeats < 1:
        raise ConfigError(f"bench repeats must be >= 1, got {repeats}")
    from repro.sim.mmu import stage_shared_trace
    from repro.taxonomy import AddressSpaceKind

    case = case_study(case_name)
    if kernels:
        selected = [kernel(name) for name in kernels]
    else:
        selected = list(all_kernels())
    compile_cache = SegmentCompileCache()
    rows: Dict[str, Dict] = {}
    for k in selected:
        trace = stage_shared_trace(
            k.build().scaled(scale), AddressSpaceKind.UNIFIED
        )
        # Warm the compile cache off the clock; coherence runs reuse the
        # same compiled segments, so one warm pass covers every cell.
        DetailedSimulator(compile_cache=compile_cache).run(
            trace, case=case, coherence="none"
        )
        off_seconds, _ = _time_coherent(trace, case, "none", repeats, compile_cache)
        protocols: Dict[str, Dict] = {}
        for kind in COHERENCE_PROTOCOLS:
            seconds, result = _time_coherent(trace, case, kind, repeats, compile_cache)
            protocols[kind] = {
                "seconds": seconds,
                "slowdown": seconds / off_seconds if off_seconds > 0 else 0.0,
                "invalidations": result.counters.get(
                    f"{kind}.invalidations_sent", 0.0
                ),
            }
        rows[k.name] = {"off_seconds": off_seconds, "protocols": protocols}

    return {
        "schema": SCHEMA,
        "coherence": {
            "scale": scale,
            "repeats": repeats,
            "case": case.name,
            "kernels": rows,
            "geomean_slowdown": {
                kind: _geomean(
                    [row["protocols"][kind]["slowdown"] for row in rows.values()]
                )
                for kind in COHERENCE_PROTOCOLS
            },
        },
    }


def _rank_style_points(stride: int) -> List:
    """A stride sample of the feasible design space as sweep points.

    Mirrors ``Explorer._point_jobs``: one point per feasible
    (space, comm, locality, coherence, consistency) combination, labeled
    with the design point's display label so duplicate-timing points
    exercise the relabel-on-scatter path exactly like a real ranking run.
    """
    from repro.core.space import DesignSpace
    from repro.perf.sweep import SweepPoint
    from repro.taxonomy import CommMechanism

    return [
        SweepPoint(
            mechanism=point.comm,
            async_overlap=point.comm is CommMechanism.DMA_ASYNC,
            address_space=point.address_space,
            system_name=point.label,
        )
        for point in DesignSpace().feasible_points()[::stride]
    ]


def run_sweep_bench(
    scale: float = SWEEP_SCALE,
    repeats: int = 1,
    kernels: Optional[Sequence[str]] = None,
    stride: int = SWEEP_STRIDE,
) -> Dict:
    """Benchmark the batched design-point axis; returns a bench document.

    The workload is rank-style: every ``stride``-th feasible design point
    of the full space (stride 3 samples ~645 of the 1933 points), each
    kernel's trace evaluated against all of them — once per point through
    ``DetailedSimulator`` (a walk with N=1)
    and once as a single :class:`~repro.perf.sweep.SweepSimulator` pass.
    Both runs share a pre-warmed compile cache so neither pays
    compilation, and their result lists are asserted equal before any
    timing is reported. The returned document carries a ``sweep`` section
    (no ``fidelities``); the CLI merges it with the hotpath section under
    ``--mode all``.
    """
    if scale <= 0:
        raise ConfigError(f"bench scale must be positive, got {scale}")
    if repeats < 1:
        raise ConfigError(f"bench repeats must be >= 1, got {repeats}")
    if stride < 1:
        raise ConfigError(f"bench stride must be >= 1, got {stride}")
    from repro.comm.base import make_channel
    from repro.config.comm import CommParams
    from repro.config.system import SystemConfig
    from repro.perf.sweep import BatchedDesignPoints, SweepSimulator

    selected = [kernel(name) for name in (kernels or SWEEP_KERNELS)]
    system = SystemConfig()
    params = CommParams()
    points = _rank_style_points(stride)
    batch = BatchedDesignPoints(points)
    compile_cache = SegmentCompileCache()
    rows: Dict[str, Dict] = {}
    for k in selected:
        trace = k.build().scaled(scale)
        # Warm the compile cache off the clock; the warm pass's results
        # also serve as the batched output for the identity check.
        batched_results = SweepSimulator(
            system=system, comm_params=params, compile_cache=compile_cache
        ).run(trace, batch)

        single_results = None
        single_seconds = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            results = []
            for point in points:
                sim = DetailedSimulator(
                    system=system,
                    comm_params=params,
                    compile_cache=compile_cache,
                )
                channel = make_channel(
                    point.mechanism,
                    params=params,
                    system=system,
                    async_overlap=point.async_overlap,
                )
                results.append(
                    sim.run(
                        trace,
                        channel=channel,
                        system_name=point.system_name,
                        address_space=point.address_space,
                    )
                )
            single_seconds = min(single_seconds, time.perf_counter() - start)
            single_results = results

        batched_seconds = math.inf
        for _ in range(repeats):
            simulator = SweepSimulator(
                system=system, comm_params=params, compile_cache=compile_cache
            )
            start = time.perf_counter()
            batched_results = simulator.run(trace, batch)
            batched_seconds = min(batched_seconds, time.perf_counter() - start)

        if single_results != batched_results:
            raise SimulationError(
                f"sweep bench identity violation: batched results for "
                f"{k.name} differ from the single-point compiled path"
            )
        rows[k.name] = {
            "single_seconds": single_seconds,
            "batched_seconds": batched_seconds,
            "speedup": (
                single_seconds / batched_seconds if batched_seconds > 0 else 0.0
            ),
        }

    return {
        "schema": SCHEMA,
        "sweep": {
            "scale": scale,
            "repeats": repeats,
            "stride": stride,
            "points": len(points),
            "distinct": len(batch.distinct),
            "kernels": rows,
            "geomean_speedup": _geomean([row["speedup"] for row in rows.values()]),
        },
    }


def run_store_bench(
    repeats: int = 1,
    kernels: Optional[Sequence[str]] = None,
    stride: int = STORE_STRIDE,
) -> Dict:
    """Benchmark warm-store vs cold sweep wall-clock; returns a document.

    The workload is a rank over every ``stride``-th feasible design point.
    The *cold* side is a fresh explorer writing through to an empty
    :class:`~repro.store.store.ResultStore` — full simulation plus
    durability cost. The *warm* side is a fresh explorer (empty in-memory
    caches, as a new process would have) reopening the store the cold run
    populated, so every result is a verified disk hit. Both evaluation
    lists are asserted equal before either timing is reported, and the
    warm run must be all hits — the recorded *speedup* (cold wall-clock
    over warm) is only ever for bit-identical output.
    """
    if repeats < 1:
        raise ConfigError(f"bench repeats must be >= 1, got {repeats}")
    if stride < 1:
        raise ConfigError(f"bench stride must be >= 1, got {stride}")
    import os
    import shutil
    import tempfile

    from repro.core.explorer import Explorer
    from repro.core.space import DesignSpace
    from repro.exec.cache import TraceCache
    from repro.store.store import ResultStore

    selected = [kernel(name) for name in (kernels or SWEEP_KERNELS)]
    points = DesignSpace().feasible_points()[::stride]

    def _flat(evaluations):
        return [
            (e.point.label, e.mean_seconds, e.mean_comm_fraction)
            for e in evaluations
        ]

    root = tempfile.mkdtemp(prefix="repro-store-bench-")
    try:
        cold_seconds = math.inf
        cold_flat = None
        entries = 0
        for attempt in range(repeats):
            cold_root = os.path.join(root, f"cold-{attempt}")
            store = ResultStore(cold_root)
            explorer = Explorer(trace_cache=TraceCache(), store=store)
            start = time.perf_counter()
            evaluations = explorer.rank_design_points(points, selected)
            elapsed = time.perf_counter() - start
            count = len(store)
            store.close()
            if elapsed < cold_seconds:
                cold_seconds = elapsed
                cold_flat = _flat(evaluations)
                entries = count
                warm_root = cold_root

        warm_seconds = math.inf
        warm_hits = 0
        for _ in range(repeats):
            store = ResultStore(warm_root)
            explorer = Explorer(trace_cache=TraceCache(), store=store)
            start = time.perf_counter()
            evaluations = explorer.rank_design_points(points, selected)
            elapsed = time.perf_counter() - start
            if _flat(evaluations) != cold_flat:
                store.close()
                raise SimulationError(
                    "store bench identity violation: warm-store ranking "
                    "differs from the cold run that populated the store"
                )
            if store.misses:
                store.close()
                raise SimulationError(
                    f"store bench warm run was not warm: "
                    f"{store.misses} store miss(es)"
                )
            if elapsed < warm_seconds:
                warm_seconds = elapsed
                warm_hits = store.hits
            store.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    return {
        "schema": SCHEMA,
        "store": {
            "repeats": repeats,
            "stride": stride,
            "points": len(points),
            "kernels": [k.name for k in selected],
            "entries": entries,
            "warm_hits": warm_hits,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": cold_seconds / warm_seconds if warm_seconds > 0 else 0.0,
        },
    }


def format_bench(doc: Dict) -> str:
    """Human-readable report of a bench document."""
    from repro.core.report import format_table

    lines: List[str] = []
    for name, data in doc.get("fidelities", {}).items():
        rows = [
            (
                kernel_name,
                f"{cell['legacy_seconds']:.3f}",
                f"{cell['compiled_seconds']:.3f}",
                f"{cell['speedup']:.2f}x",
            )
            for kernel_name, cell in data["kernels"].items()
        ]
        lines.append(
            format_table(
                ("kernel", "legacy s", "compiled s", "speedup"),
                rows,
                title=(
                    f"DetailedSimulator hot path — {name} "
                    f"(scale {doc['scale']:g}, geomean "
                    f"{data['geomean_speedup']:.2f}x)"
                ),
            )
        )
    coherence = doc.get("coherence")
    if coherence is not None:
        kinds = [k for k in COHERENCE_PROTOCOLS if k in coherence["geomean_slowdown"]]
        rows = []
        for kernel_name, cell in coherence["kernels"].items():
            row = [kernel_name, f"{cell['off_seconds']:.3f}"]
            for kind in kinds:
                proto = cell["protocols"][kind]
                row.append(f"{proto['seconds']:.3f}")
                row.append(f"{proto['slowdown']:.2f}x")
            rows.append(tuple(row))
        headers = ("kernel", "off s") + tuple(
            h for kind in kinds for h in (f"{kind} s", f"{kind} x")
        )
        geomeans = ", ".join(
            f"{kind} {coherence['geomean_slowdown'][kind]:.2f}x" for kind in kinds
        )
        lines.append(
            format_table(
                headers,
                rows,
                title=(
                    f"Coherence protocol overhead — compiled path, shared "
                    f"staging (scale {coherence['scale']:g}, geomean "
                    f"slowdown {geomeans})"
                ),
            )
        )
    sweep = doc.get("sweep")
    if sweep is not None:
        rows = [
            (
                kernel_name,
                f"{cell['single_seconds']:.3f}",
                f"{cell['batched_seconds']:.3f}",
                f"{cell['speedup']:.2f}x",
            )
            for kernel_name, cell in sweep["kernels"].items()
        ]
        lines.append(
            format_table(
                ("kernel", "per-point s", "batched s", "speedup"),
                rows,
                title=(
                    f"Batched design-point sweep — rank-style, "
                    f"{sweep['points']} points ({sweep['distinct']} "
                    f"timing-distinct), scale {sweep['scale']:g}, geomean "
                    f"{sweep['geomean_speedup']:.2f}x"
                ),
            )
        )
    store = doc.get("store")
    if store is not None:
        lines.append(
            format_table(
                ("points", "entries", "cold s", "warm s", "speedup"),
                [
                    (
                        str(store["points"]),
                        str(store["entries"]),
                        f"{store['cold_seconds']:.3f}",
                        f"{store['warm_seconds']:.3f}",
                        f"{store['speedup']:.2f}x",
                    )
                ],
                title=(
                    f"Durable result store — warm-start vs cold sweep "
                    f"({', '.join(store['kernels'])}; stride "
                    f"{store['stride']}, {store['warm_hits']} warm hits)"
                ),
            )
        )
    return "\n\n".join(lines)


def compare_to_baseline(
    current: Dict, baseline: Dict, tolerance: float = 0.5
) -> List[str]:
    """Speedup regressions of ``current`` against a stored ``baseline``.

    A cell regresses when its speedup falls below the baseline's by more
    than ``tolerance`` (a fraction — 0.5 tolerates halving, loose enough
    for shared CI runners). Returns human-readable regression lines;
    empty means the compiled path is still ahead.

    Only sections the current run measured are compared — a ``--mode
    sweep`` run is judged against the baseline's ``sweep`` section alone,
    a ``--mode hotpath`` run against the fidelities alone — so partial
    runs never fail on sections they deliberately skipped.
    """
    problems: List[str] = []
    if current.get("fidelities"):
        for name, base_data in baseline.get("fidelities", {}).items():
            cur_data = current.get("fidelities", {}).get(name)
            if cur_data is None:
                problems.append(f"{name}: fidelity missing from current run")
                continue
            for kernel_name, base_cell in base_data.get("kernels", {}).items():
                cur_cell = cur_data.get("kernels", {}).get(kernel_name)
                if cur_cell is None:
                    problems.append(
                        f"{name}/{kernel_name}: missing from current run"
                    )
                    continue
                floor = base_cell["speedup"] * (1.0 - tolerance)
                if cur_cell["speedup"] < floor:
                    problems.append(
                        f"{name}/{kernel_name}: speedup {cur_cell['speedup']:.2f}x "
                        f"fell below {floor:.2f}x "
                        f"(baseline {base_cell['speedup']:.2f}x - {tolerance:.0%})"
                    )
    if current.get("coherence") and baseline.get("coherence"):
        cur_rows = current["coherence"].get("kernels", {})
        for kernel_name, base_cell in baseline["coherence"].get("kernels", {}).items():
            cur_cell = cur_rows.get(kernel_name)
            if cur_cell is None:
                problems.append(f"coherence/{kernel_name}: missing from current run")
                continue
            for kind, base_proto in base_cell.get("protocols", {}).items():
                cur_proto = cur_cell.get("protocols", {}).get(kind)
                if cur_proto is None:
                    problems.append(
                        f"coherence/{kernel_name}/{kind}: missing from current run"
                    )
                    continue
                ceiling = base_proto["slowdown"] * (1.0 + tolerance)
                if cur_proto["slowdown"] > ceiling:
                    problems.append(
                        f"coherence/{kernel_name}/{kind}: slowdown "
                        f"{cur_proto['slowdown']:.2f}x rose above {ceiling:.2f}x "
                        f"(baseline {base_proto['slowdown']:.2f}x + {tolerance:.0%})"
                    )
    if current.get("sweep") and baseline.get("sweep"):
        cur_rows = current["sweep"].get("kernels", {})
        for kernel_name, base_cell in baseline["sweep"].get("kernels", {}).items():
            cur_cell = cur_rows.get(kernel_name)
            if cur_cell is None:
                problems.append(f"sweep/{kernel_name}: missing from current run")
                continue
            floor = base_cell["speedup"] * (1.0 - tolerance)
            if cur_cell["speedup"] < floor:
                problems.append(
                    f"sweep/{kernel_name}: speedup {cur_cell['speedup']:.2f}x "
                    f"fell below {floor:.2f}x "
                    f"(baseline {base_cell['speedup']:.2f}x - {tolerance:.0%})"
                )
    if current.get("store") and baseline.get("store"):
        base_cell = baseline["store"]
        cur_cell = current["store"]
        floor = base_cell["speedup"] * (1.0 - tolerance)
        if cur_cell["speedup"] < floor:
            problems.append(
                f"store: warm-start speedup {cur_cell['speedup']:.2f}x "
                f"fell below {floor:.2f}x "
                f"(baseline {base_cell['speedup']:.2f}x - {tolerance:.0%})"
            )
    return problems


def write_bench_json(path: str, doc: Dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench_json(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schema") != SCHEMA:
        raise ConfigError(
            f"{path}: not a {SCHEMA} document (schema={doc.get('schema')!r})"
        )
    return doc
