"""The in-process workloads and the output checks every workload shares.

A workload runs in *rounds*. One round is a fixed amount of work, so a
round's figures repeat from round to round and from run to run; ``run.py``
times whole rounds until ``--seconds`` of measured work have passed and
checks each round's outputs before it reports any number.

Outputs are checked against ``digests.json``: SHA-256 digests of the exact
results (floats by ``repr``) taken at the commit that defined the
benchmark. A digest mismatch is a model change, not a speed change, and
counts as a failed operation.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from hostspeed import probe, speed
from layers import Recorder, module_shares

__all__ = [
    "Round",
    "TracedPass",
    "Workload",
    "RankFull",
    "DetailedGrid",
    "DetailedSweep",
    "digest",
    "result_record",
    "exact_counts",
    "piece_seconds",
]

#: Exact simulated counts reported per round by the traced run: metric ->
#: test on a ``SimulationResult.counters`` key. They must repeat exactly
#: for a seed; if they move, the model changed.
COUNT_KEYS = (
    ("count.instructions", lambda k: k in ("cpu_core.instructions", "gpu_core.instructions")),
    ("count.hits", lambda k: k.endswith(".hits")),
    ("count.misses", lambda k: k.endswith(".misses")),
    ("count.dram_requests", lambda k: k == "dram.requests"),
    ("count.ring_messages", lambda k: k == "ring.messages"),
    ("count.invalidations", lambda k: k.endswith(".invalidations_sent")),
    ("count.transfers", lambda k: k == "transfers"),
    ("count.bytes_moved", lambda k: k == "bytes_moved"),
)


def result_record(result) -> list:
    """A ``SimulationResult`` as exact JSON data (floats by ``repr``)."""
    b = result.breakdown
    return [
        result.kernel,
        result.system,
        result.degraded,
        [repr(b.sequential), repr(b.parallel), repr(b.communication)],
        [
            [
                p.label,
                p.kind,
                repr(p.seconds),
                repr(p.cpu_seconds),
                repr(p.gpu_seconds),
                repr(p.overlapped_seconds),
            ]
            for p in result.phases
        ],
        sorted([key, repr(value)] for key, value in result.counters.items()),
    ]


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sorted_digest(results) -> str:
    """One digest over results, independent of their order."""
    return digest(sorted((result_record(r) for r in results), key=lambda r: r[:2]))


def minstr(results) -> float:
    """Simulated CPU+GPU instructions, in millions."""
    return (
        sum(
            r.counters.get("cpu_core.instructions", 0)
            + r.counters.get("gpu_core.instructions", 0)
            for r in results
        )
        / 1e6
    )


def exact_counts(results) -> Dict[str, float]:
    totals = {name: 0 for name, _ in COUNT_KEYS}
    for result in results:
        for key, value in result.counters.items():
            for name, match in COUNT_KEYS:
                if match(key):
                    totals[name] += value
    return totals


def reset_process_caches() -> None:
    """Empty the process-wide memo caches, so a set-up starts cold."""
    from repro.exec.cache import SHARED_TRACE_CACHE
    from repro.perf.compiled import SHARED_COMPILE_CACHE

    SHARED_TRACE_CACHE.clear()
    SHARED_COMPILE_CACHE.clear()


@dataclass
class Round:
    """One round: measured seconds, work done, request latencies, outputs.

    ``key`` names the piece of work the round did; rounds with equal keys
    did identical work, so the runner can take the median of them.
    ``speed`` turns the round's wall-clock seconds and latencies into
    reference-host seconds (see ``hostspeed.py``); 1 for a wall-clock
    workload.
    """

    seconds: float
    work: float
    latencies: List[float]
    outputs: object
    key: str = ""
    speed: float = 1.0


def piece_seconds(rounds) -> Dict[str, float]:
    """Median host-scaled seconds of each piece of work."""
    by_key: Dict[str, List[float]] = defaultdict(list)
    for rnd in rounds:
        by_key[rnd.key].append(rnd.seconds * rnd.speed)
    return {key: statistics.median(values) for key, values in by_key.items()}


@dataclass
class TracedPass:
    """What the traced and profiled passes measured."""

    recorder: Recorder
    compile_stats: Dict[str, float]
    counts: Dict[str, float]
    unattributed: float
    overhead: float
    shares: Dict[str, float] = field(default_factory=dict)
    serve: Dict[str, float] = field(default_factory=dict)


class Workload:
    """One workload: cold set-up, fixed rounds, output checks."""

    name = ""
    #: Rounds per pass: round ``i`` does piece ``i % pieces``.
    pieces = 1
    #: Keep each measured round's outputs after its check (memory cost).
    keep_outputs = False
    #: Report wall-clock seconds, without host-speed scaling.
    wall_clock = False

    def __init__(self, seed: int, expected: dict, scratch: str) -> None:
        self.seed = seed
        self.expected = expected
        self.scratch = scratch
        #: Operations checked outside the timed window (set-up warm-ups,
        #: traced and profiled rounds, final checks): [attempted, failed].
        self.side_checks = [0, 0]

    def load(self) -> None:
        """Import what the workload needs (timed as part of ``setup_s``)."""

    def setup(self) -> None:
        """One cold set-up: fresh caches, then an untimed warm-up round."""
        raise NotImplementedError

    def has_round(self, index: int) -> bool:
        return True

    def run_round(self, index: int) -> Round:
        raise NotImplementedError

    def timed_setup(self) -> float:
        """Seconds of one cold set-up, host-speed scaled."""
        before = probe()
        start = time.perf_counter()
        self.setup()
        seconds = time.perf_counter() - start
        return seconds if self.wall_clock else seconds * speed(before, probe())

    def timed_round(self, index: int) -> Round:
        """``run_round`` between two host-speed probes."""
        if self.wall_clock:
            return self.run_round(index)
        before = probe()
        rnd = self.run_round(index)
        rnd.speed = speed(before, probe())
        return rnd

    def check(self, rnd: Round) -> Tuple[int, int]:
        """(attempted, failed) operations of one round."""
        raise NotImplementedError

    def counts(self, rnd: Round) -> Dict[str, float]:
        return exact_counts(rnd.outputs["results"])

    def final_check(self) -> None:
        """Extra checks after the timed window (added to ``side_checks``)."""

    def side_check(self, rnd: Round) -> None:
        attempted, failed = self.check(rnd)
        self.side_checks[0] += attempted
        self.side_checks[1] += failed

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def sweep_shape(self) -> Tuple[float, int]:
        """(distinct/points, execution groups) of a batched sweep, if any."""
        return 0.0, 0

    def warm_up(self) -> None:
        """One untimed pass over every piece, its outputs checked."""
        for index in range(self.pieces):
            self.side_check(self.run_round(index))

    def traced_pass(self, passes: int, untraced: Dict[str, float]) -> TracedPass:
        """A traced cold set-up plus ``passes`` traced passes, then one
        profiled pass. ``untraced`` is :func:`piece_seconds` of the
        untraced rounds.
        Compile tiers are read as the shared compile cache's counters,
        which the set-up's cache reset zeroes."""
        from repro.perf.compiled import SHARED_COMPILE_CACHE

        recorder = Recorder().install()
        recorder.enabled = True
        try:
            self.setup()
            covered_before = recorder.covered
            done = [self.timed_round(i) for i in range(passes * self.pieces)]
            covered = recorder.covered - covered_before
        finally:
            recorder.enabled = False
            recorder.uninstall()
        compile_stats = dict(SHARED_COMPILE_CACHE.stats())
        for rnd in done:
            self.side_check(rnd)
        traced_s = sum(rnd.seconds for rnd in done)
        traced = piece_seconds(done)
        profile = cProfile.Profile()
        profile.enable()
        try:
            profiled = [self.run_round(i) for i in range(self.pieces)]
        finally:
            profile.disable()
        counts: Dict[str, float] = {}
        for rnd in done[-self.pieces :]:
            for name, value in self.counts(rnd).items():
                counts[name] = counts.get(name, 0) + value
        for rnd in profiled:
            self.side_check(rnd)
        return TracedPass(
            recorder=recorder,
            compile_stats=compile_stats,
            counts=counts,
            unattributed=max(0.0, 1.0 - covered / traced_s),
            overhead=sum(traced.values()) / sum(untraced[k] for k in traced),
            shares=module_shares(profile),
        )

    def close(self) -> None:
        """Stop anything the workload started."""


class RankFull(Workload):
    """Full-space fast-model rank, the way ``rank --sample 0`` runs it.

    Every round builds a fresh :class:`Explorer` with fresh trace and
    result caches (as a new CLI process would) and ranks all 1933 feasible
    points x 6 kernels with ``jobs=1``. The seed shuffles the point order;
    the ranking is checked in a canonical (label-sorted) form, plus its
    sort order.
    """

    name = "rank-full"

    def load(self) -> None:
        from repro.core.explorer import DesignPointEvaluation, Explorer
        from repro.core.space import DesignSpace
        from repro.exec.cache import TraceCache

        self.Explorer = Explorer
        self.TraceCache = TraceCache
        self.score = DesignPointEvaluation.score
        self.points = DesignSpace().feasible_points()
        random.Random(self.seed).shuffle(self.points)

    def setup(self) -> None:
        reset_process_caches()
        self.warm_up()

    def run_round(self, index: int) -> Round:
        start = time.perf_counter()
        explorer = self.Explorer(jobs=1, trace_cache=self.TraceCache())
        ranking = explorer.rank_design_points(self.points)
        seconds = time.perf_counter() - start
        return Round(
            seconds=seconds,
            work=float(len(self.points)),
            latencies=[seconds],
            outputs={"ranking": ranking, "results": explorer.last_results},
            key="rank",
        )

    @staticmethod
    def canonical(ranking) -> str:
        return digest(
            sorted(
                [
                    e.point.label,
                    repr(e.mean_seconds),
                    repr(e.mean_comm_fraction),
                    e.comm_lines_total,
                    e.locality_options,
                ]
                for e in ranking
            )
        )

    def check(self, rnd: Round) -> Tuple[int, int]:
        ranking = rnd.outputs["ranking"]
        scores = [self.score(e) for e in ranking]
        ok = (
            len(ranking) == len(self.points)
            and scores == sorted(scores)
            and self.canonical(ranking) == self.expected["rank-full"]
        )
        return 1, 0 if ok else 1


class DetailedGrid(Workload):
    """The coherence grid plus the figure-5 grid at instruction fidelity.

    ``Explorer.run_coherence_overhead`` (4 spaces x 3 protocols) and
    ``Explorer.run_case_studies_detailed`` (5 systems), in-process with
    ``sweep=False``, one kernel per round: a pass over the six kernels is
    102 phase walks, one design point each (N=1). A fresh explorer per
    round keeps the result memo cold, so every walk simulates. The seed
    shuffles the kernel, system, space and protocol orders.
    """

    name = "detailed-grid"
    pieces = 6
    #: A tenth of the CLI's default scale: one round is ~2 s instead of ~20.
    scale = 0.002

    def load(self) -> None:
        from repro.config.presets import CASE_STUDIES
        from repro.core.explorer import Explorer
        from repro.kernels.registry import all_kernels
        from repro.taxonomy import AddressSpaceKind

        self.Explorer = Explorer
        rng = random.Random(self.seed)
        self.kernels = list(all_kernels())
        self.cases = list(CASE_STUDIES.values())
        self.spaces = list(AddressSpaceKind)
        self.protocols = ["none", "snoop", "directory"]
        for items in (self.kernels, self.cases, self.spaces, self.protocols):
            rng.shuffle(items)

    def setup(self) -> None:
        reset_process_caches()
        self.warm_up()

    def run_round(self, index: int) -> Round:
        kernel = self.kernels[index % self.pieces]
        start = time.perf_counter()
        explorer = self.Explorer(jobs=1, detailed_scale=self.scale)
        coherence = explorer.run_coherence_overhead(
            [kernel], self.spaces, self.protocols
        )
        figure5 = explorer.run_case_studies_detailed([kernel], self.cases)
        seconds = time.perf_counter() - start
        results = [
            result
            for per_protocol in coherence.values()
            for per_kernel in per_protocol.values()
            for result in per_kernel.values()
        ]
        results += [r for per_case in figure5.values() for r in per_case.values()]
        return Round(
            seconds=seconds,
            work=minstr(results),
            latencies=[seconds],
            outputs={"results": results},
            key=kernel.name,
        )

    @staticmethod
    def canonical(results) -> Dict[str, str]:
        return {
            f"{r.kernel}|{r.system}": digest(result_record(r)) for r in results
        }

    def check(self, rnd: Round) -> Tuple[int, int]:
        expected = {
            key: value
            for key, value in self.expected["detailed-grid"].items()
            if key.startswith(rnd.key + "|")
        }
        got = self.canonical(rnd.outputs["results"])
        failed = sum(1 for key, value in got.items() if expected.get(key) != value)
        failed += len(expected) - len(got)
        return len(expected), failed


class DetailedSweep(Workload):
    """A stride sample of the feasible space as one batched walk per kernel.

    ``SweepSimulator.run`` over every third feasible point (the seed picks
    the offset and shuffles the order): ~645 ``SweepPoint``\\ s, 22 of them
    timing-distinct, in 4 execution groups, for three bounding kernels
    (reduction: comm-heavy, short phases; k-mean: the largest compute
    trace; dct: in between) at a small trace scale. After the timed window,
    a seeded subset of points is re-run through ``DetailedSimulator.run``
    and must match the batched results exactly.
    """

    name = "detailed-sweep"
    pieces = 3
    kernel_names = ("reduction", "k-mean", "dct")
    scale = 0.003
    stride = 3
    oracle_points = 2

    def load(self) -> None:
        from repro.core.space import DesignSpace
        from repro.perf.sweep import BatchedDesignPoints, SweepPoint, SweepSimulator
        from repro.taxonomy import CommMechanism

        self.SweepSimulator = SweepSimulator
        self.offset = self.seed % self.stride
        self.points = [
            SweepPoint(
                mechanism=point.comm,
                async_overlap=point.comm is CommMechanism.DMA_ASYNC,
                address_space=point.address_space,
                system_name=point.label,
            )
            for point in DesignSpace().feasible_points()[self.offset :: self.stride]
        ]
        random.Random(self.seed).shuffle(self.points)
        batch = BatchedDesignPoints(self.points)
        self.shape = (len(batch.distinct) / len(batch), len(batch.groups()))
        self.last_results: Dict[str, list] = {}

    def build_traces(self) -> None:
        from repro.kernels.registry import kernel

        self.traces = [
            kernel(name).build().scaled(self.scale) for name in self.kernel_names
        ]

    def setup(self) -> None:
        reset_process_caches()
        self.build_traces()
        self.warm_up()

    def run_round(self, index: int) -> Round:
        name = self.kernel_names[index % self.pieces]
        trace = self.traces[index % self.pieces]
        # The compile cache is left at its default (the shared one): an
        # empty private SegmentCompileCache is falsy, and the simulator's
        # ``compile_cache or SHARED_COMPILE_CACHE`` would swap it out.
        start = time.perf_counter()
        results = self.SweepSimulator().run(trace, self.points)
        seconds = time.perf_counter() - start
        self.last_results[name] = results
        return Round(
            seconds=seconds,
            work=minstr(results),
            latencies=[seconds],
            outputs={"results": results},
            key=name,
        )

    def check(self, rnd: Round) -> Tuple[int, int]:
        expected = self.expected["detailed-sweep"][str(self.offset)]
        ok = sorted_digest(rnd.outputs["results"]) == expected.get(rnd.key)
        return 1, 0 if ok else 1

    def final_check(self) -> None:
        """Seeded points re-run one at a time through the N=1 simulator."""
        from repro.comm.base import make_channel
        from repro.sim.detailed import DetailedSimulator

        rng = random.Random(self.seed)
        for name, trace in zip(self.kernel_names, self.traces):
            results = self.last_results[name]
            for index in rng.sample(range(len(self.points)), self.oracle_points):
                point = self.points[index]
                single = DetailedSimulator().run(
                    trace,
                    channel=make_channel(
                        point.mechanism, async_overlap=point.async_overlap
                    ),
                    system_name=point.system_name,
                    address_space=point.address_space,
                )
                self.side_checks[0] += 1
                self.side_checks[1] += single != results[index]

    def sweep_shape(self) -> Tuple[float, int]:
        return self.shape
