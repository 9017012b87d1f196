"""Chrome ``trace_event`` JSON synthesized from finished simulation results.

:func:`trace_from_results` is the one way a trace gets built: every
:class:`~repro.sim.results.SimulationResult` already carries its full
per-phase timeline, so the trace is rebuilt after the run instead of
being recorded live (parallel runs simulate in worker processes anyway).

A :class:`Tracer` holds *complete* spans ('X') and counter samples ('C')
on named tracks. A track is a ``(process, thread)`` pair — one process
per simulation run (or the exploration runtime), one thread per clock
domain (CPU core, GPU core, comm link) — so the export opens directly in
Perfetto / ``chrome://tracing`` with each domain on its own row.

Timestamps are microseconds: simulated time for the runs, wall-clock
stage time for the exploration runtime (the two live in different
processes, and Chrome traces have no global unit).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["TraceEvent", "Tracer", "trace_from_results"]

#: A Chrome trace event is just its JSON dict.
TraceEvent = Dict[str, object]


class Tracer:
    """Collects trace events; serializes to Chrome ``trace_event`` JSON."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._tracks: Dict[Tuple[str, str], Tuple[int, int]] = {}
        self._pids: Dict[str, int] = {}

    # -- track management ---------------------------------------------------

    def track(self, process: str, thread: str) -> Tuple[int, int]:
        """The ``(pid, tid)`` for a track, creating it (and its metadata
        naming events) on first use."""
        key = (process, thread)
        ids = self._tracks.get(key)
        if ids is not None:
            return ids
        pid = self._pids.get(process)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[process] = pid
            self._events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": process},
                }
            )
        tid = sum(1 for (p, _t) in self._tracks if p == process) + 1
        self._tracks[key] = (pid, tid)
        self._events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": tid,
                "args": {"name": thread},
            }
        )
        return pid, tid

    @property
    def track_count(self) -> int:
        """Distinct (process, thread) tracks created so far."""
        return len(self._tracks)

    # -- emission -----------------------------------------------------------

    def complete(
        self,
        process: str,
        thread: str,
        name: str,
        start_us: float,
        duration_us: float,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """A complete span ('X'): ``duration_us`` starting at ``start_us``."""
        pid, tid = self.track(process, thread)
        event: TraceEvent = {
            "name": name,
            "ph": "X",
            "ts": start_us,
            "dur": duration_us,
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def counter(
        self,
        process: str,
        thread: str,
        name: str,
        ts_us: float,
        values: Dict[str, float],
    ) -> None:
        """A counter sample ('C') — renders as a counter track in Perfetto."""
        pid, tid = self.track(process, thread)
        self._events.append(
            {
                "name": name,
                "ph": "C",
                "ts": ts_us,
                "pid": pid,
                "tid": tid,
                "args": dict(values),
            }
        )

    # -- export -------------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def to_chrome(self) -> Dict[str, object]:
        """The Chrome ``trace_event`` JSON object (Perfetto-loadable)."""
        return {"traceEvents": list(self._events), "displayTimeUnit": "ms"}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_chrome(), indent=indent)

    def write(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")
        return path


def trace_from_results(
    results: Iterable["SimulationResult"],  # noqa: F821 - circular-import hint only
    run_stats: Optional["RunStats"] = None,  # noqa: F821
) -> Tracer:
    """Synthesize a per-clock-domain trace from finished simulation results.

    The trace is rebuilt losslessly from each result's per-phase
    timeline. One Chrome *process* per run (named
    ``kernel @ system``), one *thread* per clock domain, spans in
    simulated microseconds. ``run_stats`` adds an ``exploration-runtime``
    process with the wall-clock stage timers.
    """
    tracer = Tracer()
    for result in results:
        process = f"{result.kernel} @ {result.system}"
        now_us = 0.0
        for phase in result.phases:
            dur_us = phase.seconds * 1e6
            if phase.kind == "sequential":
                tracer.complete(process, "cpu-core", phase.label, now_us, dur_us)
            elif phase.kind == "parallel":
                tracer.complete(
                    process, "cpu-core", phase.label, now_us, phase.cpu_seconds * 1e6
                )
                tracer.complete(
                    process, "gpu-core", phase.label, now_us, phase.gpu_seconds * 1e6
                )
            else:
                tracer.complete(
                    process,
                    "comm-link",
                    phase.label,
                    now_us,
                    dur_us,
                    args={"overlapped_us": phase.overlapped_seconds * 1e6},
                )
            now_us += dur_us
        if result.counters:
            tracer.counter(
                process,
                "comm-link",
                "counters",
                now_us,
                {k: v for k, v in result.counters.items() if isinstance(v, (int, float))},
            )
    if run_stats is not None:
        now_us = 0.0
        for stage, seconds in run_stats.stage_seconds.items():
            tracer.complete(
                "exploration-runtime",
                "runner",
                stage,
                now_us,
                seconds * 1e6,
                args={"wall_seconds": seconds},
            )
            now_us += seconds * 1e6
    return tracer
