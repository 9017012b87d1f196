"""Layer attribution from outside the program.

Two instruments, both applied without editing ``src/``:

- :class:`Recorder` wraps the public functions at each layer boundary
  (listed in :data:`SPANS`) with spans. A span records its calls, its
  inclusive seconds and its self seconds (inclusive minus the time its
  child spans cover). A span nested inside another span of the same name
  is not recorded again, so ``run_segment -> run_compiled`` counts once.
  Spans are kept in memory per thread and summed under a lock.
- :func:`module_shares` aggregates a ``cProfile`` run's self time per
  module group of ``repro``. The inner loops (``Cache.access*``,
  ``step_compiled``, ``Segment.raw_ops``) are attributed this way instead
  of being wrapped, because a wrapper per access would distort them.
  A built-in call (``dict.get``, ``hash``) is charged to the module that
  made it.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Recorder", "SPANS", "module_shares"]

#: Span name -> the public callables it wraps, as ``module:Owner.attr`` (a
#: class attribute) or ``module:attr`` (a module-level name). A function
#: imported by name into another module is patched in each module that
#: binds it, so every call site sees the wrapper.
SPANS: Dict[str, Tuple[str, ...]] = {
    "trace.build": ("@kernels",),
    "trace.scaled": ("repro.trace.stream:KernelTrace.scaled",),
    "trace.stage": (
        "repro.sim.mmu:stage_shared_trace",
        "repro.core.explorer:stage_shared_trace",
    ),
    "compile.compile": ("repro.perf.compiled:CompiledSegment.from_segment",),
    "detailed.run": ("repro.sim.detailed:DetailedSimulator.run",),
    "engine.interleaved": (
        "repro.sim.engine:run_parallel_interleaved",
        "repro.sim.detailed:run_parallel_interleaved",
        "repro.perf.sweep:run_parallel_interleaved",
    ),
    "cpu.run": (
        "repro.sim.cpu.core:CpuCore.run_compiled",
        "repro.sim.cpu.core:CpuCore.run_segment",
    ),
    "gpu.run": (
        "repro.sim.gpu.core:GpuCore.run_compiled",
        "repro.sim.gpu.core:GpuCore.run_segment",
    ),
    "cpu.batch": (
        "repro.sim.cpu.core:run_compiled_batch",
        "repro.perf.sweep:cpu_run_compiled_batch",
    ),
    "gpu.batch": (
        "repro.sim.gpu.core:run_compiled_batch",
        "repro.perf.sweep:gpu_run_compiled_batch",
    ),
    "sweep.run": ("repro.perf.sweep:SweepSimulator.run",),
    "fast.run": ("repro.sim.fast:FastSimulator.run",),
    "exec.cache_key": ("repro.exec.job:SimJob.cache_key",),
    "exec.memo_get": (
        "repro.exec.cache:ResultCache.get",
        "repro.store.cache:StoreBackedResultCache.get",
    ),
    "exec.memo_put": (
        "repro.exec.cache:ResultCache.put",
        "repro.store.cache:StoreBackedResultCache.put",
    ),
    "exec.run_jobs": ("repro.exec.runner:ParallelRunner.run_jobs",),
    "exec.map": ("repro.exec.runner:ParallelRunner.map",),
    "exec.shard": ("repro.exec.sweepjob:run_shard",),
    "explorer.init": ("repro.core.explorer:Explorer.__init__",),
    "explorer.api": (
        "repro.core.explorer:Explorer.rank_design_points",
        "repro.core.explorer:Explorer.evaluate_design_point",
        "repro.core.explorer:Explorer.run_case_studies",
        "repro.core.explorer:Explorer.run_case_studies_detailed",
        "repro.core.explorer:Explorer.run_coherence_overhead",
    ),
    "programmability.table5": (
        "repro.core.programmability:table5_dict",
        "repro.core.explorer:table5_dict",
    ),
    "store.put": ("repro.store.store:ResultStore.put_bytes",),
    "store.get": ("repro.store.store:ResultStore.get_bytes",),
}

#: Spans whose return value says whether a lookup hit (``None`` = miss).
_HIT_COUNTED = ("exec.memo_get", "store.get")

#: Spans that also count the items they were handed: the position of the
#: argument (``self`` is 0) whose length is the work size.
_ITEM_COUNTED = {"exec.run_jobs": 1, "sweep.run": 2}


def _resolve(spec: str) -> Tuple[object, str]:
    """(owner, attribute name) for a ``module:Owner.attr`` spec."""
    module_name, _, path = spec.partition(":")
    owner: object = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _raw(owner: object, attr: str) -> object:
    """The attribute as stored, so class/static methods keep their kind."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _kernel_build_targets() -> List[Tuple[object, str]]:
    """The class defining ``build`` for every registered kernel.

    ``Kernel.build`` is abstract, so each concrete implementation is
    patched where it is defined.
    """
    from repro.kernels.registry import all_kernels

    owners = set()
    for kernel in all_kernels():
        for cls in type(kernel).__mro__:
            if "build" in cls.__dict__:
                owners.add(cls)
                break
    return [(cls, "build") for cls in sorted(owners, key=lambda c: c.__name__)]


class Recorder:
    """Per-span call counts and inclusive/self seconds, thread-aware."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, inclusive seconds, self seconds, items]
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        #: name -> [hits, lookups] for lookup spans
        self.hits: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        #: Seconds covered by spans with no enclosing span.
        self.covered = 0.0
        self._patched: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        """Open a span by hand, for a boundary that is not one call."""
        if self.enabled:
            self._stack().append([name, time.perf_counter(), 0.0])

    def end(self, name: str) -> None:
        """Close the innermost open span called ``name`` on this thread."""
        stack = self._stack()
        if not stack or stack[-1][0] != name:
            return
        _, start, child = stack.pop()
        self._close(name, time.perf_counter() - start, child, stack, 0)

    def _close(
        self, name: str, elapsed: float, child: float, stack: list, items: int
    ) -> None:
        if stack:
            stack[-1][2] += elapsed
        with self._lock:
            cell = self.spans[name]
            cell[0] += 1
            cell[1] += elapsed
            cell[2] += elapsed - child
            cell[3] += items
            if not stack:
                self.covered += elapsed

    def wrap(self, name: str, func: Callable) -> Callable:
        recorder = self
        count_hits = name in _HIT_COUNTED
        item_arg = _ITEM_COUNTED.get(name)

        @functools.wraps(func)
        def span(*args, **kwargs):
            if not recorder.enabled:
                return func(*args, **kwargs)
            stack = recorder._stack()
            for frame in stack:
                if frame[0] == name:
                    return func(*args, **kwargs)
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                items = 0
                if item_arg is not None and len(args) > item_arg:
                    items = len(args[item_arg])
                recorder._close(name, elapsed, frame[2], stack, items)
            if count_hits:
                with recorder._lock:
                    cell = recorder.hits[name]
                    cell[0] += result is not None
                    cell[1] += 1
            return result

        return span

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: object, attr: str, name: str) -> None:
        raw = _raw(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: object = classmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__))
        else:
            wrapped = self.wrap(name, raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def install(self) -> "Recorder":
        """Wrap every callable in :data:`SPANS`."""
        for name, specs in SPANS.items():
            for spec in specs:
                if spec == "@kernels":
                    for owner, attr in _kernel_build_targets():
                        self._patch(owner, attr, name)
                else:
                    owner, attr = _resolve(spec)
                    self._patch(owner, attr, name)
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- reading -------------------------------------------------------------

    def calls(self, *names: str) -> int:
        return int(sum(self.spans[n][0] for n in names if n in self.spans))

    def inclusive(self, *names: str) -> float:
        return sum(self.spans[n][1] for n in names if n in self.spans)

    def self_time(self, *names: str) -> float:
        return sum(self.spans[n][2] for n in names if n in self.spans)

    def items(self, name: str) -> int:
        return int(self.spans[name][3]) if name in self.spans else 0

    def hit_ratio(self, name: str) -> float:
        hits, lookups = self.hits.get(name, (0, 0))
        return hits / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        """A JSON-ready copy (the traced server writes this at exit)."""
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "hits": {k: list(v) for k, v in self.hits.items()},
                "covered": self.covered,
            }

    def merge(self, snap: dict) -> None:
        with self._lock:
            for name, values in snap["spans"].items():
                cell = self.spans[name]
                for i, value in enumerate(values):
                    cell[i] += value
            for name, (hits, lookups) in snap["hits"].items():
                cell = self.hits[name]
                cell[0] += hits
                cell[1] += lookups
            self.covered += snap["covered"]


#: Module groups for the profile shares: (metric prefix, path fragment).
SHARE_GROUPS: Tuple[Tuple[str, str], ...] = (
    ("mem.cache", "/repro/mem/cache/"),
    ("mem.dram", "/repro/mem/dram/"),
    ("mem.interconnect", "/repro/mem/interconnect/"),
    ("mem.coherence", "/repro/mem/coherence/"),
    ("comm", "/repro/comm/"),
    ("sim.cpu", "/repro/sim/cpu/"),
    ("sim.gpu", "/repro/sim/gpu/"),
    ("sim.engine", "/repro/sim/engine.py"),
    ("trace", "/repro/trace/"),
    ("perf", "/repro/perf/"),
    ("exec", "/repro/exec/"),
)


def _group_of(filename: str) -> Optional[str]:
    path = filename.replace("\\", "/")
    for group, fragment in SHARE_GROUPS:
        if fragment in path:
            return group
    return None


def module_shares(profile) -> Dict[str, float]:
    """Share of profiled self time per module group, plus ``py.hash``.

    A built-in function's self time is split across its callers (pstats
    keeps per-caller times) and charged to each caller's group;
    ``py.hash`` is the share of ``builtins.hash`` wherever it was called.
    """
    import pstats

    stats = pstats.Stats(profile).stats
    total = 0.0
    by_group: Dict[str, float] = defaultdict(float)
    for (filename, _line, funcname), (_cc, _nc, tottime, _ct, callers) in stats.items():
        total += tottime
        if funcname == "<built-in method builtins.hash>":
            by_group["py.hash"] += tottime
        if filename == "~":
            for (caller_file, _l, _f), caller_stats in callers.items():
                group = _group_of(caller_file)
                if group is not None:
                    by_group[group] += caller_stats[2]
            continue
        group = _group_of(filename)
        if group is not None:
            by_group[group] += tottime
    if total <= 0:
        return {}
    return {group: seconds / total for group, seconds in by_group.items()}
