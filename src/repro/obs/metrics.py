"""Typed metrics and the registry that snapshots, diffs, and serializes them.

Components declare their statistics once, with a name, unit, and
description::

    registry = MetricRegistry("cache.l1d")
    hits = registry.counter("hits", unit="accesses", description="demand hits")
    hits.inc()

and every consumer — CLI exports, parity tests, the metrics-diff report —
reads the same :class:`MetricSnapshot` instead of poking at per-component
dicts. A :class:`Counter` holds its count in one public ``value``
attribute, so the detailed simulator's per-access hot paths (cache hits
and misses, evictions, MSHR allocations, ring traffic, coherence steps)
bump it with ``counter.value += n`` — a single attribute addition, no
method call — while :meth:`Counter.inc` stays the checked increment for
everything else.
"""

from __future__ import annotations

import csv
import io
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import ConfigError

__all__ = [
    "Metric",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricRegistry",
    "MetricSnapshot",
    "write_metrics_csv",
    "write_metrics_json",
]


class Metric:
    """A named, typed statistic with a unit and a description."""

    kind = "metric"
    __slots__ = ("name", "unit", "description")

    def __init__(self, name: str, unit: str = "", description: str = "") -> None:
        if not name:
            raise ConfigError("metric name must be non-empty")
        self.name = name
        self.unit = unit
        self.description = description

    def values(self) -> Dict[str, float]:
        """The metric's exported samples, keyed by sample name.

        A scalar metric exports one sample under its own name; composite
        metrics (histograms, timers) export several suffixed samples.
        """
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        samples = ", ".join(f"{k}={v}" for k, v in self.values().items())
        return f"<{type(self).__name__} {samples}>"


class Counter(Metric):
    """A monotonically increasing count (events, bytes, accesses)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, unit: str = "", description: str = "") -> None:
        super().__init__(name, unit, description)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigError(f"counter {self.name} cannot decrease")
        self.value += amount

    def values(self) -> Dict[str, float]:
        return {self.name: self.value}

    def reset(self) -> None:
        self.value = 0


class Gauge(Metric):
    """A point-in-time level that can move both ways (queue depth, budget)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, name: str, unit: str = "", description: str = "") -> None:
        super().__init__(name, unit, description)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount

    def values(self) -> Dict[str, float]:
        return {self.name: self.value}

    def reset(self) -> None:
        self.value = 0.0


class Histogram(Metric):
    """A distribution summary: count, sum, min, max, mean.

    Kept deliberately bucket-free so a per-request ``observe`` stays a
    handful of float operations — cheap enough for DRAM queueing delays in
    the detailed simulator's inner loop.
    """

    kind = "histogram"
    __slots__ = ("count", "total", "min", "max")

    def __init__(self, name: str, unit: str = "", description: str = "") -> None:
        super().__init__(name, unit, description)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def values(self) -> Dict[str, float]:
        return {
            f"{self.name}.count": self.count,
            f"{self.name}.sum": self.total,
            f"{self.name}.min": self.min if self.min is not None else 0.0,
            f"{self.name}.max": self.max if self.max is not None else 0.0,
            f"{self.name}.mean": self.mean,
        }

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None


class Timer(Metric):
    """Accumulated wall-clock time, usable as a context manager.

    Repeated timings of the same name accumulate; ``seconds`` is the total.
    """

    kind = "timer"
    __slots__ = ("count", "seconds")

    def __init__(self, name: str, unit: str = "s", description: str = "") -> None:
        super().__init__(name, unit, description)
        self.count = 0
        self.seconds = 0.0

    @contextmanager
    def time(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(time.perf_counter() - start)

    def record(self, seconds: float) -> None:
        self.count += 1
        self.seconds += seconds

    def values(self) -> Dict[str, float]:
        return {self.name: self.seconds, f"{self.name}.count": self.count}

    def reset(self) -> None:
        self.count = 0
        self.seconds = 0.0


class MetricSnapshot(Mapping[str, float]):
    """An immutable, hashable point-in-time view of metric samples.

    Behaves like a read-only mapping (so existing ``stats()['hits']``
    consumers keep working), compares equal to plain dicts with the same
    items, and adds :meth:`diff`, :meth:`to_json`, and :meth:`to_csv`.
    Immutability is what lets a :class:`~repro.sim.results.SimulationResult`
    stay frozen-hashable while carrying counters across result-cache hits.
    """

    __slots__ = ("_items", "_index", "_hash")

    def __init__(self, samples: Optional[Mapping[str, float]] = None) -> None:
        items = tuple(sorted((samples or {}).items()))
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_index", dict(items))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MetricSnapshot is immutable")

    def __reduce__(self) -> "tuple[type, tuple[Dict[str, float]]]":
        # Slots + blocked __setattr__ break default pickling; rebuild
        # through the constructor (results cross process-pool boundaries).
        return (MetricSnapshot, (dict(self._items),))

    def __getitem__(self, key: str) -> float:
        return self._index[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._items))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MetricSnapshot):
            return self._items == other._items
        if isinstance(other, Mapping):
            return dict(self._items) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"MetricSnapshot({dict(self._items)!r})"

    def diff(self, before: "Mapping[str, float]") -> "MetricSnapshot":
        """Per-sample delta ``self - before`` over the union of names."""
        deltas = {
            name: self.get(name, 0.0) - before.get(name, 0.0)
            for name in set(self) | set(before)
        }
        return MetricSnapshot(deltas)

    def prefixed(self, prefix: str) -> "MetricSnapshot":
        """A copy with every sample name prefixed (component scoping)."""
        return MetricSnapshot({f"{prefix}{name}": v for name, v in self.items()})

    def merged(self, other: "Mapping[str, float]") -> "MetricSnapshot":
        """Union of two snapshots; colliding names sum."""
        merged = dict(self._items)
        for name, value in other.items():
            merged[name] = merged.get(name, 0.0) + value
        return MetricSnapshot(merged)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(dict(self._items), indent=indent, sort_keys=True)

    def to_csv(self) -> str:
        """``metric,value`` rows with a header line."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["metric", "value"])
        for name, value in self._items:
            writer.writerow([name, value])
        return buffer.getvalue()


class MetricRegistry:
    """The declared metrics of one component (or an aggregation of many)."""

    def __init__(self, component: str = "") -> None:
        self.component = component
        self._metrics: "Dict[str, Metric]" = {}

    # -- declaration -------------------------------------------------------

    def register(self, metric: Metric) -> Metric:
        if metric.name in self._metrics:
            raise ConfigError(
                f"metric {metric.name!r} already declared on {self.component!r}"
            )
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, unit: str = "", description: str = "") -> Counter:
        return self.register(Counter(name, unit, description))  # type: ignore[return-value]

    def gauge(self, name: str, unit: str = "", description: str = "") -> Gauge:
        return self.register(Gauge(name, unit, description))  # type: ignore[return-value]

    def histogram(self, name: str, unit: str = "", description: str = "") -> Histogram:
        return self.register(Histogram(name, unit, description))  # type: ignore[return-value]

    def timer(self, name: str, unit: str = "s", description: str = "") -> Timer:
        return self.register(Timer(name, unit, description))  # type: ignore[return-value]

    # -- access ------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Metric:
        return self._metrics[name]

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- snapshot / reset / serialize ---------------------------------------

    def as_dict(self) -> Dict[str, float]:
        """Flat ``{sample name: value}`` of every declared metric."""
        data: Dict[str, float] = {}
        for metric in self._metrics.values():
            data.update(metric.values())
        return data

    def snapshot(self) -> MetricSnapshot:
        return MetricSnapshot(self.as_dict())

    def reset(self) -> None:
        for metric in self._metrics.values():
            metric.reset()

    def describe(self) -> List[Tuple[str, str, str, str]]:
        """``(name, kind, unit, description)`` rows for documentation/export."""
        return [
            (m.name, m.kind, m.unit, m.description) for m in self._metrics.values()
        ]


def write_metrics_json(path: str, samples: Mapping[str, float]) -> str:
    """Write a flat metrics mapping as sorted JSON; returns the path."""
    snapshot = samples if isinstance(samples, MetricSnapshot) else MetricSnapshot(samples)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(snapshot.to_json(indent=2))
        handle.write("\n")
    return path


def write_metrics_csv(path: str, samples: Mapping[str, float]) -> str:
    """Write a flat metrics mapping as ``metric,value`` CSV; returns the path."""
    snapshot = samples if isinstance(samples, MetricSnapshot) else MetricSnapshot(samples)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(snapshot.to_csv())
    return path
