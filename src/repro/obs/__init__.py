"""Unified observability spine: metrics, tracing, and structured logging.

Every component that used to keep an ad-hoc ``stats()`` dict now *declares*
typed metrics (:class:`Counter`, :class:`Gauge`, :class:`Histogram`,
:class:`Timer`) on a :class:`MetricRegistry`; the registry snapshots,
diffs, resets, and serializes them uniformly. Tracing is
:func:`trace_from_results`: it rebuilds a per-clock-domain
:class:`Tracer` from finished simulation results and emits Chrome
``trace_event`` JSON that loads directly in Perfetto.

The three sub-modules:

- :mod:`repro.obs.metrics` — typed metric declarations and snapshots;
- :mod:`repro.obs.tracing` — traces from results + Chrome trace export;
- :mod:`repro.obs.log` — structured :mod:`logging` helpers replacing
  bare prints in library code.
"""

from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricRegistry,
    MetricSnapshot,
    Timer,
    write_metrics_csv,
    write_metrics_json,
)
from repro.obs.tracing import TraceEvent, Tracer, trace_from_results

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricRegistry",
    "MetricSnapshot",
    "Timer",
    "write_metrics_csv",
    "write_metrics_json",
    "Tracer",
    "TraceEvent",
    "trace_from_results",
    "get_logger",
    "configure_logging",
]
