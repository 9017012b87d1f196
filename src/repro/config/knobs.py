"""The boundary schema: every numeric or enumerated knob, declared once.

A knob is a value set from outside the library: a CLI flag, a serve
request field, or the constructor argument behind one. :func:`value` is
its one check: it turns CLI text or a decoded JSON/Python value into the
checked value, or raises :class:`~repro.errors.ConfigError`
``"{where} must be {rule}, got {raw!r}"`` (exit 2 on the CLI, HTTP 400
from the server). A bool is never a number; every float knob has finite
bounds, so NaN and ±inf fail; time knobs stop at
:data:`threading.TIMEOUT_MAX`, past which a wait overflows. An ``auto``
knob returns the literal ``"auto"`` for its consumer to resolve
(``ParallelRunner`` for ``jobs``, ``Explorer.shard_count`` for
``shards``); a ``many`` knob is a list, or comma-separated text. Rules
that span fields stay with their objects (``MetricWeights``).
"""

from __future__ import annotations

import math
import numbers
import os
import sys
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError

__all__ = ["Knob", "KNOBS", "JOBS_CAP", "value"]


@dataclass(frozen=True)
class Knob:
    """``kind`` is ``int``, ``float``, or ``str`` with ``choices``;
    ``low``/``high`` are inclusive (``None``: unbounded)."""

    kind: type
    rule: str
    low: Optional[float] = None
    high: Optional[float] = None
    auto: bool = False
    optional: bool = False
    many: bool = False
    choices: Tuple[str, ...] = ()


def _count(low: int, high: Optional[int] = None) -> Knob:
    rule = f"an integer >= {low}" if high is None else f"an integer in {low}..{high}"
    return Knob(int, rule, low, high)


def _choice(*choices: str) -> Knob:
    return Knob(str, f"one of {choices}", choices=choices)


#: The least positive float: "> 0" as an inclusive bound.
_TINY = math.ulp(0.0)
_POSITIVE = (float, "a finite positive number", _TINY, sys.float_info.max)
_WAIT = f"a positive finite number of seconds, at most {threading.TIMEOUT_MAX:.0f}"
#: The most worker processes ``jobs`` may start: twice this host's cores,
#: and never fewer than 4, the widest pool any test or CI step asks for.
JOBS_CAP = max(4, 2 * (os.cpu_count() or 1))

KNOBS: Dict[str, Knob] = {
    # exploration: figure / rank / faults and the Explorer under them
    "jobs": Knob(int, f"an integer in 1..{JOBS_CAP} or 'auto'", 1, JOBS_CAP, auto=True),
    "shards": Knob(int, "an integer >= 1 or 'auto'", 1, auto=True, optional=True),
    "sample": _count(0),
    "top": _count(1),
    "retries": _count(0),
    "job_timeout": Knob(float, _WAIT, _TINY, threading.TIMEOUT_MAX, optional=True),
    # ``faults --rates`` text goes to fault_sensitivity, whose errors
    # name the rates rather than the flag.
    "fault_rates": Knob(float, "in [0, 1] (a finite fraction)", 0.0, 1.0, optional=True, many=True),
    "check": _choice("off", "warn", "error", "optimize"),
    # serve: the daemon's flags and request fields
    "port": _count(0, 65535),
    "queue_depth": _count(1),
    "deadline": Knob(float, _WAIT, _TINY, threading.TIMEOUT_MAX),
    "watchdog_budget": _count(0),
    "fidelity": _choice("fast", "detailed"),
    # bench: a NaN must not switch its gates off
    "scale": Knob(*_POSITIVE),
    "sweep_scale": Knob(*_POSITIVE),
    "repeats": _count(1),
    "stride": _count(1),
    "store_stride": _count(1),
    "tolerance": Knob(float, "a finite fraction in [0, 1)", 0.0, math.nextafter(1.0, 0.0)),
    "min_speedup": Knob(*_POSITIVE, optional=True),
}


def value(name: str, raw: object, where: str) -> object:
    """``raw`` checked against knob ``name``; ``where`` names it in the error."""
    knob = KNOBS[name]
    if raw is None and knob.optional:
        return None
    if not knob.many:
        return _one(knob, raw, where)
    items = raw.split(",") if isinstance(raw, str) else raw
    if not isinstance(items, (list, tuple)):
        raise _error(knob, raw, where)
    return tuple(_one(knob, item, where) for item in items)


def _one(knob: Knob, raw: object, where: str) -> object:
    if knob.choices:
        if isinstance(raw, str) and raw in knob.choices:
            return raw
    elif knob.auto and isinstance(raw, str) and raw.strip().lower() == "auto":
        return "auto"
    else:
        number = _number(knob.kind, raw)
        if (
            number is not None
            and (knob.low is None or number >= knob.low)
            and (knob.high is None or number <= knob.high)
        ):
            return number
    raise _error(knob, raw, where)


def _number(kind: type, raw: object) -> "int | float | None":
    """``raw`` as a ``kind`` number, or ``None`` when it is not one."""
    numeric = numbers.Integral if kind is int else numbers.Real
    if isinstance(raw, bool) or not isinstance(raw, (str, numeric)):
        return None
    try:
        return kind(raw)
    except (ValueError, OverflowError):
        return None


def _error(knob: Knob, raw: object, where: str) -> ConfigError:
    return ConfigError(f"{where} must be {knob.rule}, got {raw!r}")
