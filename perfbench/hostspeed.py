"""Host-speed calibration for timings taken on a shared machine.

The 2-core container the benchmark was written on shares its host with
other tenants. Their load makes the same Python code about 1.5x slower
in phases of 5 to 20 seconds, longer than a run's measured window, so
neither the fastest nor the median round of a run is steady from run to
run. Every timed span of an in-process workload is therefore bracketed
by :func:`probe`, a fixed piece of pure-Python work owned by the
benchmark (it never calls into ``src/``), and its seconds are scaled by
:func:`speed`: they become seconds on a host where the probe takes
:data:`REFERENCE_S`. A change to the program moves a scaled time exactly
as much as the raw one; a change in host load moves it far less.

The probe builds and reads dicts of small objects, the work the program
spends most of its time on. Of the candidates tried (this one, integer
arithmetic, large dicts, numpy array arithmetic, and mixes of them), it
tracked the host's phases best on rank-full, detailed-grid and
detailed-sweep alike: the median scaled round time of 10-second windows
spread by ~4% between quartiles, against 9-50% unscaled.
"""

import time

#: Probe seconds on the quiet host; scaled times are in these units.
REFERENCE_S = 0.003
#: A probe is the fastest of this many repetitions of the reference work.
REPEATS = 3

_ITEMS = [(i, i * 7) for i in range(2000)]


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _reference_work() -> int:
    total = 0
    for _ in range(6):
        cells = {key: _Cell(key, value) for key, value in _ITEMS}
        total += sum(cell.a + cell.b for cell in cells.values())
    return total


def probe() -> float:
    """Seconds the reference work takes now (fastest of ``REPEATS``)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return best


def speed(before: float, after: float) -> float:
    """Factor that turns seconds timed between two probes into
    reference-host seconds."""
    return REFERENCE_S / ((before + after) / 2.0)
