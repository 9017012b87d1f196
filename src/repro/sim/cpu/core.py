"""Out-of-order CPU core timing model.

A trace-driven approximation of a Sandy-Bridge-class core:

- up to ``issue_width`` instructions issue per cycle;
- branches run through a real gshare predictor; each misprediction costs
  the pipeline-refill penalty;
- loads/stores access the cache hierarchy; L1 hits are considered fully
  pipelined, while miss latency is divided by an MLP factor — the
  out-of-order window keeps several misses in flight, so the visible stall
  per miss is a fraction of the raw latency.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

from repro.config.system import CpuConfig
from repro.errors import SimulationError
from repro.mem.level import MemoryLevel
from repro.perf.compiled import EV_COMPUTE_RUN, EV_MEMORY, CompiledSegment
from repro.sim.cpu.branch import GsharePredictor

__all__ = ["CpuCore", "run_compiled_batch"]

#: Memory-level parallelism the OoO window sustains on streaming code.
DEFAULT_MLP = 4.0


class CpuCore:
    """One out-of-order core attached to a data-cache hierarchy."""

    def __init__(
        self,
        config: CpuConfig,
        memory: MemoryLevel,
        mlp: float = DEFAULT_MLP,
    ) -> None:
        if mlp < 1.0:
            raise SimulationError("MLP factor must be >= 1")
        self.config = config
        self.memory = memory
        self.mlp = mlp
        self.predictor = GsharePredictor(config.branch_predictor)
        self.instructions_retired = 0
        self.memory_stall_cycles = 0.0
        self.branch_stall_cycles = 0

    def step_compiled(
        self, compiled: CompiledSegment, start_seconds: float = 0.0
    ) -> Iterator[float]:
        """Execute a compiled segment, pausing before each access that
        may reach state the other PU shares.

        Yields the cumulative cycle count just before every access that
        the memory's private probe
        (:meth:`~repro.mem.level.MemoryLevel.private_window`) does not
        serve; the last yield is the segment's final count, including the
        trailing partial issue group. The interleaving engine
        (:func:`repro.sim.engine.run_parallel_interleaved`) resumes the
        core that is behind, so concurrent accesses reach the shared
        L3/DRAM in timestamp order. Compute runs and branches touch only
        this core, so they advance without a yield.

        The reference loop adds one ``1.0`` per issue-group wrap, and float
        addition is not associative, so a compute run adds its ``n`` wraps
        in one addition only when that sum is exact, else one at a time.
        It holds while the count is whole (every partial sum is then a
        whole number below 2**53), or when ``cycles >= n`` and
        ``(cycles + n) - cycles == n``: that subtraction is exact
        (Sterbenz), so it holds only when ``cycles + n`` is, and an exact
        ``cycles + n`` below 2**53 makes every partial sum exact too
        (``cycles`` and ``n`` are multiples of the result's ulp).

        A private hit (an L1 hit below the shared window) touches only that
        L1, which the peer changes only by invalidating shared-window
        lines, so it runs in place, before or after any peer access,
        without a yield either. A probed access that misses resumes with
        :meth:`~repro.mem.level.MemoryLevel.miss`, so the L1 looks its line
        up once; an address outside the window takes ``access``. Each
        access is issued at the same cycle, and every yielded access is
        keyed by the same count, as in the reference loop
        (:func:`repro.sim.reference.cpu_steps`), which yields after every
        instruction.
        """
        freq = self.config.frequency
        hertz = freq.hertz
        issue_width = self.config.issue_width
        penalty = self.config.branch_mispredict_penalty
        hit_latency = freq.cycles_to_seconds(self.config.l1d.latency)
        mlp = self.mlp
        access = self.memory.access
        miss = self.memory.miss
        limit, probe = self.memory.private_window()
        predict_and_update = self.predictor.predict_and_update

        cycles = 0.0
        slot = 0
        for kind, a, b, c in compiled.events:
            if kind == EV_COMPUTE_RUN:
                slot += a
                if slot >= issue_width:
                    wraps = slot // issue_width
                    slot -= wraps * issue_width
                    total = cycles + wraps
                    if cycles.is_integer() or (cycles >= wraps and total - cycles == wraps):
                        cycles = total
                    else:
                        for _ in range(wraps):
                            cycles += 1.0
                continue
            if kind == EV_MEMORY:
                if a < limit:
                    latency = probe(a, c)
                    finish = miss
                else:
                    latency = None
                    finish = access
                if latency is None:
                    yield cycles
                slot += 1
                if slot >= issue_width:
                    cycles += 1.0
                    slot = 0
                if latency is None:
                    latency = finish(a, c, start_seconds + int(cycles) / hertz)
                if latency > hit_latency:
                    stall = (latency - hit_latency) / mlp
                    stall_cycles = stall * hertz
                    cycles += stall_cycles
                    self.memory_stall_cycles += stall_cycles
            else:  # EV_BRANCH
                slot += 1
                if slot >= issue_width:
                    cycles += 1.0
                    slot = 0
                if not predict_and_update(b, a):
                    cycles += penalty
                    self.branch_stall_cycles += penalty
                    slot = 0
        if slot:
            cycles += 1
        self.instructions_retired += compiled.length
        yield cycles

    def run_segment(
        self, compiled: CompiledSegment, start_seconds: float = 0.0
    ) -> int:
        """Execute a whole compiled segment; returns cycles consumed.

        A drain of :meth:`step_compiled`: with no peer to interleave with,
        its pauses mark nothing and the last count is the segment's.
        """
        cycles = 0.0
        for cycles in self.step_compiled(compiled, start_seconds):
            pass
        return int(cycles)

    #: Alias of :meth:`run_segment`, kept for the benchmark's ``cpu.run``
    #: span (``perfbench/layers.py``), which wraps both names.
    run_compiled = run_segment

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle so far (approximate)."""
        total_cycles = (
            self.instructions_retired / self.config.issue_width
            + self.memory_stall_cycles
            + self.branch_stall_cycles
        )
        return self.instructions_retired / total_cycles if total_cycles else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "instructions": self.instructions_retired,
            "memory_stall_cycles": self.memory_stall_cycles,
            "branch_stall_cycles": self.branch_stall_cycles,
            "branch_mispredictions": self.predictor.mispredictions,
        }


def run_compiled_batch(
    cores: Sequence[CpuCore],
    compiled: CompiledSegment,
    start_seconds: Sequence[float],
) -> List[int]:
    """Each core's :meth:`CpuCore.run_segment`, in core order.

    Kept as a name for the benchmark's ``cpu.batch`` span
    (``perfbench/layers.py``); no simulator path calls it.
    """
    return [core.run_segment(compiled, start) for core, start in zip(cores, start_seconds)]
