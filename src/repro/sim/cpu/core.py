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
        """Execute a compiled segment one instruction at a time.

        Yields the cumulative cycle count after every instruction; the last
        yield is the segment's final count, including the trailing partial
        issue group. The interleaving engine
        (:func:`repro.sim.engine.run_parallel_interleaved`) alternates two
        such steppers so concurrent accesses reach the shared L3/DRAM in
        timestamp order. Yield-for-yield identical to the reference
        per-instruction loop (:func:`repro.sim.reference.cpu_steps`) on the
        decoded stream, without building Instruction objects.
        """
        freq = self.config.frequency
        hertz = freq.hertz
        issue_width = self.config.issue_width
        penalty = self.config.branch_mispredict_penalty
        hit_latency = freq.cycles_to_seconds(self.config.l1d.latency)
        mlp = self.mlp
        access = self.memory.access
        predict_and_update = self.predictor.predict_and_update

        cycles = 0.0
        slot = 0
        for kind, a, b, c in compiled.events:
            if kind == EV_COMPUTE_RUN:
                for _ in range(a):
                    slot += 1
                    if slot >= issue_width:
                        cycles += 1.0
                        slot = 0
                    yield cycles
                continue
            slot += 1
            if slot >= issue_width:
                cycles += 1.0
                slot = 0
            if kind == EV_MEMORY:
                latency = access(a, bool(c), start_seconds + int(cycles) / hertz)
                if latency > hit_latency:
                    stall = (latency - hit_latency) / mlp
                    stall_cycles = stall * hertz
                    cycles += stall_cycles
                    self.memory_stall_cycles += stall_cycles
            else:  # EV_BRANCH
                if not predict_and_update(b, bool(a)):
                    cycles += penalty
                    self.branch_stall_cycles += penalty
                    slot = 0
            yield cycles
        if slot:
            cycles += 1
        self.instructions_retired += compiled.length
        yield cycles

    def run_segment(
        self, compiled: CompiledSegment, start_seconds: float = 0.0
    ) -> int:
        """Execute a whole compiled segment; returns cycles consumed.

        A batch of one through :func:`run_compiled_batch`. The benchmark's
        ``cpu.run`` span (``perfbench/layers.py``) wraps this method and
        :attr:`run_compiled`, so both names stay.
        """
        return run_compiled_batch([self], compiled, [start_seconds])[0]

    #: Alias of :meth:`run_segment`, kept for the ``cpu.run`` span hook.
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
    """Run one compiled event stream through N cores in a single pass.

    The one whole-segment CPU loop: each core belongs to a different design
    point's machine (N=1 for a single-point run), and every event record is
    decoded exactly once and applied to all N per-point states (cycles,
    issue slot, predictor, memory hierarchy). Per point, the arithmetic is
    operation-for-operation the reference per-instruction loop
    (:func:`repro.sim.reference.cpu_steps`), so results are bit-identical
    to running the cores one at a time — ``tests/perf`` pins this.

    Exactness notes: issue-group wraps are added one ``+= 1.0`` at a time
    whenever the cycle count carries a fractional part (float addition is
    not associative, and the reference loop adds sequentially); when it is
    integer-valued the batched add is exact. Stalls accumulate onto the
    core attributes per miss, in stream order, exactly like the reference.

    Returns each core's cycle count, in core order.
    """
    n = len(cores)
    if len(start_seconds) != n:
        raise SimulationError(
            f"need one start time per core: {n} cores, {len(start_seconds)} times"
        )

    hertz = [core.config.frequency.hertz for core in cores]
    issue_width = [core.config.issue_width for core in cores]
    penalty = [core.config.branch_mispredict_penalty for core in cores]
    hit_latency = [
        core.config.frequency.cycles_to_seconds(core.config.l1d.latency)
        for core in cores
    ]
    mlp = [core.mlp for core in cores]
    access = [core.memory.access for core in cores]
    predict = [core.predictor.predict_and_update for core in cores]

    cycles = [0.0] * n
    slots = [0] * n
    for kind, a, b, c in compiled.events:
        if kind == EV_COMPUTE_RUN:
            for i in range(n):
                slot = slots[i] + a
                width = issue_width[i]
                wraps = slot // width
                slots[i] = slot - wraps * width
                if wraps:
                    cy = cycles[i]
                    if cy.is_integer():
                        cycles[i] = cy + wraps
                    else:
                        for _ in range(wraps):
                            cy += 1.0
                        cycles[i] = cy
        elif kind == EV_MEMORY:
            is_write = bool(c)
            for i in range(n):
                slot = slots[i] + 1
                cy = cycles[i]
                if slot >= issue_width[i]:
                    cy += 1.0
                    slot = 0
                slots[i] = slot
                latency = access[i](a, is_write, start_seconds[i] + int(cy) / hertz[i])
                hit = hit_latency[i]
                if latency > hit:
                    stall = (latency - hit) / mlp[i]
                    stall_cycles = stall * hertz[i]
                    cy += stall_cycles
                    cores[i].memory_stall_cycles += stall_cycles
                cycles[i] = cy
        else:  # EV_BRANCH
            taken = bool(a)
            for i in range(n):
                slot = slots[i] + 1
                if slot >= issue_width[i]:
                    cycles[i] += 1.0
                    slot = 0
                if not predict[i](b, taken):
                    cycles[i] += penalty[i]
                    cores[i].branch_stall_cycles += penalty[i]
                    slot = 0
                slots[i] = slot
    out: List[int] = []
    for i in range(n):
        cy = cycles[i]
        if slots[i]:
            cy += 1
        cores[i].instructions_retired += compiled.length
        out.append(int(cy))
    return out
