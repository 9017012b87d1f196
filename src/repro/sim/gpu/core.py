"""In-order SIMD GPU core timing model.

A Fermi-like streaming multiprocessor reduced to its timing essentials:

- one instruction per cycle, in order;
- no branch predictor — the core stalls on every branch (Table II:
  "N/A (stall on branch)");
- memory operations first check the 16 KB software-managed cache; demand
  accesses go through the L1 and on to the shared hierarchy, with miss
  latency divided by the warp count — multithreading is the GPU's latency
  tolerance mechanism.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.config.system import GpuConfig
from repro.errors import SimulationError
from repro.mem.level import MemoryLevel
from repro.mem.request import MemRequest
from repro.perf.compiled import EV_COMPUTE_RUN, EV_MEMORY, CompiledSegment
from repro.sim.gpu.smem import Scratchpad
from repro.taxonomy import ProcessingUnit

__all__ = ["GpuCore", "run_compiled_batch"]


class GpuCore:
    """One in-order SIMD core with warp-level latency hiding.

    Two scheduling modes:

    - ``"heuristic"`` (default): a single instruction stream whose memory
      stalls are divided by the warp count — cheap and adequate for the
      streaming kernels;
    - ``"warp"``: an actual greedy warp scheduler — ``warps`` contexts pull
      instructions from the stream, a stalled warp parks until its memory
      request returns, and the issue slot goes to the earliest-ready warp.
      Latency hiding *emerges* instead of being assumed; see
      ``tests/sim/test_warp_mode.py`` for the cross-check between modes.
    """

    def __init__(
        self,
        config: GpuConfig,
        memory: MemoryLevel,
        latency_hiding_warps: Optional[int] = None,
        mode: str = "heuristic",
    ) -> None:
        if mode not in ("heuristic", "warp"):
            raise SimulationError(f"unknown GPU scheduling mode {mode!r}")
        self.config = config
        self.memory = memory
        self.mode = mode
        self.scratchpad = Scratchpad(config.smem_bytes, config.smem_latency)
        if latency_hiding_warps is None:
            latency_hiding_warps = config.warps_per_core
        if latency_hiding_warps < 1:
            raise SimulationError("need at least one warp for latency hiding")
        self.warps = latency_hiding_warps
        self.instructions_retired = 0
        self.memory_stall_cycles = 0.0
        self.branch_stall_cycles = 0
        self.scratchpad_hits = 0

    def step_warp(
        self, instructions: Iterable, start_seconds: float = 0.0
    ) -> Iterator[float]:
        """Warp-mode stepper: greedy warp scheduling over an instruction
        stream, yielding cumulative cycles per instruction.

        The issue slot goes to the earliest-ready warp; memory latency
        parks the issuing warp, not the core.
        """
        freq = self.config.frequency
        branch_stall = self.config.branch_stall_cycles if self.config.stall_on_branch else 0
        hit_latency_cycles = float(self.config.l1d.latency)

        ready = [0.0] * self.warps
        cycle = 0.0
        count = 0
        stream = iter(instructions)
        for inst in stream:
            count += 1
            # Earliest-ready warp takes the next instruction; the core
            # issues at most one instruction per cycle.
            warp = min(range(self.warps), key=ready.__getitem__)
            issue_at = max(cycle, ready[warp]) + 1
            if issue_at > cycle + 1:
                # All other warps were parked too: exposed stall.
                self.memory_stall_cycles += issue_at - (cycle + 1)
            cycle = issue_at
            opcode = inst.opcode
            if opcode.is_memory:
                smem = self.scratchpad.access(inst.addr)
                if smem is not None:
                    self.scratchpad_hits += 1
                    ready[warp] = cycle + max(smem - 1, 0)
                    yield cycle
                    continue
                request = MemRequest(
                    addr=inst.addr,
                    size=inst.size,
                    is_write=opcode.is_store,
                    pu=ProcessingUnit.GPU,
                    issue_time=start_seconds + freq.cycles_to_seconds(int(cycle)),
                )
                result = self.memory.access(request)
                latency_cycles = result.latency * freq.hertz
                ready[warp] = cycle + max(latency_cycles - hit_latency_cycles, 0.0)
            elif opcode.value == "branch":
                ready[warp] = cycle + branch_stall
                self.branch_stall_cycles += branch_stall
            else:
                ready[warp] = cycle
            yield cycle
        # Drain: the segment finishes when the last warp's work lands.
        cycle = max([cycle] + ready)
        self.instructions_retired += count
        yield cycle

    def step_compiled(
        self, compiled: CompiledSegment, start_seconds: float = 0.0
    ) -> Iterator[float]:
        """Execute a compiled segment one instruction at a time.

        The stepping protocol of
        :meth:`repro.sim.cpu.core.CpuCore.step_compiled`; yield-for-yield
        identical to the reference loop (:func:`repro.sim.reference.gpu_steps`)
        on the decoded stream. Warp mode decodes into :meth:`step_warp`.
        """
        if self.mode == "warp":
            yield from self.step_warp(compiled.instructions(), start_seconds)
            return
        freq = self.config.frequency
        hertz = freq.hertz
        branch_stall = self.config.branch_stall_cycles if self.config.stall_on_branch else 0
        hit_latency = freq.cycles_to_seconds(self.config.l1d.latency)
        warps = self.warps
        access_latency = self.memory.access_latency
        scratchpad_access = self.scratchpad.access
        pu = ProcessingUnit.GPU

        cycles = 0.0
        for kind, a, b, c in compiled.events:
            if kind == EV_COMPUTE_RUN:
                for _ in range(a):
                    cycles += 1.0
                    yield cycles
                continue
            cycles += 1.0
            if kind == EV_MEMORY:
                smem = scratchpad_access(a)
                if smem is not None:
                    self.scratchpad_hits += 1
                    cycles += max(smem - 1, 0)
                    yield cycles
                    continue
                latency = access_latency(
                    a, b, bool(c), pu, False, False, start_seconds + int(cycles) / hertz
                )
                if latency > hit_latency:
                    stall = (latency - hit_latency) / warps
                    stall_cycles = stall * hertz
                    cycles += stall_cycles
                    self.memory_stall_cycles += stall_cycles
            else:  # EV_BRANCH
                cycles += branch_stall
                self.branch_stall_cycles += branch_stall
            yield cycles
        self.instructions_retired += compiled.length
        yield cycles

    def run_segment(
        self, compiled: CompiledSegment, start_seconds: float = 0.0
    ) -> int:
        """Execute a whole compiled segment; returns GPU cycles consumed.

        A batch of one through :func:`run_compiled_batch`. The benchmark's
        ``gpu.run`` span (``perfbench/layers.py``) wraps this method and
        :attr:`run_compiled`, so both names stay.
        """
        return run_compiled_batch([self], compiled, [start_seconds])[0]

    #: Alias of :meth:`run_segment`, kept for the ``gpu.run`` span hook.
    run_compiled = run_segment

    def push(self, base: int, size: int) -> None:
        """Explicitly place a region into the software-managed cache."""
        self.scratchpad.push(base, size)

    def stats(self) -> Dict[str, float]:
        data = {
            "instructions": self.instructions_retired,
            "memory_stall_cycles": self.memory_stall_cycles,
            "branch_stall_cycles": self.branch_stall_cycles,
            "scratchpad_hits": self.scratchpad_hits,
        }
        for key, value in self.scratchpad.stats().items():
            data[f"smem_{key}"] = value
        return data


def run_compiled_batch(
    cores: Sequence[GpuCore],
    compiled: CompiledSegment,
    start_seconds: Sequence[float],
) -> List[int]:
    """Run one compiled event stream through N GPU cores in a single pass.

    The GPU side of :func:`repro.sim.cpu.core.run_compiled_batch` (same
    float-exactness rules): event records are decoded once and applied to
    every per-point core state, operation-for-operation the reference
    heuristic loop (:func:`repro.sim.reference.gpu_steps`). Any core in
    warp mode makes the whole batch drain :meth:`GpuCore.step_warp` per
    core instead (warp latency hiding depends on per-instruction scheduler
    state that cannot share a decode pass).

    Returns each core's cycle count, in core order.
    """
    n = len(cores)
    if len(start_seconds) != n:
        raise SimulationError(
            f"need one start time per core: {n} cores, {len(start_seconds)} times"
        )
    if any(core.mode == "warp" for core in cores):
        out = []
        for core, start in zip(cores, start_seconds):
            cycles = 0.0
            for cycles in core.step_compiled(compiled, start):
                pass
            out.append(int(cycles))
        return out

    hertz = [core.config.frequency.hertz for core in cores]
    branch_stall = [
        core.config.branch_stall_cycles if core.config.stall_on_branch else 0
        for core in cores
    ]
    hit_latency = [
        core.config.frequency.cycles_to_seconds(core.config.l1d.latency)
        for core in cores
    ]
    warps = [core.warps for core in cores]
    access = [core.memory.access_latency for core in cores]
    scratchpad = [core.scratchpad.access for core in cores]
    pu = ProcessingUnit.GPU

    cycles = [0.0] * n
    for kind, a, b, c in compiled.events:
        if kind == EV_COMPUTE_RUN:
            for i in range(n):
                cy = cycles[i]
                if cy.is_integer():
                    cycles[i] = cy + a
                else:
                    for _ in range(a):
                        cy += 1.0
                    cycles[i] = cy
        elif kind == EV_MEMORY:
            is_write = bool(c)
            for i in range(n):
                cy = cycles[i] + 1.0
                smem = scratchpad[i](a)
                if smem is not None:
                    cores[i].scratchpad_hits += 1
                    cy += max(smem - 1, 0)
                    cycles[i] = cy
                    continue
                latency = access[i](
                    a, b, is_write, pu, False, False, start_seconds[i] + int(cy) / hertz[i]
                )
                hit = hit_latency[i]
                if latency > hit:
                    stall = (latency - hit) / warps[i]
                    stall_cycles = stall * hertz[i]
                    cy += stall_cycles
                    cores[i].memory_stall_cycles += stall_cycles
                cycles[i] = cy
        else:  # EV_BRANCH
            for i in range(n):
                cycles[i] += 1.0
                cycles[i] += branch_stall[i]
                cores[i].branch_stall_cycles += branch_stall[i]
    out: List[int] = []
    for i in range(n):
        cores[i].instructions_retired += compiled.length
        out.append(int(cycles[i]))
    return out
