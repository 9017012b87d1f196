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
from repro.perf.compiled import EV_COMPUTE_RUN, EV_MEMORY, CompiledSegment
from repro.sim.gpu.smem import Scratchpad

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
                latency = self.memory.access(
                    inst.addr,
                    opcode.is_store,
                    start_seconds + freq.cycles_to_seconds(int(cycle)),
                )
                latency_cycles = latency * freq.hertz
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
        """Execute a compiled segment, pausing before each access that
        may reach state the other PU shares.

        The stepping protocol of
        :meth:`repro.sim.cpu.core.CpuCore.step_compiled`: one yield before
        each access that the private probe
        (:meth:`~repro.mem.level.MemoryLevel.private_window`) does not
        serve, then the final count; a probed miss resumes with
        :meth:`~repro.mem.level.MemoryLevel.miss`. Scratchpad hits, private L1
        hits, branches and compute runs are private to this core and need
        no yield; a compute run is one addition when that sum is exact,
        else one ``+= 1.0`` per instruction, as the reference loop adds
        (the exactness test of the CPU's loop).
        Regions are pushed into the scratchpad only between phases, so an
        empty scratchpad is not consulted at all. Each access happens at the same cycle, and every
        yielded access is keyed by the same count, as in the reference
        loop (:func:`repro.sim.reference.gpu_steps`). Warp mode decodes
        into :meth:`step_warp`, which still yields once per instruction.
        """
        if self.mode == "warp":
            yield from self.step_warp(compiled.instructions(), start_seconds)
            return
        freq = self.config.frequency
        hertz = freq.hertz
        branch_stall = self.config.branch_stall_cycles if self.config.stall_on_branch else 0
        hit_latency = freq.cycles_to_seconds(self.config.l1d.latency)
        warps = self.warps
        access = self.memory.access
        miss = self.memory.miss
        limit, probe = self.memory.private_window()
        scratchpad_access = None if self.scratchpad.empty else self.scratchpad.access

        cycles = 0.0
        for kind, a, b, c in compiled.events:
            if kind == EV_COMPUTE_RUN:
                total = cycles + a
                if cycles.is_integer() or (cycles >= a and total - cycles == a):
                    cycles = total
                else:
                    for _ in range(a):
                        cycles += 1.0
            elif kind == EV_MEMORY:
                if scratchpad_access is not None:
                    smem = scratchpad_access(a)
                    if smem is not None:
                        self.scratchpad_hits += 1
                        cycles += 1.0
                        cycles += max(smem - 1, 0)
                        continue
                if a < limit:
                    latency = probe(a, c)
                    if latency is None:
                        yield cycles
                        cycles += 1.0
                        latency = miss(a, c, start_seconds + int(cycles) / hertz)
                    else:
                        cycles += 1.0
                else:
                    yield cycles
                    cycles += 1.0
                    latency = access(a, c, start_seconds + int(cycles) / hertz)
                if latency > hit_latency:
                    stall = (latency - hit_latency) / warps
                    stall_cycles = stall * hertz
                    cycles += stall_cycles
                    self.memory_stall_cycles += stall_cycles
            else:  # EV_BRANCH
                cycles += 1.0
                cycles += branch_stall
                self.branch_stall_cycles += branch_stall
        self.instructions_retired += compiled.length
        yield cycles

    def run_segment(
        self, compiled: CompiledSegment, start_seconds: float = 0.0
    ) -> int:
        """Execute a whole compiled segment; returns GPU cycles consumed.

        A drain of :meth:`step_compiled`, as
        :meth:`repro.sim.cpu.core.CpuCore.run_segment` is of the CPU's.
        """
        cycles = 0.0
        for cycles in self.step_compiled(compiled, start_seconds):
            pass
        return int(cycles)

    #: Alias of :meth:`run_segment`, kept for the benchmark's ``gpu.run``
    #: span (``perfbench/layers.py``), which wraps both names.
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
    """Each core's :meth:`GpuCore.run_segment`, in core order.

    Kept as a name for the benchmark's ``gpu.batch`` span
    (``perfbench/layers.py``); no simulator path calls it.
    """
    return [core.run_segment(compiled, start) for core, start in zip(cores, start_seconds)]
