"""The reference oracle for the detailed simulator.

The per-instruction generator expansion the compiled hot path replaced:
every segment is expanded into :class:`~repro.trace.instruction.Instruction`
objects and stepped one at a time, each memory instruction one scalar
:meth:`~repro.mem.level.MemoryLevel.access` into the hierarchy, through a
plain single-point phase walk. Its steppers yield after every
instruction, where production's ``step_compiled`` yields only before each
access; the interleaving engine merges both in the same access order. It
is slow and simple on purpose. Production never runs it (lint rule L007 keeps
every module of :mod:`repro` from importing it);
``tests/perf/test_parity.py`` checks the production walk
(:func:`repro.perf.sweep.walk_phases`) and each core's whole-segment run
against it bit for bit, and the core model-property tests feed it
hand-built instruction lists.

Both sides share the machine (:func:`repro.sim.system.build_machine`),
the channels, the warp scheduler (:meth:`repro.sim.gpu.core.GpuCore.step_warp`)
and the interleaving engine
(:func:`repro.sim.engine.run_parallel_interleaved`), which merges any two
cycle steppers by wall-clock time.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.comm.base import CommChannel
from repro.errors import SimulationError
from repro.sim.cpu.core import CpuCore
from repro.sim.detailed import DetailedSimulator
from repro.sim.engine import run_parallel_interleaved
from repro.sim.gpu.core import GpuCore
from repro.sim.results import PhaseTiming, TimeBreakdown
from repro.sim.system import Machine
from repro.trace.phase import CommPhase, Direction, ParallelPhase, SequentialPhase
from repro.trace.stream import KernelTrace

__all__ = ["cpu_steps", "gpu_steps", "run_segment", "ReferenceSimulator"]


def cpu_steps(
    core: CpuCore, instructions: Iterable, start_seconds: float = 0.0
) -> Iterator[float]:
    """Execute instructions on ``core`` one at a time, yielding cumulative
    cycles.

    The last yielded value is the segment's final cycle count, including
    the trailing partial issue group.
    """
    freq = core.config.frequency
    issue_width = core.config.issue_width
    penalty = core.config.branch_mispredict_penalty
    hit_latency = freq.cycles_to_seconds(core.config.l1d.latency)

    cycles = 0.0
    slot = 0
    count = 0
    pc = 0x400000
    for inst in instructions:
        count += 1
        pc += 4
        slot += 1
        if slot >= issue_width:
            cycles += 1
            slot = 0
        opcode = inst.opcode
        if opcode.is_memory:
            latency = core.memory.access(
                inst.addr,
                opcode.is_store,
                start_seconds + freq.cycles_to_seconds(int(cycles)),
            )
            if latency > hit_latency:
                stall = (latency - hit_latency) / core.mlp
                stall_cycles = stall * freq.hertz
                cycles += stall_cycles
                core.memory_stall_cycles += stall_cycles
        elif opcode.value == "branch":
            if not core.predictor.predict_and_update(pc, inst.taken):
                cycles += penalty
                core.branch_stall_cycles += penalty
                slot = 0
        yield cycles
    if slot:
        cycles += 1
    core.instructions_retired += count
    yield cycles


def gpu_steps(
    core: GpuCore, instructions: Iterable, start_seconds: float = 0.0
) -> Iterator[float]:
    """Execute instructions on ``core`` one at a time, yielding cumulative
    cycles (the stepping protocol of :func:`cpu_steps`).

    Warp mode runs the core's own scheduler (:meth:`GpuCore.step_warp`);
    heuristic mode is the single in-order stream whose memory stalls are
    divided by the warp count.
    """
    if core.mode == "warp":
        yield from core.step_warp(instructions, start_seconds)
        return
    freq = core.config.frequency
    branch_stall = core.config.branch_stall_cycles if core.config.stall_on_branch else 0
    hit_latency = freq.cycles_to_seconds(core.config.l1d.latency)

    cycles = 0.0
    count = 0
    for inst in instructions:
        count += 1
        cycles += 1
        opcode = inst.opcode
        if opcode.is_memory:
            smem = core.scratchpad.access(inst.addr)
            if smem is not None:
                core.scratchpad_hits += 1
                cycles += max(smem - 1, 0)
                yield cycles
                continue
            latency = core.memory.access(
                inst.addr,
                opcode.is_store,
                start_seconds + freq.cycles_to_seconds(int(cycles)),
            )
            if latency > hit_latency:
                stall = (latency - hit_latency) / core.warps
                stall_cycles = stall * freq.hertz
                cycles += stall_cycles
                core.memory_stall_cycles += stall_cycles
        elif opcode.value == "branch":
            cycles += branch_stall
            core.branch_stall_cycles += branch_stall
        yield cycles
    core.instructions_retired += count
    yield cycles


def run_segment(
    core: "CpuCore | GpuCore", instructions: Iterable, start_seconds: float = 0.0
) -> int:
    """Execute a whole instruction stream on ``core``; returns cycles."""
    steps = cpu_steps if isinstance(core, CpuCore) else gpu_steps
    cycles = 0.0
    for cycles in steps(core, instructions, start_seconds):
        pass
    return int(cycles)


class ReferenceSimulator(DetailedSimulator):
    """:class:`~repro.sim.detailed.DetailedSimulator` with the reference walk.

    Same knobs, machine, staging and counters; only the phase walk differs:
    segments expanded through the generator path and stepped per
    instruction.
    """

    def _walk(
        self, trace: KernelTrace, machine: Machine, channels: Sequence[CommChannel]
    ) -> List[Tuple[TimeBreakdown, Tuple[PhaseTiming, ...]]]:
        (channel,) = channels  # a run is one point
        cpu, gpu = machine.cpu_core, machine.gpu_core
        cpu_freq, gpu_freq = cpu.config.frequency, gpu.config.frequency
        sequential = parallel = communication = 0.0
        now = 0.0
        last_parallel_seconds = 0.0
        pending_h2d: List[CommPhase] = []
        timings: List[PhaseTiming] = []

        def communicate(comm: CommPhase, window: float) -> None:
            nonlocal communication, now
            result = channel.transfer(comm, overlap_window=window)
            communication += result.exposed
            now += result.exposed
            timings.append(
                PhaseTiming(
                    label=comm.label,
                    kind="communication",
                    seconds=result.exposed,
                    overlapped_seconds=result.overlapped,
                )
            )

        for phase in trace.phases:
            if isinstance(phase, SequentialPhase):
                cycles = run_segment(cpu, phase.segment.instructions(), now)
                seconds = cpu_freq.cycles_to_seconds(cycles)
                sequential += seconds
                now += seconds
                timings.append(
                    PhaseTiming(
                        label=phase.label,
                        kind="sequential",
                        seconds=seconds,
                        cpu_seconds=seconds,
                    )
                )
            elif isinstance(phase, ParallelPhase):
                outcome = run_parallel_interleaved(
                    cpu_steps(cpu, phase.cpu.instructions(), now),
                    gpu_steps(gpu, phase.gpu.instructions(), now),
                    cpu_freq,
                    gpu_freq,
                )
                seconds = outcome.seconds
                # Deferred H2D copies overlap with this phase.
                for comm in pending_h2d:
                    communicate(comm, seconds)
                pending_h2d.clear()
                parallel += seconds
                now += seconds
                last_parallel_seconds = seconds
                timings.append(
                    PhaseTiming(
                        label=phase.label,
                        kind="parallel",
                        seconds=seconds,
                        cpu_seconds=outcome.cpu_seconds,
                        gpu_seconds=outcome.gpu_seconds,
                    )
                )
            elif isinstance(phase, CommPhase):
                if phase.direction is Direction.H2D:
                    # An async channel overlaps the copy with the phase
                    # that *follows* it.
                    pending_h2d.append(phase)
                    continue
                communicate(phase, last_parallel_seconds)
            else:
                raise SimulationError(f"unknown phase type {type(phase).__name__}")
        for comm in pending_h2d:
            communicate(comm, 0.0)
        breakdown = TimeBreakdown(
            sequential=sequential, parallel=parallel, communication=communication
        )
        return [(breakdown, tuple(timings))]
