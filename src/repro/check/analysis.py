"""The static analysis passes behind ``repro check``.

:func:`check_trace` walks a trace once per rule family, against the
obligations the configuration imposes:

- **races** — the two halves of a parallel phase run concurrently; where
  their footprints overlap inside a shared window, writes race
  (``RACE001``/``RACE002``) and, under a weak model, a store-buffering
  exchange is compiled to a litmus program and confirmed against the
  operational executor (``CONS001``);
- **ownership** — under the partially shared space the checker abstracts
  each H2D communication as a release+acquire granting ``num_objects``
  shared objects to the GPU and each D2H as the GPU handing objects back
  (Figure 2's flow); compute with nothing acquired, double grants, and
  returns without a grant are ``PAS001``-``PAS003``;
- **transfers** — disjoint spaces require a copy before consumption
  (``DIS001``) and make back-to-back same-direction copies redundant
  (``DIS002``);
- **staleness** — under explicit shared locality, ranges written by one
  PU must be pushed (a transfer in the producer-to-consumer direction)
  before the other PU reads them (``LOC001``). Since check v2 this is a
  dataflow fact: the reaching-transfers fixpoint of
  :mod:`repro.check.passes`, litmus-confirmed against the operational
  executor;
- **coherence declarations** — when the configuration carries access-mode
  declarations (a runtime that elides transfers from them), every
  parallel-phase write must land in a declared write/reduce range
  (``COH001``), and a reduce-declared range both PUs accumulate into must
  be merged afterwards (``COH002``). Both findings are confirmed against
  the operational executor: the stale read respectively the
  multiple-outcome nondeterminism is actually reachable under the design
  point's model (:func:`~repro.consistency.litmus.model_for_design`).

With ``optimize=True`` the dataflow optimization passes join in:
buffer liveness (``OPT001`` dead transfers), available copies
(``OPT002`` redundant transfers, bytes-saved estimated), and access-mode
inference (``INF001``, Table V-verified declareAccess suggestions). They
are advisory — warnings that never gate simulation — so the default
check keeps the paper kernels clean while ``--optimize`` (or the
Explorer's ``check="optimize"``) surfaces the opportunities.

Every pass is linear in the number of phases (the dataflow fixpoints
converge in one sweep on linear trace CFGs); the litmus confirmation
runs the exhaustive executor only on 4-instruction programs, so checking
a kernel takes well under the 1 s budget.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.check.config import CheckConfig
from repro.check.findings import CheckReport, Finding
from repro.check.ir import cfg_from_trace
from repro.check.passes import (
    access_mode_findings,
    dead_transfer_findings,
    redundant_transfer_findings,
    stale_read_reachable,
    staleness_findings,
)
from repro.check.rules import rule
from repro.consistency.litmus import model_for, model_for_design
from repro.consistency.model import allowed_outcomes, is_allowed
from repro.consistency.ops import Load, Program, Store
from repro.taxonomy import ProcessingUnit
from repro.trace.phase import CommPhase, Direction, ParallelPhase, Segment, SequentialPhase
from repro.trace.stream import KernelTrace

__all__ = ["check_trace", "check_pairs"]


# -- range helpers ------------------------------------------------------------


def _span(segment: Segment) -> Tuple[int, int]:
    """The half-open byte range a segment's memory operations stride."""
    return (segment.base_addr, segment.base_addr + segment.footprint_bytes)


def _overlaps(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def _reads(segment: Segment) -> bool:
    return segment.mix.load_ops > 0


def _writes(segment: Segment) -> bool:
    return segment.mix.store_ops > 0


def _finding(
    rule_id: str,
    trace: KernelTrace,
    index: int,
    message: str,
    segment: str = "",
    confirmed: Optional[bool] = None,
) -> Finding:
    meta = rule(rule_id)
    return Finding(
        rule=rule_id,
        severity=meta.severity,
        message=message,
        trace=trace.name,
        phase_index=index,
        phase_label=trace.phases[index].label,
        segment=segment,
        fix_hint=meta.fix_hint,
        confirmed=confirmed,
    )


# -- RACE / CONS: concurrent halves of a parallel phase -----------------------


def _sb_hazard_allowed(config: CheckConfig) -> bool:
    """Litmus confirmation: compile the suspicious exchange to the classic
    store-buffering program and ask the operational executor whether the
    configured model reaches the bad outcome (both PUs missing each
    other's update)."""
    program = Program(
        threads={
            ProcessingUnit.CPU: (Store("x", 1), Load("y", "r0")),
            ProcessingUnit.GPU: (Store("y", 1), Load("x", "r1")),
        }
    )
    observation = {"r0": 0, "r1": 0}
    return is_allowed(program, observation, model_for(config.consistency))


def _reduce_declared(config: CheckConfig, a: Segment, b: Segment) -> bool:
    """Whether the overlap of two segments lies inside a reduce-declared
    range. Such concurrency is the intended reduction pattern — each PU
    accumulates its own partials — so the RACE rules stand down there and
    COH002 takes over (demanding the merge)."""
    if not config.reduce_ranges:
        return False
    lo = max(a.base_addr, b.base_addr)
    hi = min(_span(a)[1], _span(b)[1])
    return any(start <= lo and hi <= end for start, end in config.reduce_ranges)


def _check_races(trace: KernelTrace, config: CheckConfig) -> Iterable[Finding]:
    if not config.has_shared_window:
        # Overlapping virtual ranges name *different* memories under a
        # disjoint space; there is nothing to race on.
        return
    for index, phase in enumerate(trace.phases):
        if not isinstance(phase, ParallelPhase):
            continue
        cpu, gpu = phase.cpu, phase.gpu
        if not _overlaps(_span(cpu), _span(gpu)):
            continue
        if _reduce_declared(config, cpu, gpu):
            continue
        both = f"{cpu.label or 'cpu'}+{gpu.label or 'gpu'}"
        if _writes(cpu) and _writes(gpu):
            yield _finding(
                "RACE001",
                trace,
                index,
                "concurrent CPU and GPU segments write overlapping ranges "
                f"[{cpu.base_addr:#x}..) and [{gpu.base_addr:#x}..) with no "
                "intervening synchronization",
                segment=both,
            )
        elif (_writes(cpu) and _reads(gpu)) or (_writes(gpu) and _reads(cpu)):
            writer = cpu if _writes(cpu) else gpu
            reader = gpu if writer is cpu else cpu
            yield _finding(
                "RACE002",
                trace,
                index,
                f"{reader.pu} reads a range {writer.pu} is concurrently "
                "writing; the value observed depends on interleaving",
                segment=both,
            )
        if (
            config.weak_consistency
            and _writes(cpu)
            and _writes(gpu)
            and _reads(cpu)
            and _reads(gpu)
        ):
            confirmed = _sb_hazard_allowed(config)
            if confirmed:
                yield _finding(
                    "CONS001",
                    trace,
                    index,
                    "store-buffering exchange on the overlapping range: the "
                    f"{config.consistency} model permits both PUs to miss "
                    "each other's writes",
                    segment=both,
                    confirmed=True,
                )


# -- PAS: ownership discipline ------------------------------------------------


def _check_ownership(trace: KernelTrace, config: CheckConfig) -> Iterable[Finding]:
    if not config.ownership_control:
        return
    held = 0  # shared objects currently acquired by the GPU
    last_grant_index: Optional[int] = None  # H2D with no compute since
    for index, phase in enumerate(trace.phases):
        if isinstance(phase, CommPhase):
            if phase.direction is Direction.H2D:
                if last_grant_index is not None:
                    yield _finding(
                        "PAS002",
                        trace,
                        index,
                        "ownership granted again (H2D at phase "
                        f"{last_grant_index} and here) with no compute "
                        "between the two acquires",
                    )
                held += phase.num_objects
                last_grant_index = index
            else:
                last_grant_index = None  # ownership moved back; not a double grant
                if phase.num_objects > held:
                    yield _finding(
                        "PAS003",
                        trace,
                        index,
                        f"release of {phase.num_objects} shared object(s) "
                        f"while the GPU holds only {held} (no matching "
                        "acquire)",
                    )
                held = max(held - phase.num_objects, 0)
        elif isinstance(phase, ParallelPhase):
            last_grant_index = None
            if held == 0:
                yield _finding(
                    "PAS001",
                    trace,
                    index,
                    "GPU segment touches the shared window but the GPU has "
                    "acquired no shared objects (missing acquireOwnership)",
                    segment=phase.gpu.label,
                )
        elif isinstance(phase, SequentialPhase):
            last_grant_index = None


# -- DIS: explicit transfer discipline ----------------------------------------


def _check_transfers(trace: KernelTrace, config: CheckConfig) -> Iterable[Finding]:
    if not config.explicit_transfers:
        return
    device_resident = False
    previous: Optional[Tuple[int, CommPhase]] = None  # adjacent comm phases
    for index, phase in enumerate(trace.phases):
        if isinstance(phase, CommPhase):
            if previous is not None and previous[1].direction is phase.direction:
                yield _finding(
                    "DIS002",
                    trace,
                    index,
                    f"back-to-back {phase.direction} copies (phases "
                    f"{previous[0]} and {index}) with no compute between "
                    "them: the second copies unchanged data",
                )
            if phase.direction is Direction.H2D:
                device_resident = True
            previous = (index, phase)
        else:
            previous = None
            if isinstance(phase, ParallelPhase) and _reads(phase.gpu):
                if not device_resident:
                    yield _finding(
                        "DIS001",
                        trace,
                        index,
                        "GPU segment consumes data, but no H2D copy precedes "
                        "it; under a disjoint space the device memory is "
                        "uninitialized here",
                        segment=phase.gpu.label,
                    )


# -- COH: access-mode declaration discipline ----------------------------------


def _unmerged_reduce_nondeterministic(config: CheckConfig) -> bool:
    """Litmus confirmation for COH002: both PUs store their partial into
    the same reduce-declared location and then read it back with no merge
    in between; the finding is real iff the executor reaches more than one
    final valuation (the consumer's value depends on interleaving)."""
    program = Program(
        threads={
            ProcessingUnit.CPU: (Store("acc", 1), Load("acc", "r0")),
            ProcessingUnit.GPU: (Store("acc", 2), Load("acc", "r1")),
        }
    )
    model = model_for_design(config.consistency, config.coherence)
    return len(allowed_outcomes(program, model)) > 1


def _check_coherence(trace: KernelTrace, config: CheckConfig) -> Iterable[Finding]:
    if not config.has_declarations or not config.has_shared_window:
        return
    declared = tuple(config.declared_writes or ()) + tuple(config.reduce_ranges or ())

    def covered(span: Tuple[int, int]) -> bool:
        return any(lo <= span[0] and span[1] <= hi for lo, hi in declared)

    # COH001 — every concurrent write must land in a declared range: the
    # runtime elides invalidations for anything it was not told about.
    for index, phase in enumerate(trace.phases):
        if not isinstance(phase, ParallelPhase):
            continue
        for segment in (phase.cpu, phase.gpu):
            if not _writes(segment) or segment.footprint_bytes == 0:
                continue
            span = _span(segment)
            if covered(span):
                continue
            yield _finding(
                "COH001",
                trace,
                index,
                f"{segment.pu} writes [{span[0]:#x}..{span[1]:#x}) but no "
                "access declaration covers it; the runtime keeps remote "
                "copies of the range and the peer can read them stale",
                segment=segment.label,
                confirmed=stale_read_reachable(config),
            )

    # COH002 — a reduce-declared range both PUs accumulate into must be
    # merged (a sequential read of the partials, or a transfer gathering
    # them) before the trace ends.
    for span in config.reduce_ranges or ():
        reduce_index: Optional[int] = None
        merged = False
        for index, phase in enumerate(trace.phases):
            if isinstance(phase, ParallelPhase):
                if (
                    _writes(phase.cpu)
                    and _writes(phase.gpu)
                    and _overlaps(_span(phase.cpu), span)
                    and _overlaps(_span(phase.gpu), span)
                ):
                    if reduce_index is None:
                        reduce_index = index
                    merged = False  # a new round of partials needs a new merge
            elif reduce_index is not None and not merged:
                if isinstance(phase, CommPhase):
                    merged = True  # the transfer gathers the partials
                elif isinstance(phase, SequentialPhase) and (
                    _reads(phase.segment)
                    and _overlaps(_span(phase.segment), span)
                ):
                    merged = True
        if reduce_index is not None and not merged:
            yield _finding(
                "COH002",
                trace,
                reduce_index,
                f"both PUs accumulate partials into reduce-declared range "
                f"[{span[0]:#x}..{span[1]:#x}) but nothing ever merges "
                "them; the final value depends on interleaving",
                confirmed=_unmerged_reduce_nondeterministic(config),
            )


# -- entry points -------------------------------------------------------------


def check_trace(
    trace: KernelTrace, config: CheckConfig, optimize: bool = False
) -> CheckReport:
    """Statically analyze one trace under one configuration.

    ``optimize=True`` additionally runs the OPT/INF dataflow passes —
    advisory warnings about transfer traffic the program could drop; the
    default keeps the correctness rules only, so clean programs stay
    clean. The trace is lowered to the analysis IR at most once, and only
    when a dataflow pass will read it: LOC001 (explicit shared locality)
    or the optimize passes."""
    findings: List[Finding] = []
    findings.extend(_check_races(trace, config))
    findings.extend(_check_ownership(trace, config))
    findings.extend(_check_transfers(trace, config))
    lowered = optimize or config.explicit_shared_locality
    ir = cfg_from_trace(trace) if lowered else None
    if lowered:
        findings.extend(staleness_findings(ir, config))
    findings.extend(_check_coherence(trace, config))
    if optimize:
        findings.extend(dead_transfer_findings(ir))
        findings.extend(redundant_transfer_findings(ir))
        findings.extend(access_mode_findings(ir, config))
    return CheckReport(trace=trace.name, config=config.label, findings=tuple(findings))


def check_pairs(
    pairs: Sequence[Tuple[KernelTrace, CheckConfig]],
    optimize: bool = False,
) -> List[CheckReport]:
    """Check a batch of (trace, configuration) pairs."""
    return [check_trace(trace, config, optimize=optimize) for trace, config in pairs]
