"""The static analysis passes behind ``repro check``.

:func:`check_trace` lowers a trace once to the analysis IR
(:mod:`repro.check.ir`) and every rule family reads that
:class:`~repro.check.ir.TraceIR`, against the obligations the
configuration imposes:

- **races** — the two halves of a parallel phase run concurrently; where
  their USE/DEF masks intersect inside a shared window, writes race
  (``RACE001``/``RACE002``) and, under a weak model, a store-buffering
  exchange is compiled to a litmus program and confirmed against the
  operational executor (``CONS001``);
- **ownership** — under the partially shared space each comm node's
  ACQUIRE event grants ``num_objects`` shared objects to its space (an
  H2D grants them to the GPU, a D2H hands them back; Figure 2's flow);
  compute with nothing acquired, double grants, and returns without a
  grant are ``PAS001``-``PAS003``;
- **transfers** — disjoint spaces require a copy before consumption
  (``DIS001``) and make back-to-back same-direction copies redundant
  (``DIS002``); the direction is the TRANSFER event's space;
- **staleness** — under explicit shared locality, ranges written by one
  PU must be pushed (a transfer in the producer-to-consumer direction)
  before the other PU reads them (``LOC001``): the reaching-transfers
  fixpoint of :mod:`repro.check.passes`, litmus-confirmed against the
  operational executor;
- **coherence declarations** — when the configuration carries access-mode
  declarations (a runtime that elides transfers from them), every
  parallel-phase write must land in a declared write/reduce range
  (``COH001``), and a reduce-declared range both PUs accumulate into must
  be merged afterwards (``COH002``). Declared ranges are not atom cut
  points, so coverage compares the byte spans of the event masks. Both
  findings are confirmed against the operational executor: the stale
  read respectively the multiple-outcome nondeterminism is actually
  reachable under the design point's model
  (:func:`~repro.consistency.litmus.model_for_design`).

With ``optimize=True`` the dataflow optimization passes join in:
buffer liveness (``OPT001`` dead transfers), available copies
(``OPT002`` redundant transfers, bytes-saved estimated), and access-mode
inference (``INF001``, Table V-verified declareAccess suggestions). They
are advisory — warnings that never gate simulation — so the default
check keeps the paper kernels clean while ``--optimize`` (or the
Explorer's ``check="optimize"``) surfaces the opportunities.

Every rule is an in-order scan of the IR's node chain (the dataflow
passes are one gen/kill sweep along it); the litmus confirmation
runs the exhaustive executor only on 4-instruction programs, so checking
a kernel takes well under the 1 s budget. The lowering depends on the
trace alone and is memoized, since the Explorer gate checks each trace
against every design point.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.check.config import CheckConfig
from repro.check.findings import CheckReport, Finding
from repro.check.ir import EventKind, IRNode, Space, TraceIR, cfg_from_trace
from repro.check.passes import (
    access_mode_findings,
    dead_transfer_findings,
    finding_at,
    redundant_transfer_findings,
    stale_read_reachable,
    staleness_findings,
)
from repro.consistency.litmus import model_for, model_for_design
from repro.consistency.model import allowed_outcomes, is_allowed
from repro.consistency.ops import Load, Program, Store
from repro.taxonomy import ProcessingUnit
from repro.trace.stream import KernelTrace

__all__ = ["check_trace"]

_lower = functools.lru_cache(maxsize=64)(cfg_from_trace)


def _access(node: IRNode) -> Tuple[Dict[Space, int], Dict[Space, int]]:
    """The node's read (USE) and write (DEF) masks, per space."""
    reads = {Space.HOST: 0, Space.DEVICE: 0}
    writes = {Space.HOST: 0, Space.DEVICE: 0}
    for event in node.events:
        if event.kind is EventKind.USE:
            reads[event.space] |= event.mask
        elif event.kind is EventKind.DEF:
            writes[event.space] |= event.mask
    return reads, writes


def _within(
    ir: TraceIR, mask: int, ranges: Sequence[Tuple[int, int]]
) -> bool:
    """Whether every byte span of ``mask`` lies inside one of ``ranges``."""
    return all(
        any(lo <= start and end <= hi for lo, hi in ranges)
        for start, end in ir.atoms.spans_of(mask)
    )


def _meets(ir: TraceIR, mask: int, span: Tuple[int, int]) -> bool:
    """Whether some byte span of ``mask`` overlaps ``span``."""
    return any(
        start < span[1] and span[0] < end for start, end in ir.atoms.spans_of(mask)
    )


def _gpu_label(ir: TraceIR, node: IRNode) -> str:
    """The GPU segment's label, whether or not it has memory events."""
    return ir.trace.phases[node.phase_index].gpu.label


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


def _check_races(ir: TraceIR, config: CheckConfig) -> Iterable[Finding]:
    if not config.has_shared_window:
        # Overlapping virtual ranges name *different* memories under a
        # disjoint space; there is nothing to race on.
        return
    for node in ir.nodes:
        if node.kind != "parallel":
            continue
        reads, writes = _access(node)
        cpu = reads[Space.HOST] | writes[Space.HOST]
        gpu = reads[Space.DEVICE] | writes[Space.DEVICE]
        if not cpu & gpu:
            continue
        # Concurrency inside a reduce-declared range is the intended
        # reduction pattern (each PU accumulates its own partials), so the
        # RACE rules stand down there and COH002 takes over.
        if config.reduce_ranges and _within(ir, cpu & gpu, config.reduce_ranges):
            continue
        labels = {event.space: event.label for event in node.events}
        both = f"{labels[Space.HOST] or 'cpu'}+{labels[Space.DEVICE] or 'gpu'}"
        if writes[Space.HOST] and writes[Space.DEVICE]:
            cpu_base = ir.atoms.spans_of(cpu)[0][0]
            gpu_base = ir.atoms.spans_of(gpu)[0][0]
            yield finding_at(
                "RACE001",
                ir,
                node.index,
                "concurrent CPU and GPU segments write overlapping ranges "
                f"[{cpu_base:#x}..) and [{gpu_base:#x}..) with no "
                "intervening synchronization",
                segment=both,
            )
        elif (writes[Space.HOST] and reads[Space.DEVICE]) or (
            writes[Space.DEVICE] and reads[Space.HOST]
        ):
            writer = Space.HOST if writes[Space.HOST] else Space.DEVICE
            yield finding_at(
                "RACE002",
                ir,
                node.index,
                f"{writer.other.pu} reads a range {writer.pu} is concurrently "
                "writing; the value observed depends on interleaving",
                segment=both,
            )
        exchange = all(masks[space] for masks in (reads, writes) for space in Space)
        if config.weak_consistency and exchange and _sb_hazard_allowed(config):
            yield finding_at(
                "CONS001",
                ir,
                node.index,
                "store-buffering exchange on the overlapping range: the "
                f"{config.consistency} model permits both PUs to miss "
                "each other's writes",
                segment=both,
                confirmed=True,
            )


# -- PAS: ownership discipline ------------------------------------------------


def _check_ownership(ir: TraceIR, config: CheckConfig) -> Iterable[Finding]:
    if not config.ownership_control:
        return
    held = 0  # shared objects currently acquired by the GPU
    last_grant_index: Optional[int] = None  # H2D with no compute since
    for node in ir.nodes:
        if node.kind == "comm":
            acquire = next(e for e in node.events if e.kind is EventKind.ACQUIRE)
            if acquire.space is Space.DEVICE:
                if last_grant_index is not None:
                    yield finding_at(
                        "PAS002",
                        ir,
                        node.index,
                        "ownership granted again (H2D at phase "
                        f"{last_grant_index} and here) with no compute "
                        "between the two acquires",
                    )
                held += acquire.num_objects
                last_grant_index = node.phase_index
            else:
                last_grant_index = None  # ownership moved back; not a double grant
                if acquire.num_objects > held:
                    yield finding_at(
                        "PAS003",
                        ir,
                        node.index,
                        f"release of {acquire.num_objects} shared object(s) "
                        f"while the GPU holds only {held} (no matching "
                        "acquire)",
                    )
                held = max(held - acquire.num_objects, 0)
        else:
            last_grant_index = None
            if node.kind == "parallel" and held == 0:
                yield finding_at(
                    "PAS001",
                    ir,
                    node.index,
                    "GPU segment touches the shared window but the GPU has "
                    "acquired no shared objects (missing acquireOwnership)",
                    segment=_gpu_label(ir, node),
                )


# -- DIS: explicit transfer discipline ----------------------------------------


def _check_transfers(ir: TraceIR, config: CheckConfig) -> Iterable[Finding]:
    if not config.explicit_transfers:
        return
    device_resident = False
    previous: Optional[Tuple[int, Space]] = None  # adjacent comm nodes
    for node in ir.nodes:
        if node.kind == "comm":
            dest = next(e.space for e in node.events if e.kind is EventKind.TRANSFER)
            if previous is not None and previous[1] is dest:
                direction = ir.trace.phases[node.phase_index].direction
                yield finding_at(
                    "DIS002",
                    ir,
                    node.index,
                    f"back-to-back {direction} copies (phases "
                    f"{previous[0]} and {node.phase_index}) with no compute "
                    "between them: the second copies unchanged data",
                )
            if dest is Space.DEVICE:
                device_resident = True
            previous = (node.phase_index, dest)
        else:
            previous = None
            if node.kind != "parallel" or device_resident:
                continue
            if _access(node)[0][Space.DEVICE]:
                yield finding_at(
                    "DIS001",
                    ir,
                    node.index,
                    "GPU segment consumes data, but no H2D copy precedes "
                    "it; under a disjoint space the device memory is "
                    "uninitialized here",
                    segment=_gpu_label(ir, node),
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


def _check_coherence(ir: TraceIR, config: CheckConfig) -> Iterable[Finding]:
    if not config.has_declarations or not config.has_shared_window:
        return
    declared = tuple(config.declared_writes or ()) + tuple(config.reduce_ranges or ())

    # COH001 — every concurrent write must land in a declared range: the
    # runtime elides invalidations for anything it was not told about.
    for node in ir.nodes:
        if node.kind != "parallel":
            continue
        for event in node.events:
            if event.kind is not EventKind.DEF or _within(ir, event.mask, declared):
                continue
            lo, hi = ir.atoms.spans_of(event.mask)[0]
            yield finding_at(
                "COH001",
                ir,
                node.index,
                f"{event.space.pu} writes [{lo:#x}..{hi:#x}) but no "
                "access declaration covers it; the runtime keeps remote "
                "copies of the range and the peer can read them stale",
                segment=event.label,
                confirmed=stale_read_reachable(config),
            )

    # COH002 — a reduce-declared range both PUs accumulate into must be
    # merged (a sequential read of the partials, or a transfer gathering
    # them) before the trace ends.
    for span in config.reduce_ranges or ():
        reduce_node: Optional[int] = None
        merged = False
        for node in ir.nodes:
            reads, writes = _access(node)
            if node.kind == "parallel":
                if _meets(ir, writes[Space.HOST], span) and _meets(
                    ir, writes[Space.DEVICE], span
                ):
                    if reduce_node is None:
                        reduce_node = node.index
                    merged = False  # a new round of partials needs a new merge
            elif reduce_node is not None and not merged:
                # A transfer gathers the partials; a sequential read merges them.
                merged = node.kind == "comm" or (
                    node.kind == "sequential" and _meets(ir, reads[Space.HOST], span)
                )
        if reduce_node is not None and not merged:
            yield finding_at(
                "COH002",
                ir,
                reduce_node,
                f"both PUs accumulate partials into reduce-declared range "
                f"[{span[0]:#x}..{span[1]:#x}) but nothing ever merges "
                "them; the final value depends on interleaving",
                confirmed=_unmerged_reduce_nondeterministic(config),
            )


# -- entry point --------------------------------------------------------------


def check_trace(
    trace: KernelTrace, config: CheckConfig, optimize: bool = False
) -> CheckReport:
    """Statically analyze one trace under one configuration.

    ``optimize=True`` additionally runs the OPT/INF dataflow passes —
    advisory warnings about transfer traffic the program could drop; the
    default keeps the correctness rules only, so clean programs stay
    clean."""
    ir = _lower(trace)
    findings: List[Finding] = []
    findings.extend(_check_races(ir, config))
    findings.extend(_check_ownership(ir, config))
    findings.extend(_check_transfers(ir, config))
    findings.extend(staleness_findings(ir, config))
    findings.extend(_check_coherence(ir, config))
    if optimize:
        findings.extend(dead_transfer_findings(ir))
        findings.extend(redundant_transfer_findings(ir))
        findings.extend(access_mode_findings(ir, config))
    return CheckReport(trace=trace.name, config=config.label, findings=tuple(findings))
