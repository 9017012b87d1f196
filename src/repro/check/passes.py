"""The dataflow passes of check v2, phrased over the analysis IR.

Each pass reads the :class:`~repro.check.ir.TraceIR` that
:func:`~repro.check.analysis.check_trace` lowers once and hands to every
trace pass, states one gen/kill transfer per node,
``out = gen | (in & ~kill)``, and reads findings off the facts one sweep
along the node chain computes. Each node has at most one predecessor, so
the sweep from the boundary fact *is* the fixpoint, for may- and
must-analyses alike:

======================  ========  ============  ==========================
pass                    direction kind          fact (one bit per atom×space)
======================  ========  ============  ==========================
reaching-transfers      forward   may           "the space's writes to the
                                                atom have not been pushed"
buffer liveness         backward  may           "the space's copy of the
                                                atom is read downstream"
available copies        forward   must          "the space's copy of the
                                                atom is current on every
                                                path reaching here"
access-mode inference   (reads the disjoint lowering's device-to-host
                        copies: each copied-back buffer is written)
======================  ========  ============  ==========================

``reaching-transfers`` subsumes the PR-3 staleness heuristic (LOC001) —
same findings, now as a dataflow fact, and additionally cross-validated
against the operational consistency executor. ``liveness`` yields OPT001
(dead transfer), ``available copies`` yields OPT002 (redundant transfer,
with a bytes-saved estimate), and the mode inference yields INF001
(the exact ``declareAccess`` lines a kernel admits, verified against the
Table V declared counts).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.check.config import CheckConfig
from repro.check.findings import Finding
from repro.check.ir import AddressAtoms, EventKind, Space, TraceIR
from repro.check.rules import rule
from repro.consistency.litmus import model_for_design
from repro.consistency.model import is_allowed
from repro.consistency.ops import Load, Program, Store
from repro.errors import ProgramError
from repro.progmodel.ast import AccessDecl, AccessMode, Memcpy
from repro.progmodel.lowering import lower
from repro.progmodel.spec import KernelProgramSpec, program_spec
from repro.taxonomy import AddressSpaceKind, ProcessingUnit
from repro.trace.phase import Direction

__all__ = [
    "Facts",
    "finding_at",
    "reaching_transfers",
    "stale_read_reachable",
    "staleness_findings",
    "buffer_liveness",
    "dead_transfer_findings",
    "available_copies",
    "redundant_transfer_findings",
    "infer_access_modes",
    "access_mode_findings",
]


def _shift(space: Space, atoms: AddressAtoms) -> int:
    """Fact layout: the low ``len(atoms)`` bits are HOST, the high DEVICE."""
    return 0 if space is Space.HOST else len(atoms)


class Facts(NamedTuple):
    """One pass's facts in program order: ``before[i]`` at node ``i``'s
    entry, ``after[i]`` at its exit, for forward and backward passes."""

    before: Tuple[int, ...]
    after: Tuple[int, ...]


def _sweep(
    transfers: Sequence[Tuple[int, int]], boundary: int, forward: bool
) -> Facts:
    """Fold ``out = gen | (in & ~kill)`` over the per-node ``(gen, kill)``
    pairs, starting at ``boundary``: from the entry node forward, or from
    the exit node backward (a backward pass's ``after`` is its input)."""
    inputs: List[int] = []
    outputs: List[int] = []
    fact = boundary
    for gen, kill in transfers if forward else reversed(transfers):
        inputs.append(fact)
        fact = gen | (fact & ~kill)
        outputs.append(fact)
    if forward:
        return Facts(before=tuple(inputs), after=tuple(outputs))
    return Facts(before=tuple(outputs[::-1]), after=tuple(inputs[::-1]))


def finding_at(
    rule_id: str,
    ir: TraceIR,
    node_index: int,
    message: str,
    segment: str = "",
    fix_hint: str = "",
    confirmed: Optional[bool] = None,
    bytes_saved: int = 0,
    space: str = "",
) -> Finding:
    """The finding of every trace rule, located at IR node ``node_index``
    (its phase index and label) and filled in from the rule catalog."""
    meta = rule(rule_id)
    node = ir.nodes[node_index]
    return Finding(
        rule=rule_id,
        severity=meta.severity,
        message=message,
        trace=ir.trace.name,
        phase_index=node.phase_index,
        phase_label=node.label,
        segment=segment,
        fix_hint=fix_hint or meta.fix_hint,
        confirmed=confirmed,
        bytes_saved=bytes_saved,
        space=space,
    )


# -- reaching transfers: staleness as a dataflow fact (LOC001) ----------------


def reaching_transfers(ir: TraceIR) -> Facts:
    """Forward may-analysis: bit (atom, space) means the space's PU wrote
    the atom and no transfer has pushed that write to the other side yet.
    DEFs gen their space's bits; a transfer kills every bit of its
    *source* space (comm phases carry no ranges, so the push is
    conservatively total — the direction of fewer findings, matching the
    PR-3 heuristic exactly)."""
    atoms = ir.atoms
    transfers: List[Tuple[int, int]] = []
    for node in ir.nodes:
        gen = kill = 0
        for event in node.events:
            if event.kind is EventKind.DEF:
                gen |= event.mask << _shift(event.space, atoms)
            elif event.kind is EventKind.TRANSFER:
                kill |= atoms.all_mask << _shift(event.space.other, atoms)
        transfers.append((gen, kill))
    return _sweep(transfers, boundary=0, forward=True)


def stale_read_reachable(config: CheckConfig) -> bool:
    """Litmus confirmation for LOC001 and COH001: the minimal
    producer/consumer exchange — a store nothing pushes (or the runtime
    was never told about), read by the peer with nothing ordering the
    two — reachable exactly when the design point's cross-PU model lets a
    read miss a remote write."""
    program = Program(
        threads={
            ProcessingUnit.CPU: (Store("data", 1),),
            ProcessingUnit.GPU: (Load("data", "r0"),),
        }
    )
    model = model_for_design(config.consistency, config.coherence)
    return is_allowed(program, {"r0": 0}, model)


def staleness_findings(ir: TraceIR, config: CheckConfig) -> Iterable[Finding]:
    """LOC001 off the reaching-transfers fixpoint: a USE whose atoms are
    dirty in the *other* space reads data whose producing writes were
    never pushed."""
    if not config.explicit_shared_locality:
        return
    atoms = ir.atoms
    solution = reaching_transfers(ir)
    confirmed = stale_read_reachable(config)
    # Replay producer labels: which segment last dirtied each atom.
    producer: Dict[Space, Dict[int, str]] = {Space.HOST: {}, Space.DEVICE: {}}
    for node in ir.nodes:
        before = solution.before[node.index]
        for event in node.events:
            if event.kind is not EventKind.USE:
                continue
            remote = event.space.other
            stale = (before >> _shift(remote, atoms)) & event.mask
            if not stale:
                continue
            spans = atoms.spans_of(stale)
            lo, hi = spans[0]
            low_bit = stale & -stale
            label = producer[remote].get(
                low_bit.bit_length() - 1, str(remote.pu)
            )
            yield finding_at(
                "LOC001",
                ir,
                node.index,
                f"{event.space.pu} reads [{lo:#x}..{hi:#x}) which "
                f"{remote.pu} produced in segment {label!r} with no "
                "intervening push/transfer",
                segment=event.label,
                confirmed=confirmed,
            )
        for event in node.events:
            if event.kind is EventKind.DEF:
                for bit in range(len(atoms)):
                    if event.mask & (1 << bit):
                        producer[event.space][bit] = event.label or str(
                            event.space.pu
                        )
            elif event.kind is EventKind.TRANSFER:
                producer[event.space.other].clear()


# -- buffer liveness: dead transfers (OPT001) ---------------------------------


def buffer_liveness(ir: TraceIR) -> Facts:
    """Backward may-analysis: bit (atom, space) means the space's copy of
    the atom is read downstream before being overwritten. USEs gen their
    space's bits; DEFs kill them; a transfer kills its destination's bits
    (the copy overwrites them) and *uses* its source's (the copy reads
    them). The exit boundary keeps every host atom live — results escape
    to the caller — and no device atom (device memory dies with the
    kernel)."""
    atoms = ir.atoms
    transfers: List[Tuple[int, int]] = []
    for node in ir.nodes:
        gen = kill = 0
        for event in node.events:
            if event.kind is EventKind.USE:
                gen |= event.mask << _shift(event.space, atoms)
            elif event.kind is EventKind.DEF:
                kill |= event.mask << _shift(event.space, atoms)
            elif event.kind is EventKind.TRANSFER:
                kill |= atoms.all_mask << _shift(event.space, atoms)
                gen |= atoms.all_mask << _shift(event.space.other, atoms)
        transfers.append((gen, kill))
    return _sweep(
        transfers,
        boundary=atoms.all_mask << _shift(Space.HOST, atoms),
        forward=False,
    )


def dead_transfer_findings(ir: TraceIR) -> Iterable[Finding]:
    """OPT001: a transfer none of whose delivered atoms are live in the
    destination space right after it — every byte it moves is overwritten
    or simply never read again."""
    atoms = ir.atoms
    if not len(atoms):
        return
    solution = buffer_liveness(ir)
    for node in ir.nodes:
        if node.kind != "comm":
            continue
        phase = ir.trace.phases[node.phase_index]
        dest = Space.of(phase.direction.destination)
        delivered = atoms.all_mask << _shift(dest, atoms)
        if solution.after[node.index] & delivered:
            continue
        yield finding_at(
            "OPT001",
            ir,
            node.index,
            f"{phase.direction} transfer of {phase.num_bytes} bytes is dead: "
            f"nothing reads the {dest} copy it delivers before the data is "
            "overwritten or the trace ends",
            bytes_saved=phase.num_bytes,
            space=str(dest),
        )


# -- available copies: redundant transfers (OPT002) ---------------------------


def available_copies(ir: TraceIR) -> Facts:
    """Forward must-analysis: bit (atom, space) means the space's resident
    copy of the atom is current on *every* path reaching here. A DEF
    makes its own space current and the peer's stale; a transfer makes
    its destination current. The entry boundary: the host owns the
    initial data, the device holds garbage."""
    atoms = ir.atoms
    transfers: List[Tuple[int, int]] = []
    for node in ir.nodes:
        gen = kill = 0
        for event in node.events:
            if event.kind is EventKind.DEF:
                gen |= event.mask << _shift(event.space, atoms)
                kill |= event.mask << _shift(event.space.other, atoms)
            elif event.kind is EventKind.TRANSFER:
                gen |= atoms.all_mask << _shift(event.space, atoms)
        transfers.append((gen, kill))
    return _sweep(
        transfers,
        boundary=atoms.all_mask << _shift(Space.HOST, atoms),
        forward=True,
    )


def redundant_transfer_findings(ir: TraceIR) -> Iterable[Finding]:
    """OPT002: a transfer whose destination already holds a current copy
    of everything it delivers, on every incoming path. The bytes-saved
    estimate is the phase's transfer size (dropping it removes exactly
    that traffic) and flows to the ``check.opt.bytes_saved.*`` metrics."""
    atoms = ir.atoms
    if not len(atoms):
        return
    solution = available_copies(ir)
    for node in ir.nodes:
        if node.kind != "comm":
            continue
        phase = ir.trace.phases[node.phase_index]
        dest = Space.of(phase.direction.destination)
        delivered = atoms.all_mask << _shift(dest, atoms)
        if delivered & ~solution.before[node.index]:
            continue
        yield finding_at(
            "OPT002",
            ir,
            node.index,
            f"{phase.direction} transfer of {phase.num_bytes} bytes is "
            f"redundant: the {dest} space already holds a current copy of "
            "every byte it delivers on every path reaching this phase",
            bytes_saved=phase.num_bytes,
            space=str(dest),
        )


# -- access-mode inference (INF001) -------------------------------------------


def infer_access_modes(spec: KernelProgramSpec) -> Dict[str, AccessMode]:
    """The declareAccess mode each shared buffer admits, inferred from
    program structure rather than read off the spec's direction field:
    lower the spec to the disjoint space — the lowering that must spell
    every data movement out — and classify each buffer by its copies. A
    buffer copied device-to-host is written by the kernel (``write``);
    one only copied host-to-device is read-only (``read``); a declared
    reduction buffer holds per-PU partials (``reduce``)."""
    copied_back = {
        stmt.name
        for stmt in lower(spec, AddressSpaceKind.DISJOINT).statements
        if isinstance(stmt, Memcpy) and stmt.direction is Direction.D2H
    }
    modes: Dict[str, AccessMode] = {}
    for buffer in spec.buffers:
        if buffer.name in spec.reduce_buffers:
            modes[buffer.name] = AccessMode.REDUCE
        elif buffer.name in copied_back:
            modes[buffer.name] = AccessMode.WRITE
        else:
            modes[buffer.name] = AccessMode.READ
    return modes


def access_mode_findings(ir: TraceIR, config: CheckConfig) -> Iterable[Finding]:
    """INF001: the program carries no access declarations, but declaring
    the inferred modes would let the runtime elide communication lines
    under this address space (the Table V "with declarations" delta)."""
    if config.has_declarations:
        return  # already declared; nothing to infer
    try:
        spec = program_spec(ir.trace.name)
    except ProgramError:
        return  # not one of the paper kernels; no program to reason about
    try:
        plain = lower(spec, config.address_space)
        modes = infer_access_modes(spec)
        declared = lower(spec, config.address_space, modes)
    except ProgramError:
        return
    saving = plain.comm_lines() - declared.comm_lines()
    if saving <= 0:
        return  # declarations would not pay here (e.g. unified/disjoint)
    decls = " ".join(
        AccessDecl(name, modes[name]).render() for name in spec.buffer_names
    )
    node_index = next(
        (node.index for node in ir.nodes if node.kind == "parallel"), 1
    )
    yield finding_at(
        "INF001",
        ir,
        node_index,
        f"kernel admits exact access-mode declarations: declaring them "
        f"saves {saving} communication line(s) under "
        f"{config.address_space.short} (Table V "
        f"{plain.comm_lines()} -> {declared.comm_lines()})",
        fix_hint=f"add {decls}",
    )
