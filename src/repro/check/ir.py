"""The checker's analysis IR: a CFG of phase nodes with per-buffer events.

check v2 separates *what a program does to data* from *what each rule
wants to know about it*. Lowering builds an :class:`AnalysisCFG` whose
nodes carry :class:`BufferEvent`\\ s — definitions, uses, transfers, and
ownership moves, each scoped to a :class:`Space` and a bitmask over
*address atoms*. Every checker rule reads those events: most as an
in-order scan (:mod:`repro.check.analysis`), the dataflow passes
(:mod:`repro.check.passes`) as gen/kill problems solved by the generic
fixpoint engine in :mod:`repro.check.dataflow`.

Two lowerings produce the same IR:

- :func:`cfg_from_trace` — from a :class:`~repro.trace.stream.KernelTrace`.
  The address ranges the trace's segments stride are partitioned at every
  interval boundary into :class:`AddressAtoms`: the smallest ranges the
  trace never subdivides, so a bit per atom (times two spaces) is an
  exact abstraction of "which bytes of which copy".
- :func:`cfg_from_program` — from a lowered progmodel
  :class:`~repro.progmodel.program.Program`, via the statement-event hook
  (:func:`repro.progmodel.events.statement_events`). Here each named
  buffer is one atom; the access-mode inference pass runs on this side.

Trace CFGs are linear today (phase follows phase), but the solver is
written against arbitrary graphs: the ROADMAP's MMU-axis rules will join
per-PU event streams, and the hypothesis suite already exercises random
graph shapes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import CheckError
from repro.progmodel.events import StmtEvent, statement_events
from repro.progmodel.program import Program
from repro.progmodel.spec import KernelProgramSpec
from repro.taxonomy import ProcessingUnit
from repro.trace.phase import CommPhase, ParallelPhase, Segment, SequentialPhase
from repro.trace.stream import KernelTrace

__all__ = [
    "Space",
    "EventKind",
    "BufferEvent",
    "IRNode",
    "AnalysisCFG",
    "AddressAtoms",
    "TraceIR",
    "ProgramIR",
    "cfg_from_trace",
    "cfg_from_program",
]


class Space(enum.Enum):
    """Which PU's view of memory a fact talks about.

    Under a shared window both spaces alias the same physical bytes, but
    the *facts* stay per-space: "the host's copy is current" and "the
    device's copy is current" diverge exactly when a rule should fire.
    """

    HOST = "host"
    DEVICE = "device"

    @property
    def other(self) -> "Space":
        return Space.DEVICE if self is Space.HOST else Space.HOST

    @property
    def pu(self) -> ProcessingUnit:
        return (
            ProcessingUnit.CPU if self is Space.HOST else ProcessingUnit.GPU
        )

    @classmethod
    def of(cls, pu: ProcessingUnit) -> "Space":
        return cls.HOST if pu is ProcessingUnit.CPU else cls.DEVICE

    def __str__(self) -> str:
        return self.value


class EventKind(enum.Enum):
    """What a node does to a set of atoms in a space."""

    DEF = "def"          # the space's copy of the atoms is (over)written
    USE = "use"          # the atoms are read in the space
    TRANSFER = "transfer"  # a copy lands in ``space`` (source = space.other)
    ACQUIRE = "acquire"  # ownership of shared objects granted to ``space``
    RELEASE = "release"  # ownership handed back from ``space``

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class BufferEvent:
    """One def/use/transfer/ownership event, scoped to atoms × space."""

    kind: EventKind
    space: Space
    mask: int
    label: str = ""
    num_bytes: int = 0
    num_objects: int = 0


@dataclass(frozen=True)
class IRNode:
    """One CFG node: a phase (or statement), plus its buffer events.

    ``phase_index`` is the index into the source trace's ``phases`` (or
    the program's ``statements``); entry/exit nodes carry ``-1``.
    """

    index: int
    kind: str  # "entry" | "exit" | "sequential" | "parallel" | "comm" | "stmt"
    phase_index: int
    label: str = ""
    events: Tuple[BufferEvent, ...] = ()


@dataclass(frozen=True)
class AnalysisCFG:
    """A control-flow graph over :class:`IRNode`\\ s.

    Nodes are indexed ``0..len(nodes)-1`` (``IRNode.index`` must agree);
    ``edges`` are directed ``(src, dst)`` pairs. Predecessor/successor
    lists are derived once and cached. The graph need not be linear, and
    entry/exit are purely conventional: the solver treats any node
    without predecessors (successors) as a boundary node.
    """

    nodes: Tuple[IRNode, ...]
    edges: Tuple[Tuple[int, int], ...]
    _preds: Dict[int, Tuple[int, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _succs: Dict[int, Tuple[int, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        for i, node in enumerate(self.nodes):
            if node.index != i:
                raise CheckError(
                    f"CFG node at position {i} carries index {node.index}"
                )
        n = len(self.nodes)
        preds: Dict[int, List[int]] = {i: [] for i in range(n)}
        succs: Dict[int, List[int]] = {i: [] for i in range(n)}
        for src, dst in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise CheckError(f"CFG edge ({src}, {dst}) out of range")
            succs[src].append(dst)
            preds[dst].append(src)
        object.__setattr__(
            self, "_preds", {i: tuple(v) for i, v in preds.items()}
        )
        object.__setattr__(
            self, "_succs", {i: tuple(v) for i, v in succs.items()}
        )

    def preds(self, index: int) -> Tuple[int, ...]:
        return self._preds[index]

    def succs(self, index: int) -> Tuple[int, ...]:
        return self._succs[index]

    def __len__(self) -> int:
        return len(self.nodes)


class AddressAtoms:
    """The interval partition of every address range a trace touches.

    Segment spans and (named-buffer) extents overlap arbitrarily; cutting
    the union at every boundary yields *atoms* — maximal intervals the
    trace never subdivides. A dataflow fact is then a bitmask with one
    bit per atom per space, and set algebra on masks is exact interval
    algebra on ranges.
    """

    def __init__(self, spans: Iterable[Tuple[int, int]]) -> None:
        spans = [(lo, hi) for lo, hi in spans if hi > lo]
        bounds = sorted({edge for span in spans for edge in span})
        atoms = []
        for lo, hi in zip(bounds, bounds[1:]):
            # Keep only intervals some span actually covers; the gaps
            # between unrelated buffers are nobody's data.
            if any(slo <= lo and hi <= shi for slo, shi in spans):
                atoms.append((lo, hi))
        self._atoms: Tuple[Tuple[int, int], ...] = tuple(atoms)

    @property
    def atoms(self) -> Tuple[Tuple[int, int], ...]:
        return self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    @property
    def all_mask(self) -> int:
        return (1 << len(self._atoms)) - 1

    def mask_for(self, lo: int, hi: int) -> int:
        """Bitmask of the atoms contained in the half-open ``[lo, hi)``."""
        mask = 0
        for bit, (alo, ahi) in enumerate(self._atoms):
            if lo <= alo and ahi <= hi:
                mask |= 1 << bit
        return mask

    def bytes_of(self, mask: int) -> int:
        """Total byte size of the atoms selected by ``mask``."""
        return sum(
            hi - lo
            for bit, (lo, hi) in enumerate(self._atoms)
            if mask & (1 << bit)
        )

    def spans_of(self, mask: int) -> Tuple[Tuple[int, int], ...]:
        """The selected atoms merged back into maximal contiguous spans."""
        picked = [
            span
            for bit, span in enumerate(self._atoms)
            if mask & (1 << bit)
        ]
        merged: List[Tuple[int, int]] = []
        for lo, hi in picked:
            if merged and merged[-1][1] == lo:
                merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        return tuple(merged)


@dataclass(frozen=True)
class TraceIR:
    """A trace lowered to the analysis IR: the CFG plus its atom universe."""

    trace: KernelTrace
    cfg: AnalysisCFG
    atoms: AddressAtoms


@dataclass(frozen=True)
class ProgramIR:
    """A progmodel program lowered to the IR: one atom per shared buffer."""

    program: Program
    cfg: AnalysisCFG
    buffer_bits: Dict[str, int]

    def mask_for(self, name: str) -> int:
        return 1 << self.buffer_bits[name]


def _segment_events(segment: Segment, atoms: AddressAtoms) -> List[BufferEvent]:
    """USE before DEF: reads observe the state before the phase's writes
    land (the convention every rule shares)."""
    space = Space.of(segment.pu)
    mask = atoms.mask_for(
        segment.base_addr, segment.base_addr + segment.footprint_bytes
    )
    events: List[BufferEvent] = []
    if segment.mix.load_ops > 0 and mask:
        events.append(
            BufferEvent(EventKind.USE, space, mask, label=segment.label)
        )
    if segment.mix.store_ops > 0 and mask:
        events.append(
            BufferEvent(EventKind.DEF, space, mask, label=segment.label)
        )
    return events


#: Each phase type's node kind and the segments it runs, CPU first. The
#: lowering is the one place the checker looks at phase types.
_PHASE_SHAPES: Dict[type, Callable[[Any], Tuple[str, Tuple[Segment, ...]]]] = {
    SequentialPhase: lambda phase: ("sequential", (phase.segment,)),
    ParallelPhase: lambda phase: ("parallel", (phase.cpu, phase.gpu)),
    CommPhase: lambda phase: ("comm", ()),
}


def cfg_from_trace(trace: KernelTrace) -> TraceIR:
    """Lower a kernel trace to the analysis IR.

    One node per phase between synthetic entry/exit nodes, linear edges.
    Comm phases carry no address ranges (the paper's transfers move whole
    object sets), so a transfer conservatively delivers *all* atoms to
    the destination space, plus an ACQUIRE/RELEASE pair recording the
    ownership move the PAS discipline tracks.
    """
    shapes = [_PHASE_SHAPES[type(phase)](phase) for phase in trace.phases]
    atoms = AddressAtoms(
        (segment.base_addr, segment.base_addr + segment.footprint_bytes)
        for _, segments in shapes
        for segment in segments
    )

    nodes: List[IRNode] = [IRNode(index=0, kind="entry", phase_index=-1)]
    for phase_index, (phase, (kind, segments)) in enumerate(
        zip(trace.phases, shapes)
    ):
        if kind == "comm":
            dest = Space.of(phase.direction.destination)
            events: Tuple[BufferEvent, ...] = (
                BufferEvent(
                    EventKind.TRANSFER,
                    dest,
                    atoms.all_mask,
                    label=phase.label,
                    num_bytes=phase.num_bytes,
                ),
                BufferEvent(
                    EventKind.RELEASE,
                    Space.of(phase.direction.source),
                    atoms.all_mask,
                    label=phase.label,
                    num_objects=phase.num_objects,
                ),
                BufferEvent(
                    EventKind.ACQUIRE,
                    dest,
                    atoms.all_mask,
                    label=phase.label,
                    num_objects=phase.num_objects,
                ),
            )
        else:
            events = tuple(
                event
                for segment in segments
                for event in _segment_events(segment, atoms)
            )
        nodes.append(
            IRNode(
                index=len(nodes),
                kind=kind,
                phase_index=phase_index,
                label=phase.label,
                events=events,
            )
        )
    nodes.append(IRNode(index=len(nodes), kind="exit", phase_index=-1))
    edges = tuple((i, i + 1) for i in range(len(nodes) - 1))
    return TraceIR(trace=trace, cfg=AnalysisCFG(tuple(nodes), edges), atoms=atoms)


def _host_name(name: str) -> str:
    """Fold a device alias ("gpu_x", "x_adsm") onto its host buffer."""
    if name.startswith("gpu_"):
        name = name[4:]
    if name.endswith("_adsm"):
        name = name[: -len("_adsm")]
    return name


def _program_node_events(
    event: StmtEvent, bits: Dict[str, int], spec: Optional[KernelProgramSpec]
) -> List[BufferEvent]:
    mask = 0
    for name in event.buffers:
        base = _host_name(name)
        if base in bits:
            mask |= 1 << bits[base]
    if not mask:
        return []
    if event.kind == "copy" and event.direction is not None:
        dest = Space.of(event.direction.destination)
        return [
            BufferEvent(
                EventKind.TRANSFER,
                dest,
                mask,
                label=event.label,
                num_bytes=event.size,
            )
        ]
    if event.kind == "alloc":
        # A host allocation materializes the buffer's initial host copy;
        # device-side allocators define nothing (the copy is garbage).
        if event.pu is ProcessingUnit.CPU:
            return [
                BufferEvent(EventKind.DEF, Space.HOST, mask, label=event.label)
            ]
        return []
    if event.kind == "launch":
        space = Space.of(event.pu)
        events = []
        if spec is not None:
            ins = {b.name for b in spec.inputs()}
            outs = {b.name for b in spec.outputs()}
            in_mask = sum(1 << bits[n] for n in ins if n in bits)
            out_mask = sum(1 << bits[n] for n in outs if n in bits)
            if in_mask & mask:
                events.append(
                    BufferEvent(
                        EventKind.USE, space, in_mask & mask, label=event.label
                    )
                )
            if out_mask & mask:
                events.append(
                    BufferEvent(
                        EventKind.DEF, space, out_mask & mask, label=event.label
                    )
                )
        else:
            events.append(
                BufferEvent(EventKind.USE, space, mask, label=event.label)
            )
            events.append(
                BufferEvent(EventKind.DEF, space, mask, label=event.label)
            )
        return events
    if event.kind == "acquire":
        return [
            BufferEvent(
                EventKind.ACQUIRE,
                Space.of(event.pu),
                mask,
                label=event.label,
                num_objects=len(event.buffers),
            )
        ]
    if event.kind == "release":
        return [
            BufferEvent(
                EventKind.RELEASE,
                Space.of(event.pu),
                mask,
                label=event.label,
                num_objects=len(event.buffers),
            )
        ]
    return []


def cfg_from_program(
    program: Program, spec: Optional[KernelProgramSpec] = None
) -> ProgramIR:
    """Lower a progmodel program to the analysis IR.

    The universe is one atom per *host-named* buffer (device aliases like
    ``gpu_x`` fold onto ``x``); each communication-relevant statement
    becomes a node via the progmodel statement-event hook. With a
    ``spec``, kernel launches split into USE (inputs) and DEF (outputs)
    events; without one, a launch conservatively uses and defines every
    buffer it names.
    """
    events = statement_events(program)
    names: List[str] = []
    for event in events:
        for name in event.buffers:
            base = _host_name(name)
            if base not in names:
                names.append(base)
    bits = {name: bit for bit, name in enumerate(names)}

    nodes: List[IRNode] = [IRNode(index=0, kind="entry", phase_index=-1)]
    for event in events:
        nodes.append(
            IRNode(
                index=len(nodes),
                kind="stmt",
                phase_index=event.index,
                label=event.label,
                events=tuple(_program_node_events(event, bits, spec)),
            )
        )
    nodes.append(IRNode(index=len(nodes), kind="exit", phase_index=-1))
    edges = tuple((i, i + 1) for i in range(len(nodes) - 1))
    return ProgramIR(
        program=program,
        cfg=AnalysisCFG(tuple(nodes), edges),
        buffer_bits=bits,
    )
