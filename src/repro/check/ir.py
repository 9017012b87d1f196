"""The checker's analysis IR: a chain of phase nodes with per-buffer events.

check v2 separates *what a program does to data* from *what each rule
wants to know about it*. :func:`cfg_from_trace` lowers a
:class:`~repro.trace.stream.KernelTrace` to a :class:`TraceIR`: a tuple
of :class:`IRNode`\\ s in program order, between synthetic entry and
exit nodes, each carrying :class:`BufferEvent`\\ s — definitions, uses,
transfers, and ownership moves, each scoped to a :class:`Space` and a
bitmask over *address atoms*. The address ranges the trace's segments
stride are partitioned at every interval boundary into
:class:`AddressAtoms`: the smallest ranges the trace never subdivides,
so a bit per atom (times two spaces) is an exact abstraction of "which
bytes of which copy".

Every checker rule reads those events: most as an in-order scan
(:mod:`repro.check.analysis`), the dataflow passes
(:mod:`repro.check.passes`) as one gen/kill sweep along the chain. Each
node has at most one predecessor, so that sweep is the fixpoint; a
branching IR would only be needed for per-PU event streams that join,
which no design axis swept today produces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.taxonomy import ProcessingUnit
from repro.trace.phase import CommPhase, ParallelPhase, Segment, SequentialPhase
from repro.trace.stream import KernelTrace

__all__ = [
    "Space",
    "EventKind",
    "BufferEvent",
    "IRNode",
    "AddressAtoms",
    "TraceIR",
    "cfg_from_trace",
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
    """One IR node: a phase plus its buffer events.

    ``index`` is the node's position in :attr:`TraceIR.nodes`;
    ``phase_index`` is the index into the source trace's ``phases``, and
    entry/exit nodes carry ``-1``.
    """

    index: int
    kind: str  # "entry" | "exit" | "sequential" | "parallel" | "comm"
    phase_index: int
    label: str = ""
    events: Tuple[BufferEvent, ...] = ()


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
    """A trace lowered to the analysis IR: the node chain plus its atom
    universe."""

    trace: KernelTrace
    nodes: Tuple[IRNode, ...]
    atoms: AddressAtoms


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

    One node per phase, in program order, between synthetic entry/exit
    nodes.
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
    return TraceIR(trace=trace, nodes=tuple(nodes), atoms=atoms)
