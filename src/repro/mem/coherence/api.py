"""Coherence protocols as pluggable per-access traffic models.

The machine model (:mod:`repro.sim.system`) consults one
:class:`CoherenceProtocol` on every shared-window access and applies the
returned :class:`CoherenceAction`: invalidating peer caches and charging
protocol messages as interconnect traversals on the critical path. Three
variants cover the design axis:

- ``none`` — no per-access protocol (:func:`protocol_for` returns ``None``
  and the machine wires the cores straight to their caches; this is the
  default and is byte-identical to the pre-protocol model);
- ``snoop`` (:class:`~repro.mem.coherence.snoop.SnoopBus`) — broadcast
  probes: every cold access announces itself to the peer, so snooping pays
  per-access broadcast traffic but resolves conflicts in a single bus
  transaction;
- ``directory`` (:class:`~repro.mem.coherence.directory.Directory`) —
  indirection through a per-line sharer directory: cold accesses pay a
  lookup and conflicting writes pay explicit invalidate/ack message pairs.

Both stateful variants tabulate the same pure MESI transition functions
(:mod:`repro.mem.coherence.protocol`) into one step table per protocol
class, bound to each instance's counters, over the same bookkeeping (one
``line -> state`` table per PU), so they disagree only in *message* cost
— which is exactly the quantity the design-space sweep compares. All
protocol counters are declared on a :mod:`repro.obs`
:class:`~repro.obs.metrics.MetricRegistry`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError, SimulationError
from repro.mem.coherence.protocol import (
    MESIState,
    ProtocolError,
    next_state,
    remote_state_on_snoop,
)
from repro.obs.metrics import Counter, MetricRegistry
from repro.taxonomy import CoherenceKind, ProcessingUnit

__all__ = [
    "CoherenceAction",
    "CoherenceProtocol",
    "NullProtocol",
    "PROTOCOL_KINDS",
    "STATES",
    "protocol_for",
]

#: The protocol variants of the coherence axis, in sweep order.
PROTOCOL_KINDS: Tuple[str, ...] = ("none", "snoop", "directory")


@dataclass(frozen=True)
class CoherenceAction:
    """What the system must do for one shared-space access.

    ``invalidate_peer``: remove the peer PU's private copies of the line.
    ``extra_latency_messages``: protocol messages on the critical path
    (each costs one interconnect traversal).
    ``new_state``: the requester's MESI state for the line after the
    access, which the system mirrors onto its L1 block.

    A protocol class builds one action per entry of its step table, when
    its first instance is constructed; every access returns one of those.
    """

    invalidate_peer: bool
    extra_latency_messages: int
    new_state: MESIState = MESIState.INVALID


#: The MESI states by their code in the per-PU line tables. INVALID is 0,
#: so an absent line reads as INVALID.
STATES: Tuple[MESIState, ...] = (
    MESIState.INVALID,
    MESIState.SHARED,
    MESIState.EXCLUSIVE,
    MESIState.MODIFIED,
)
_CODE = {state: code for code, state in enumerate(STATES)}

#: One step-table entry: the requester's and the peer's new state codes,
#: the action, and the counters to bump by one. ``None`` marks an
#: impossible ``(local, remote, is_write)`` combination.
StepEntry = Optional[Tuple[int, int, CoherenceAction, Tuple[Counter, ...]]]

#: One entry of a class's step table: a :data:`StepEntry` naming the
#: counters to bump instead of holding them.
_ClassEntry = Optional[Tuple[int, int, CoherenceAction, Tuple[str, ...]]]


class CoherenceProtocol:
    """Per-line MESI bookkeeping shared by the stateful protocol variants.

    Subclasses declare their counters and implement :meth:`_messages`, the
    per-access message-cost model; :meth:`_class_table` derives the whole
    step from it once per class, for every ``(local, remote, is_write)``:
    both PUs' new states from the pure MESI transitions
    (:func:`~repro.mem.coherence.protocol.next_state`,
    :func:`~repro.mem.coherence.protocol.remote_state_on_snoop`), the
    action and the names of the counters to bump. :meth:`_tabulate` binds
    those names to each instance's counters, so an access is one table
    lookup.
    The protocol is *not* a :class:`~repro.mem.level.MemoryLevel`: the
    system model consults it on each shared-space access and applies the
    returned action.
    """

    #: The axis value this protocol implements ("snoop" or "directory").
    kind: str = "none"

    def __init__(self, line_bytes: int = 64) -> None:
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise SimulationError("line size must be a positive power of two")
        self.line_bytes = line_bytes
        #: Per PU, ``line -> state code`` (:data:`STATES`) of every line it
        #: holds (INVALID lines are absent).
        self._lines: Dict[ProcessingUnit, Dict[int, int]] = {
            pu: {} for pu in ProcessingUnit
        }
        self.metrics = MetricRegistry(f"coherence.{self.kind}")
        #: Per PU, its bound step; filled by :meth:`_tabulate`.
        self._steps: Dict[ProcessingUnit, Callable[[int, bool], CoherenceAction]] = {}

    # -- the step table -----------------------------------------------------

    @staticmethod
    def _messages(
        local: MESIState,
        remote: MESIState,
        is_write: bool,
        new_local: MESIState,
        invalidate: bool,
    ) -> Tuple[int, Tuple[str, ...]]:
        """The variant's message rule for one access: the protocol
        messages on the critical path and the names of the counters it
        bumps."""
        raise NotImplementedError

    @classmethod
    @functools.lru_cache(maxsize=None)
    def _class_table(cls) -> Tuple[_ClassEntry, ...]:
        """The step for every ``(local, remote, is_write)``, derived once
        per class: entry ``local * 8 + remote * 2 + is_write`` (state
        codes) holds that access's step."""
        entries: List[_ClassEntry] = []
        for local in STATES:
            for remote in STATES:
                others = remote is not MESIState.INVALID
                for is_write in (False, True):
                    try:
                        new_local, invalidate = next_state(local, is_write, others)
                    except ProtocolError:
                        entries.append(None)
                        continue
                    new_remote = (
                        remote_state_on_snoop(remote, is_write) if others else remote
                    )
                    messages, bumps = cls._messages(
                        local, remote, is_write, new_local, invalidate
                    )
                    action = CoherenceAction(invalidate, messages, new_local)
                    entries.append((_CODE[new_local], _CODE[new_remote], action, bumps))
        return tuple(entries)

    def _tabulate(self) -> None:
        """Bind the class's step table to this instance's counters, one
        stepper per PU. Subclasses call it once their counters exist."""
        counters = self.metrics
        table: List[StepEntry] = [
            None
            if entry is None
            else (entry[0], entry[1], entry[2], tuple(counters[n] for n in entry[3]))
            for entry in self._class_table()
        ]
        self._steps = {pu: self._bind(pu, table) for pu in ProcessingUnit}

    def _bind(
        self, pu: ProcessingUnit, table: List[StepEntry]
    ) -> Callable[[int, bool], CoherenceAction]:
        own = self._lines[pu]
        peer = self._lines[pu.other]
        mask = ~(self.line_bytes - 1)

        def step(addr: int, is_write: bool) -> CoherenceAction:
            line = addr & mask
            local = own.get(line, 0)
            remote = peer.get(line, 0)
            entry = table[local * 8 + remote * 2 + is_write]
            if entry is None:
                # next_state raises the ProtocolError for every None entry.
                next_state(STATES[local], is_write, remote != 0)
            new_local, new_remote, action, bumps = entry
            own[line] = new_local
            if new_remote != remote:
                if new_remote:
                    peer[line] = new_remote
                else:
                    del peer[line]
            for counter in bumps:
                counter.value += 1
            return action

        return step

    def accessor(self, pu: ProcessingUnit) -> Callable[[int, bool], CoherenceAction]:
        """``pu``'s bound step: ``accessor(pu)(addr, is_write)`` is
        ``access(addr, pu, is_write)`` without the per-access PU lookup."""
        return self._steps[pu]

    def access(self, addr: int, pu: ProcessingUnit, is_write: bool) -> CoherenceAction:
        """Record an access and return the required action."""
        return self._steps[pu](addr, is_write)

    # -- MESI bookkeeping ---------------------------------------------------

    def _line(self, addr: int) -> int:
        return addr & ~(self.line_bytes - 1)

    def state_of(self, addr: int, pu: ProcessingUnit) -> MESIState:
        return STATES[self._lines[pu].get(self._line(addr), 0)]

    def sharers(self, addr: int) -> Tuple[ProcessingUnit, ...]:
        line = self._line(addr)
        return tuple(pu for pu in ProcessingUnit if line in self._lines[pu])

    def check_invariants(self) -> None:
        """Raise if the single-writer invariant is violated anywhere."""
        lines: Dict[int, list] = {}
        for table in self._lines.values():
            for line, code in table.items():
                lines.setdefault(line, []).append(STATES[code])
        for line, states in lines.items():
            writers = sum(
                1 for s in states if s in (MESIState.MODIFIED, MESIState.EXCLUSIVE)
            )
            if writers > 1 or (writers == 1 and len(states) > 1):
                raise SimulationError(
                    f"coherence invariant violated on line {line:#x}: {states}"
                )

    # -- statistics ---------------------------------------------------------

    @property
    def tracked_lines(self) -> int:
        return len(set().union(*self._lines.values()))

    def stats(self) -> Dict[str, int]:
        data = self.metrics.as_dict()
        data["tracked_lines"] = self.tracked_lines
        return data

    def reset_stats(self) -> None:
        """Zero every declared counter (line-state bookkeeping is kept)."""
        self.metrics.reset()


class NullProtocol(CoherenceProtocol):
    """The ``none`` end of the axis: no traffic, no state, no cost.

    The machine builder never consults it (``coherence="none"`` simply
    wires no front), but sweeps and tests use it as a uniform stand-in.
    """

    kind = "none"

    _NO_ACTION = CoherenceAction(invalidate_peer=False, extra_latency_messages=0)

    def __init__(self, line_bytes: int = 64) -> None:
        super().__init__(line_bytes)
        self._steps = dict.fromkeys(ProcessingUnit, self._no_action)

    def _no_action(self, addr: int, is_write: bool) -> CoherenceAction:
        return self._NO_ACTION


def resolve_protocol_kind(
    coherence: "Union[str, CoherenceKind, None]",
) -> str:
    """Normalize an axis value to one of :data:`PROTOCOL_KINDS`.

    Accepts ``None`` (→ ``"none"``), a protocol-kind string, or a
    :class:`~repro.taxonomy.CoherenceKind` (hardware kinds map to their
    protocol; software kinds map to ``"none"`` — they pay at
    synchronization points, not per access).
    """
    if coherence is None:
        return "none"
    if isinstance(coherence, CoherenceKind):
        return coherence.protocol
    kind = str(coherence)
    if kind not in PROTOCOL_KINDS:
        raise ConfigError(
            f"unknown coherence protocol {kind!r}; "
            f"expected one of {', '.join(PROTOCOL_KINDS)}"
        )
    return kind


def protocol_for(
    coherence: "Union[str, CoherenceKind, None]", line_bytes: int = 64
) -> Optional[CoherenceProtocol]:
    """Build the protocol instance for an axis value, or ``None`` for
    ``"none"`` (the machine then runs with no coherent front at all)."""
    from repro.mem.coherence.directory import Directory
    from repro.mem.coherence.snoop import SnoopBus

    kind = resolve_protocol_kind(coherence)
    if kind == "none":
        return None
    if kind == "snoop":
        return SnoopBus(line_bytes)
    return Directory(line_bytes)
