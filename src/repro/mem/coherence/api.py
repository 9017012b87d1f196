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

Both stateful variants drive the same pure MESI transition functions
(:mod:`repro.mem.coherence.protocol`) over the same bookkeeping, one
``line -> state`` table per PU, so they disagree only in *message* cost —
which is exactly the quantity the design-space sweep compares. All
protocol counters are declared on a :mod:`repro.obs`
:class:`~repro.obs.metrics.MetricRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.errors import ConfigError, SimulationError
from repro.mem.coherence.protocol import MESIState, next_state, remote_state_on_snoop
from repro.obs.metrics import MetricRegistry
from repro.taxonomy import CoherenceKind, ProcessingUnit

__all__ = [
    "CoherenceAction",
    "CoherenceProtocol",
    "NullProtocol",
    "PROTOCOL_KINDS",
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
    """

    invalidate_peer: bool
    extra_latency_messages: int
    new_state: MESIState = MESIState.INVALID


class CoherenceProtocol:
    """Per-line MESI bookkeeping shared by the stateful protocol variants.

    Subclasses implement :meth:`access` — the per-access message-cost
    model — on top of :meth:`_apply`, which performs the (variant-agnostic)
    MESI transition for both PUs. The protocol is *not* a
    :class:`~repro.mem.level.MemoryLevel`: the system model consults it on
    each shared-space access and applies the returned action.
    """

    #: The axis value this protocol implements ("snoop" or "directory").
    kind: str = "none"

    def __init__(self, line_bytes: int = 64) -> None:
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise SimulationError("line size must be a positive power of two")
        self.line_bytes = line_bytes
        #: Per PU, ``line -> state`` of every line it holds (INVALID lines
        #: are absent).
        self._lines: Dict[ProcessingUnit, Dict[int, MESIState]] = {
            pu: {} for pu in ProcessingUnit
        }
        #: Per requester, its own table and its peer's.
        self._tables: Dict[ProcessingUnit, Tuple[Dict[int, MESIState], ...]] = {
            pu: (self._lines[pu], self._lines[pu.other]) for pu in ProcessingUnit
        }
        self.metrics = MetricRegistry(f"coherence.{self.kind}")

    # -- MESI bookkeeping ---------------------------------------------------

    def _line(self, addr: int) -> int:
        return addr & ~(self.line_bytes - 1)

    def state_of(self, addr: int, pu: ProcessingUnit) -> MESIState:
        return self._lines[pu].get(self._line(addr), MESIState.INVALID)

    @staticmethod
    def _apply(
        line: int,
        own: Dict[int, MESIState],
        peer: Dict[int, MESIState],
        is_write: bool,
        local: MESIState,
        remote: MESIState,
        others: bool,
    ) -> Tuple[MESIState, bool]:
        """Transition both PUs' states for one access (``own`` and
        ``peer`` are the requester's and the peer's tables).

        Returns ``(new_local_state, invalidate_peer)``.
        """
        new_local, invalidate = next_state(local, is_write, others)
        own[line] = new_local
        if others:
            new_remote = remote_state_on_snoop(remote, is_write)
            if new_remote is MESIState.INVALID:
                peer.pop(line, None)
            else:
                peer[line] = new_remote
        return new_local, invalidate

    def access(self, addr: int, pu: ProcessingUnit, is_write: bool) -> CoherenceAction:
        """Record an access and return the required action."""
        raise NotImplementedError

    def sharers(self, addr: int) -> Tuple[ProcessingUnit, ...]:
        line = self._line(addr)
        return tuple(pu for pu in ProcessingUnit if line in self._lines[pu])

    def check_invariants(self) -> None:
        """Raise if the single-writer invariant is violated anywhere."""
        lines: Dict[int, list] = {}
        for table in self._lines.values():
            for line, state in table.items():
                lines.setdefault(line, []).append(state)
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

    def access(self, addr: int, pu: ProcessingUnit, is_write: bool) -> CoherenceAction:
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
