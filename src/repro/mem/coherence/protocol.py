"""MESI cache-coherence protocol as a pure state machine.

The directory (:mod:`repro.mem.coherence.directory`) drives these
transitions per line and per PU. Keeping the protocol pure makes it easy to
property-test the standard MESI invariants (single writer, M implies sole
sharer, S never dirty).
"""

from __future__ import annotations

import enum
from typing import Tuple

from repro.errors import SimulationError

__all__ = [
    "MESIState",
    "ProtocolError",
    "next_state",
    "remote_state_on_snoop",
]


class ProtocolError(SimulationError):
    """An impossible coherence transition was requested."""


class MESIState(enum.Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    def __str__(self) -> str:
        return self.value


def next_state(
    state: MESIState, is_write: bool, others_have_copy: bool
) -> Tuple[MESIState, bool]:
    """Transition for a *local* access.

    Returns ``(new_state, invalidate_others)``: the requester's new state
    and whether remote copies must be invalidated.

    >>> next_state(MESIState.INVALID, False, False)
    (<MESIState.EXCLUSIVE: 'E'>, False)
    >>> next_state(MESIState.SHARED, True, True)
    (<MESIState.MODIFIED: 'M'>, True)
    """
    if state is MESIState.INVALID:
        if is_write:
            return MESIState.MODIFIED, others_have_copy
        return (MESIState.SHARED if others_have_copy else MESIState.EXCLUSIVE), False
    if state is MESIState.SHARED:
        if is_write:
            return MESIState.MODIFIED, others_have_copy
        return MESIState.SHARED, False
    if state is MESIState.EXCLUSIVE:
        if is_write:
            # Silent E->M upgrade; nobody else can hold a copy in E.
            if others_have_copy:
                raise ProtocolError("line in E while another PU holds a copy")
            return MESIState.MODIFIED, False
        return MESIState.EXCLUSIVE, False
    if state is MESIState.MODIFIED:
        if others_have_copy:
            raise ProtocolError("line in M while another PU holds a copy")
        return MESIState.MODIFIED, False
    raise ProtocolError(f"unknown state {state!r}")


def remote_state_on_snoop(state: MESIState, remote_is_write: bool) -> MESIState:
    """Transition for a line when *another* PU accesses it.

    >>> remote_state_on_snoop(MESIState.MODIFIED, False)
    <MESIState.SHARED: 'S'>
    >>> remote_state_on_snoop(MESIState.SHARED, True)
    <MESIState.INVALID: 'I'>
    """
    if remote_is_write:
        return MESIState.INVALID
    if state in (MESIState.MODIFIED, MESIState.EXCLUSIVE):
        return MESIState.SHARED
    return state
