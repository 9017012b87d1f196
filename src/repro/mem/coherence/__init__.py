"""Coherence substrates: MESI protocol state machine, the pluggable
protocol variants of the coherence axis (``none | snoop | directory``),
and a software-coherence (runtime flush) alternative."""

from repro.mem.coherence.protocol import (
    MESIState,
    ProtocolError,
    next_state,
    remote_state_on_snoop,
)
from repro.mem.coherence.api import (
    PROTOCOL_KINDS,
    CoherenceAction,
    CoherenceProtocol,
    NullProtocol,
    protocol_for,
    resolve_protocol_kind,
)
from repro.mem.coherence.directory import Directory, SoftwareCoherence
from repro.mem.coherence.snoop import SnoopBus

__all__ = [
    "MESIState",
    "ProtocolError",
    "next_state",
    "remote_state_on_snoop",
    "PROTOCOL_KINDS",
    "CoherenceAction",
    "CoherenceProtocol",
    "NullProtocol",
    "protocol_for",
    "resolve_protocol_kind",
    "Directory",
    "SoftwareCoherence",
    "SnoopBus",
]
