"""Static memory-model checker for kernel traces (``repro check``).

The paper's Table I is, at heart, a table of *obligations*: every
address-space/locality design point demands something from the program —
ownership acquire/release discipline under the partially shared space
(§II-A3), explicit transfers before consumption under disjoint spaces
(§II-A2), a ``push`` before remote reads under explicit locality
management (§II-B), and synchronization wherever the consistency model is
weaker than SC (Table I's consistency column). The simulators enforce
these *dynamically* (``OwnershipError`` mid-run); this package enforces
them *statically*, by walking a :class:`~repro.trace.stream.KernelTrace`
against a :class:`CheckConfig` and reporting typed :class:`Finding`\\ s in
milliseconds — before any simulation cycles are spent.

Suspicious concurrent phase pairs are additionally cross-validated
against the operational consistency executors
(:func:`repro.consistency.model.allowed_outcomes`): the checker compiles
them to small litmus programs and upgrades the finding from *possible* to
*confirmed* when the configured model really permits the bad outcome.

Every rule reads one analysis IR: :func:`check_trace` lowers the trace
once (memoized per trace) to a chain of phase nodes with per-buffer
def/use/transfer/ownership events over address atoms
(:mod:`repro.check.ir`), and each rule family is an in-order scan of its
nodes. The staleness and optimization rules additionally fold gen/kill
transfers along the chain in one sweep (:mod:`repro.check.passes`):
reaching-transfers (LOC001 as a dataflow fact), buffer liveness (OPT001
dead transfers), and available copies (OPT002 redundant transfers with
bytes-saved estimates). Access-mode inference (INF001, Table V-verified
``declareAccess`` suggestions) reads which buffers the disjoint lowering
copies back to the host. The OPT/INF rules are advisory and only run in
optimize mode.

Entry points:

- :func:`check_trace` — analyze one trace under one configuration
  (``optimize=True`` adds the OPT/INF passes);
- ``repro-explore check`` — the CLI front door (exit code 4 on
  findings; ``--optimize`` and ``--sarif`` for the v2 surfaces);
- ``Explorer(check="warn"|"error"|"optimize")`` — the pre-simulation
  gate (optimize reports OPT/INF findings without ever gating).
"""

from repro.check.analysis import check_trace
from repro.check.config import CheckConfig
from repro.check.findings import CheckReport, Finding, Severity, merge_reports
from repro.check.ir import (
    AddressAtoms,
    BufferEvent,
    EventKind,
    IRNode,
    Space,
    cfg_from_trace,
)
from repro.check.rules import RULES, Rule, rule
from repro.check.sarif import to_sarif, write_sarif

__all__ = [
    "CheckConfig",
    "CheckReport",
    "Finding",
    "Severity",
    "Rule",
    "RULES",
    "rule",
    "check_trace",
    "merge_reports",
    "Space",
    "EventKind",
    "BufferEvent",
    "IRNode",
    "AddressAtoms",
    "cfg_from_trace",
    "to_sarif",
    "write_sarif",
]
