"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "TraceError",
    "SimulationError",
    "AddressSpaceError",
    "AccessViolationError",
    "OwnershipError",
    "AllocationError",
    "TranslationError",
    "CommunicationError",
    "LocalityError",
    "DesignSpaceError",
    "ProgramError",
    "CheckError",
    "FaultSpecError",
    "StoreError",
    "StoreCorruptionError",
    "ServeError",
    "QueueFullError",
    "DeadlineExceededError",
    "ChaosError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class TraceError(ReproError):
    """A trace is malformed or inconsistent with its declared statistics."""


class SimulationError(ReproError):
    """The simulator reached an invalid state."""


class AddressSpaceError(ReproError):
    """Base class for address-space related failures."""


class AccessViolationError(AddressSpaceError):
    """A processing unit accessed an address it may not reach.

    Raised e.g. when a GPU dereferences host-private memory under a disjoint
    or ADSM address space.
    """


class OwnershipError(AddressSpaceError):
    """Ownership protocol violation in the partially shared address space.

    Raised when a PU touches a shared object it does not own, or when
    acquire/release are misused (double acquire, release by non-owner).
    """


class AllocationError(AddressSpaceError):
    """An allocation request could not be satisfied."""


class TranslationError(AddressSpaceError):
    """A virtual address has no mapping in the relevant page table."""


class CommunicationError(ReproError):
    """A data transfer was requested over an unavailable mechanism."""


class LocalityError(ReproError):
    """A locality-management operation is infeasible for the configuration."""


class DesignSpaceError(ReproError):
    """A design point is infeasible or the space query is malformed."""


class ProgramError(ReproError):
    """A mini-DSL program is malformed or violates model rules."""


class CheckError(ReproError):
    """The static memory-model checker found violations that gate a run.

    Raised by :class:`~repro.core.explorer.Explorer` in ``check="error"``
    mode when a trace breaks the obligations of the design point it is
    about to be simulated under.
    """


class FaultSpecError(ConfigError):
    """A fault-injection spec string or parameter set is malformed.

    A :class:`ConfigError` subclass so the CLI maps bad ``--faults``
    grammar onto the configuration exit code.
    """


class StoreError(ReproError):
    """The durable result store cannot be opened, read, or written.

    Raised for structural problems (unwritable root, journal that cannot
    be appended, a root that is not a store). Corrupt *entries* never
    raise on the read path — they are quarantined and recomputed (see
    :class:`~repro.store.store.ResultStore`); :class:`StoreCorruptionError`
    is reserved for explicit integrity commands (``store verify``).
    """


class StoreCorruptionError(StoreError):
    """An explicit integrity check found corrupt store entries, or no store.

    Raised by :meth:`~repro.store.store.ResultStore.verify` in strict
    mode, and by :meth:`~repro.store.store.ResultStore.open_existing` for
    a root holding no store, so the ``repro-explore store`` commands can
    map both onto their own exit code (5) distinct from configuration or
    simulation errors.
    """


class ServeError(ReproError):
    """The exploration service failed structurally (bind, boot, shutdown)."""


class QueueFullError(ServeError):
    """The service job queue is at capacity and shed this request.

    Explicit backpressure: the daemon bounds queue depth and answers
    over-capacity submissions with this typed error (HTTP 503) instead of
    growing without bound.
    """


class DeadlineExceededError(ServeError):
    """A request's deadline expired before its job produced a result.

    The job itself keeps running to completion (its result still lands in
    the store for the next asker); only this request's wait is abandoned.
    """


class ChaosError(ReproError):
    """A chaos scenario ended in an unexpected state.

    Every scenario must terminate with either byte-identical-to-clean
    results or an explicit typed error; anything else — a hang proxy, a
    silent mismatch, an untyped crash — raises this.
    """
