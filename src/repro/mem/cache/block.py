"""Cache block (line) state."""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.coherence.protocol import MESIState, reset_block_state

__all__ = ["CacheBlock"]


@dataclass(slots=True)
class CacheBlock:
    """One cache line's metadata.

    ``explicit`` is the locality bit of §II-B5: set when the block was
    placed by an explicit ``push`` (or an explicitly-managed allocation),
    and consulted by :class:`~repro.mem.cache.replacement.HybridLocalityPolicy`
    so implicitly cached data cannot evict explicitly managed data.

    ``state`` is the MESI coherence state, owned entirely by
    :mod:`repro.mem.coherence`: it stays ``INVALID`` unless a
    :class:`~repro.mem.coherence.api.CoherenceProtocol` manages the cache,
    and only that package may assign it (repo lint rule L004).

    A cache builds a fresh block for every fill; :meth:`invalidate` resets
    a resident block in place.
    """

    tag: int = -1
    valid: bool = False
    dirty: bool = False
    explicit: bool = False
    prefetched: bool = False
    last_use: int = 0
    state: MESIState = MESIState.INVALID

    def invalidate(self) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.explicit = False
        self.prefetched = False
        reset_block_state(self)
