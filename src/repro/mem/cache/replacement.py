"""Replacement policies, including the hybrid locality-aware policy.

Paper §II-B5 ("Hybrid Locality in the Second-Level Cache"): when a cache is
shared by an implicitly-managed PU and an explicitly-managed PU, the
replacement policy must guarantee that "an implicitly-managed cache block
cannot evict an explicitly-managed cache block", and "the explicitly
managed cache size must be smaller than the total size of the physically
shared cache". :class:`HybridLocalityPolicy` implements exactly those two
rules on top of LRU.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from repro.errors import ConfigError, LocalityError
from repro.mem.cache.block import CacheBlock

__all__ = ["ReplacementPolicy", "LRUPolicy", "HybridLocalityPolicy"]


class ReplacementPolicy(abc.ABC):
    """Chooses a victim way within a set.

    Policies only read recency: the cache stamps each block's
    ``last_use`` with its access tick on every hit and fill.
    """

    @abc.abstractmethod
    def victim(self, blocks: List[CacheBlock], incoming_explicit: bool) -> Optional[int]:
        """Index of the way to evict for an incoming fill, or ``None`` if
        the fill must be rejected (hybrid policy: no evictable way)."""


def _lru_way(blocks: List[CacheBlock], candidates: List[int]) -> int:
    """The least-recently-used way among ``candidates`` (prefer invalid)."""
    for way in candidates:
        if not blocks[way].valid:
            return way
    return min(candidates, key=lambda w: blocks[w].last_use)


class LRUPolicy(ReplacementPolicy):
    """Plain least-recently-used replacement.

    The victim is the first invalid way, else the lowest way among those
    with the smallest ``last_use``, found in one pass over the set.
    """

    def victim(self, blocks: List[CacheBlock], incoming_explicit: bool) -> Optional[int]:
        victim = 0
        oldest = None
        for way, block in enumerate(blocks):
            if not block.valid:
                return way
            if oldest is None or block.last_use < oldest:
                oldest = block.last_use
                victim = way
        return victim


class HybridLocalityPolicy(ReplacementPolicy):
    """LRU with explicit-block protection (§II-B5).

    - An *implicit* fill may only evict invalid or implicit blocks; if the
      whole set is explicit, the fill is rejected (the requester bypasses
      this cache level), which cannot happen when ``max_explicit_ways`` is
      honoured.
    - An *explicit* fill prefers implicit victims and is capped at
      ``max_explicit_ways`` explicit blocks per set, keeping the explicitly
      managed region strictly smaller than the cache.
    """

    def __init__(self, ways: int, max_explicit_ways: Optional[int] = None) -> None:
        if ways < 2:
            raise ConfigError("hybrid policy needs at least 2 ways")
        if max_explicit_ways is None:
            max_explicit_ways = ways - 1
        if not 1 <= max_explicit_ways < ways:
            raise ConfigError(
                f"max_explicit_ways must be in [1, {ways - 1}], got {max_explicit_ways} "
                "(the explicit region must be smaller than the cache, paper §II-B5)"
            )
        self.ways = ways
        self.max_explicit_ways = max_explicit_ways
        self.protected_evictions_avoided = 0

    def victim(self, blocks: List[CacheBlock], incoming_explicit: bool) -> Optional[int]:
        if len(blocks) != self.ways:
            raise LocalityError(
                f"policy configured for {self.ways} ways, set has {len(blocks)}"
            )
        implicit_ways = [w for w, b in enumerate(blocks) if not (b.valid and b.explicit)]
        if incoming_explicit:
            explicit_count = sum(1 for b in blocks if b.valid and b.explicit)
            if explicit_count >= self.max_explicit_ways:
                # Evict the LRU *explicit* block: the explicit region is full.
                explicit_ways = [w for w, b in enumerate(blocks) if b.valid and b.explicit]
                return _lru_way(blocks, explicit_ways)
            if implicit_ways:
                return _lru_way(blocks, implicit_ways)
            return None
        # Implicit fill: explicit blocks are off limits.
        if not implicit_ways:
            self.protected_evictions_avoided += 1
            return None
        return _lru_way(blocks, implicit_ways)
