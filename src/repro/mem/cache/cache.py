"""The set-associative cache model."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.config.system import CacheConfig
from repro.mem.cache.block import CacheBlock
from repro.mem.cache.mshr import MSHRFile
from repro.mem.cache.prefetch import NextLinePrefetcher
from repro.mem.cache.replacement import LRUPolicy, ReplacementPolicy
from repro.mem.level import WHOLE_WINDOW, MemoryLevel, Probe
from repro.obs.metrics import MetricRegistry
from repro.units import Frequency

__all__ = ["Cache", "EMPTY"]

#: The invalid block every way of a newly touched set starts as. Shared by
#: all sets of all caches, so nothing may mutate it: fills replace it.
EMPTY = CacheBlock()


class Cache(MemoryLevel):
    """A write-back/write-allocate set-associative cache.

    Timing is accounted in seconds: hit latency is ``config.latency`` cycles
    of ``frequency``; a miss adds the next level's access latency. A dirty
    line displaced by a demand or prefetch fill is only counted
    (``writebacks``): it sends no traffic below. Only :meth:`push_line`
    evictions and :meth:`flush` send write-back traffic into the next
    level, off the critical path.

    ``policy`` defaults to LRU; pass a
    :class:`~repro.mem.cache.replacement.HybridLocalityPolicy` for the
    §II-B5 hybrid shared cache. When the policy rejects a fill (no
    evictable way for an implicit fill), the access bypasses this level:
    the requester still gets its data from below, but nothing is installed.

    Lookup is one ``dict.get``: alongside the per-set block arrays the
    cache keeps one ``line -> block`` dict (``_block_of``, keyed by the
    line number ``addr // line_bytes``), maintained at every fill,
    invalidation and flush. The invariant is that it maps exactly the
    valid blocks, each to the block object itself: line ``n`` lives in set
    ``n % sets`` with tag ``n // sets``. The set arrays serve only the
    replacement policy, which picks a victim way within one set.

    A core probes its top cache with :meth:`private_hit` (through
    :meth:`~repro.mem.level.MemoryLevel.private_window`) and finishes a
    missed probe with :meth:`miss`, so each access looks its line up once;
    :meth:`access` is the same probe followed by the same miss body.

    Recency is the cache's own: every hit and fill stamps the block's
    ``last_use`` with the access tick, and the policy only reads it when
    it picks a victim.

    Sets are allocated on first touch: an 8 MB L3 has ~130k blocks and a
    small run touches a fraction of them. A new set is ``[EMPTY] * ways``,
    every way the one shared, never-mutated invalid :data:`EMPTY` block,
    and every fill installs a fresh :class:`CacheBlock` in its way
    (:meth:`_install`). Only valid blocks are ever mutated in place.
    """

    def __init__(
        self,
        config: CacheConfig,
        frequency: Frequency,
        next_level: Optional[MemoryLevel] = None,
        policy: Optional[ReplacementPolicy] = None,
        prefetcher: "Optional[NextLinePrefetcher]" = None,
    ) -> None:
        self.config = config
        self.name = config.name
        self.frequency = frequency
        self.next_level = next_level
        self.policy = policy or LRUPolicy()
        self.prefetcher = prefetcher
        total_sets = config.num_sets * config.tiles
        #: Per-set block arrays; ``None`` until the set is first touched.
        self._sets: "List[Optional[List[CacheBlock]]]" = [None] * total_sets
        #: Line number -> block, for every *valid* block (one-get lookup).
        self._block_of: Dict[int, CacheBlock] = {}
        self._ways = config.ways
        self._num_sets = total_sets
        self._line = config.line_bytes
        self._line_mask = ~(config.line_bytes - 1)
        self._allocate_writes = config.write_allocate
        self._writes_back = config.write_back
        self._mshr = MSHRFile(config.mshr_entries)
        self._tick = 0
        self._hit_latency = frequency.cycles_to_seconds(config.latency)
        #: Declared metrics — the uniform stats surface of this level.
        self.metrics = MetricRegistry(f"cache.{self.name}")
        self._hits = self.metrics.counter(
            "hits", unit="accesses", description="demand accesses hitting this level"
        )
        self._misses = self.metrics.counter(
            "misses", unit="accesses", description="demand accesses missing this level"
        )
        self._evictions = self.metrics.counter(
            "evictions", unit="lines", description="valid lines displaced by fills"
        )
        self._writebacks = self.metrics.counter(
            "writebacks", unit="lines", description="dirty lines written back below"
        )
        self._bypasses = self.metrics.counter(
            "bypasses", unit="fills", description="fills rejected by the policy"
        )
        self._invalidations = self.metrics.counter(
            "invalidations", unit="lines", description="coherence invalidations"
        )
        self._flushes = self.metrics.counter(
            "flushes", unit="events", description="whole-cache flush operations"
        )

    # -- geometry ---------------------------------------------------------

    @property
    def hit_latency(self) -> float:
        """Hit latency in seconds."""
        return self._hit_latency

    def _write_back(self, index: int, block: CacheBlock) -> None:
        """Send a dirty line's write-back traffic into the next level.

        Off the critical path (the returned latency is discarded), but the
        traffic must flow so lower-level byte/access statistics see it —
        software-coherence flushes otherwise under-report.
        """
        self._writebacks.inc()
        if self.next_level is None:
            return
        addr = (block.tag * self._num_sets + index) * self._line
        self.next_level.access(addr, True)

    # -- the MemoryLevel interface ----------------------------------------

    def access(
        self, addr: int, is_write: bool = False, issue_time: float = 0.0, explicit: bool = False
    ) -> float:
        """Service one access; recurse into the next level on a miss.

        One :meth:`private_hit` probe, then on a miss :meth:`miss`.
        """
        latency = self.private_hit(addr, is_write, explicit)
        if latency is not None:
            return latency
        return self.miss(addr, is_write, issue_time, explicit)

    def private_window(self) -> "Tuple[int, Probe]":
        """Every address may be probed: a cache's hits are its own."""
        return WHOLE_WINDOW, self.private_hit

    def private_hit(
        self, addr: int, is_write: bool, explicit: bool = False
    ) -> Optional[float]:
        """Serve a hit in this cache, or change nothing and return ``None``.

        The one hit body, shared by :meth:`access`. A hit touches only this
        cache's tick, the block's bits, the hit counter and the prefetcher,
        all plain ints and attributes, which is what keeps the core loops
        cheap.
        """
        block = self._block_of.get(addr // self._line)
        if block is None:
            return None
        tick = self._tick = self._tick + 1
        self._hits.value += 1
        if block.prefetched:
            block.prefetched = False
            if self.prefetcher is not None:
                self.prefetcher.record_useful()
        if is_write:
            block.dirty = True
        if explicit:
            block.explicit = True
        block.last_use = tick
        return self._hit_latency

    def miss(
        self, addr: int, is_write: bool = False, issue_time: float = 0.0, explicit: bool = False
    ) -> float:
        """Finish an access whose :meth:`private_hit` probe just returned
        ``None``, without looking the line up a second time: the demand-miss
        path of MSHR merge, fetch from below, fill and prefetch."""
        self._tick += 1
        if addr < 0:
            raise SimulationError(f"negative address {addr:#x}")
        self._misses.value += 1
        # Merged miss? Pay only the residual fill time.
        line_addr = addr & self._line_mask
        merged = self._mshr.lookup(line_addr, issue_time)
        if merged is not None:
            return self._hit_latency + merged

        if self.next_level is None:
            raise SimulationError(f"{self.name}: miss with no next level")
        latency = self._hit_latency + self.next_level.access(
            addr, is_write, issue_time + self._hit_latency, explicit
        )
        self._mshr.allocate(line_addr, issue_time, latency)
        if self._allocate_writes or not is_write:
            self._install(addr // self._line, explicit, False, is_write)
        if self.prefetcher is not None:
            self._issue_prefetches(line_addr, issue_time)
        return latency

    def _issue_prefetches(self, miss_line_addr: int, issue_time: float) -> None:
        """Install the prefetcher's chosen lines off the critical path.

        Prefetch fills fetch through the next level (traffic is counted
        there) but add no latency to the demand request; they insert as
        implicit blocks, so they never displace protected explicit lines.
        """
        for line_addr in self.prefetcher.lines_to_prefetch(
            miss_line_addr, self._line
        ):
            line = line_addr // self._line
            if line in self._block_of:
                continue
            self.next_level.access(line_addr, False, issue_time)
            self._install(line, explicit=False, prefetched=True)

    def _install(
        self,
        line: int,
        explicit: bool,
        prefetched: bool = False,
        dirty: bool = False,
        write_below: bool = False,
    ) -> None:
        """Put a fresh block for ``line`` into the policy's victim way.

        The one install path of demand fills, prefetch fills and pushes.
        A fill the policy rejects installs nothing (counted as a bypass).
        A dirty victim under write-back is counted in ``writebacks``; only
        ``write_below`` (a push) also sends its data to the next level. A
        fill only counts it, and only when a next level exists (see the
        class docstring).
        """
        num_sets = self._num_sets
        index = line % num_sets
        blocks = self._sets[index]
        if blocks is None:
            blocks = self._sets[index] = [EMPTY] * self._ways
        victim = self.policy.victim(blocks, explicit)
        if victim is None:
            self._bypasses.inc()
            return
        old = blocks[victim]
        block_of = self._block_of
        if old.valid:
            self._evictions.value += 1
            if old.dirty and self._writes_back:
                if write_below:
                    self._write_back(index, old)
                elif self.next_level is not None:
                    self._writebacks.inc()
            del block_of[old.tag * num_sets + index]
        # Positional: (tag, valid, dirty, explicit, prefetched, last_use).
        block = blocks[victim] = CacheBlock(
            line // num_sets, True, dirty, explicit, prefetched, self._tick
        )
        block_of[line] = block

    # -- explicit locality management --------------------------------------

    def push_line(self, addr: int) -> None:
        """Explicitly place the line containing ``addr`` (the §II-B ``push``).

        The line is installed with its locality bit set, without charging a
        demand-miss latency (push is a hint executed off the critical path).
        """
        self._tick += 1
        block = self.block_for(addr)
        if block is not None:
            block.explicit = True
            block.last_use = self._tick
            return
        self._install(addr // self._line, explicit=True, write_below=True)

    def contains(self, addr: int) -> bool:
        """Whether the line holding ``addr`` is resident."""
        return addr // self._line in self._block_of

    def block_for(self, addr: int) -> Optional[CacheBlock]:
        """The resident block holding ``addr``, or ``None``: one ``get``
        in the ``line -> block`` map."""
        return self._block_of.get(addr // self._line)

    def is_explicit(self, addr: int) -> bool:
        """Whether the resident line holding ``addr`` carries the locality bit."""
        block = self.block_for(addr)
        return block is not None and block.explicit

    def invalidate_line(self, addr: int) -> bool:
        """Invalidate one line (coherence); returns True if it was present."""
        block = self._block_of.pop(addr // self._line, None)
        if block is None:
            return False
        block.invalidate()
        self._invalidations.inc()
        return True

    def flush(self) -> int:
        """Write back and invalidate everything (software coherence).

        Returns the number of dirty lines written back.
        """
        dirty = 0
        for index, blocks in enumerate(self._sets):
            if blocks is None:
                continue
            for block in blocks:
                if block.valid:
                    if block.dirty:
                        dirty += 1
                        self._write_back(index, block)
                    block.invalidate()
        self._block_of.clear()
        self._flushes.inc()
        return dirty

    # -- statistics ---------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @property
    def writebacks(self) -> int:
        return self._writebacks.value

    @property
    def bypasses(self) -> int:
        return self._bypasses.value

    @property
    def invalidations(self) -> int:
        return self._invalidations.value

    @property
    def flushes(self) -> int:
        return self._flushes.value

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def stats(self) -> Dict[str, int]:
        data = self.metrics.as_dict()
        data.update(self._mshr.stats())
        if self.prefetcher is not None:
            data.update(self.prefetcher.stats())
        return data

    def reset_stats(self) -> None:
        self.metrics.reset()
        self._mshr.reset()
        if self.prefetcher is not None:
            self.prefetcher.reset()
