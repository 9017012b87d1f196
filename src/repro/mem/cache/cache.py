"""The set-associative cache model."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.config.system import CacheConfig
from repro.mem.cache.block import CacheBlock
from repro.mem.cache.mshr import MSHRFile
from repro.mem.cache.prefetch import NextLinePrefetcher
from repro.mem.cache.replacement import LRUPolicy, ReplacementPolicy
from repro.mem.level import MemoryLevel
from repro.obs.metrics import MetricRegistry
from repro.units import Frequency

__all__ = ["Cache"]


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

    Lookup is O(1): alongside the per-set block arrays the cache keeps a
    per-set ``tag -> way`` dict (``_tags``), maintained at every fill and
    invalidation. The invariant is that ``_tags[index]`` maps exactly the
    valid blocks of set ``index``.
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
        #: Sets are allocated lazily on first touch: an 8 MB L3 has ~130k
        #: blocks, and small runs touch a fraction of them — eager
        #: allocation would dominate machine-build time.
        self._sets: "List[Optional[List[CacheBlock]]]" = [None] * total_sets
        #: Per-set tag -> way index of every *valid* block (O(1) lookup).
        self._tags: List[Dict[int, int]] = [{} for _ in range(total_sets)]
        self._ways = config.ways
        self._num_sets = total_sets
        self._line = config.line_bytes
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
        # Bound methods hoisted for the access fast path.
        self._hits_inc = self._hits.inc
        self._misses_inc = self._misses.inc

    # -- geometry ---------------------------------------------------------

    def _index_tag(self, addr: int) -> "tuple[int, int]":
        line = addr // self._line
        return line % self._num_sets, line // self._num_sets

    def _find(self, index: int, tag: int) -> Optional[int]:
        return self._tags[index].get(tag)

    def _blocks(self, index: int) -> List[CacheBlock]:
        """The block array of set ``index``, allocating it on first touch."""
        blocks = self._sets[index]
        if blocks is None:
            blocks = self._sets[index] = [CacheBlock() for _ in range(self._ways)]
        return blocks

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

        A hit touches only plain ints and dicts, which is what keeps the
        compiled core loops cheap.
        """
        self._tick += 1
        line = addr // self._line
        index = line % self._num_sets
        tag = line // self._num_sets
        way = self._tags[index].get(tag)
        if way is None:
            return self._miss(addr, is_write, issue_time, explicit, index, tag)
        self._hits_inc()
        blocks = self._sets[index]
        block = blocks[way]
        if block.prefetched:
            block.prefetched = False
            if self.prefetcher is not None:
                self.prefetcher.record_useful()
        if is_write:
            block.dirty = True
        if explicit:
            block.explicit = True
        self.policy.on_access(blocks, way, self._tick)
        return self._hit_latency

    def _miss(
        self, addr: int, is_write: bool, issue_time: float, explicit: bool, index: int, tag: int
    ) -> float:
        """Demand-miss path: MSHR merge, fetch from below, fill, prefetch."""
        if addr < 0:
            raise SimulationError(f"negative address {addr:#x}")
        self._misses_inc()
        # Merged miss? Pay only the residual fill time.
        line_addr = addr & ~(self._line - 1)
        merged = self._mshr.lookup(line_addr, issue_time)
        if merged is not None:
            return self._hit_latency + merged

        if self.next_level is None:
            raise SimulationError(f"{self.name}: miss with no next level")
        latency = self._hit_latency + self.next_level.access(
            addr, is_write, issue_time + self._hit_latency, explicit
        )
        self._mshr.allocate(line_addr, issue_time, latency)
        self._fill(index, tag, is_write, explicit)
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
            index, tag = self._index_tag(line_addr)
            tags = self._tags[index]
            if tag in tags:
                continue
            if self.next_level is not None:
                self.next_level.access(line_addr, False, issue_time)
            blocks = self._blocks(index)
            victim = self.policy.victim(blocks, False)
            if victim is None:
                self._bypasses.inc()
                continue
            block = blocks[victim]
            if block.valid:
                self._evictions.inc()
                if block.dirty and self.config.write_back:
                    self._writebacks.inc()
                del tags[block.tag]
            block.fill(tag, self._tick, explicit=False, prefetched=True)
            tags[tag] = victim

    def _fill(self, index: int, tag: int, is_write: bool, explicit: bool) -> None:
        """Install the fetched line, honouring the replacement policy."""
        if not self.config.write_allocate and is_write:
            return
        blocks = self._blocks(index)
        victim = self.policy.victim(blocks, explicit)
        if victim is None:
            self._bypasses.inc()
            return
        block = blocks[victim]
        tags = self._tags[index]
        if block.valid:
            self._evictions.inc()
            if block.dirty and self.config.write_back and self.next_level is not None:
                self._writebacks.inc()
            del tags[block.tag]
        block.fill(tag, self._tick, explicit)
        tags[tag] = victim
        if is_write:
            block.dirty = True
        self.policy.on_access(blocks, victim, self._tick)

    # -- explicit locality management --------------------------------------

    def push_line(self, addr: int) -> None:
        """Explicitly place the line containing ``addr`` (the §II-B ``push``).

        The line is installed with its locality bit set, without charging a
        demand-miss latency (push is a hint executed off the critical path).
        """
        self._tick += 1
        index, tag = self._index_tag(addr)
        tags = self._tags[index]
        way = tags.get(tag)
        blocks = self._blocks(index)
        if way is not None:
            blocks[way].explicit = True
            self.policy.on_access(blocks, way, self._tick)
            return
        victim = self.policy.victim(blocks, True)
        if victim is None:
            self._bypasses.inc()
            return
        block = blocks[victim]
        if block.valid:
            self._evictions.inc()
            if block.dirty and self.config.write_back:
                self._write_back(index, block)
            del tags[block.tag]
        block.fill(tag, self._tick, explicit=True)
        tags[tag] = victim

    def contains(self, addr: int) -> bool:
        """Whether the line holding ``addr`` is resident."""
        index, tag = self._index_tag(addr)
        return tag in self._tags[index]

    def block_for(self, addr: int) -> Optional[CacheBlock]:
        """The resident block holding ``addr``, or ``None``.

        A read-only lookup for the coherence layer: the protocol package
        mirrors its per-line MESI state onto the block it returns (block
        state mutation itself is confined to ``repro.mem.coherence``,
        lint rule L004).
        """
        index, tag = self._index_tag(addr)
        way = self._tags[index].get(tag)
        if way is None:
            return None
        return self._sets[index][way]

    def is_explicit(self, addr: int) -> bool:
        """Whether the resident line holding ``addr`` carries the locality bit."""
        index, tag = self._index_tag(addr)
        way = self._tags[index].get(tag)
        return way is not None and self._sets[index][way].explicit

    def invalidate_line(self, addr: int) -> bool:
        """Invalidate one line (coherence); returns True if it was present."""
        index, tag = self._index_tag(addr)
        way = self._tags[index].get(tag)
        if way is None:
            return False
        self._sets[index][way].invalidate()
        del self._tags[index][tag]
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
            self._tags[index].clear()
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
