"""Set-associative cache models (L1 per-SM, shared L2).

Purely for statistics (hit/miss counts feed the cycle cost model); data
always comes from the backing store, so the caches cannot cause
incoherence.  The memory-hierarchy extension point mentioned in the
paper's Section 9.4 ("a memory trace collected by SASSI can be used to
drive a memory hierarchy simulator") is exercised by
``examples/memtrace_cachesim.py``, which replays a SASSI-collected trace
through these same models.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = self.evictions = 0


class Cache:
    """An LRU set-associative cache of line addresses."""

    def __init__(self, size_bytes: int, line_bytes: int = 32,
                 ways: int = 4, name: str = "cache",
                 next_level: Optional["Cache"] = None):
        if size_bytes % (line_bytes * ways):
            raise ValueError("cache size must be a multiple of line*ways")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        self.name = name
        self.next_level = next_level
        self.stats = CacheStats()
        self._sets: Dict[int, OrderedDict] = {}

    def access(self, line_addr: int) -> bool:
        """Access one line address; returns True on hit.  Misses are
        forwarded to the next level (if any)."""
        line = line_addr // self.line_bytes
        return self._access_line(line % self.num_sets,
                                 line // self.num_sets, line_addr)

    def _access_line(self, index: int, tag: int, line_addr: int) -> bool:
        """One access, for callers with one line at a time; the same
        LRU moves as :meth:`_lookup` (which batches them without a call
        per line), plus the forwarding of a miss."""
        self.stats.accesses += 1
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = OrderedDict()
        elif tag in ways:
            ways.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if self.next_level is not None:
            self.next_level.access(line_addr)
        ways[tag] = True
        if len(ways) > self.ways:
            ways.popitem(last=False)
            self.stats.evictions += 1
        return False

    def _lookup(self, indices: List[int], tags: List[int]) -> List[bool]:
        """Touch blocks ``(set index, tag)`` in order under LRU; per
        block, whether it hit.  Only this level's state and stats move;
        the caller forwards the misses."""
        sets = self._sets
        ways_max = self.ways
        hits: List[bool] = []
        evictions = 0
        for index, tag in zip(indices, tags):
            ways = sets.get(index)
            if ways is None:
                ways = sets[index] = OrderedDict()
            elif tag in ways:
                ways.move_to_end(tag)
                hits.append(True)
                continue
            hits.append(False)
            ways[tag] = True
            if len(ways) > ways_max:
                ways.popitem(last=False)
                evictions += 1
        stats = self.stats
        count = hits.count(True)
        stats.accesses += len(hits)
        stats.hits += count
        stats.misses += len(hits) - count
        stats.evictions += evictions
        return hits

    def access_lines(self, line_addresses: Sequence[int]) -> int:
        """Access a whole transaction vector (in order); returns the
        number of misses at this level.

        Equivalent to ``sum(not self.access(a) for a in line_addresses)``
        — stats (including next-level forwarding and LRU state) are
        identical to the one-at-a-time loop.
        """
        if len(line_addresses) == 0:
            return 0
        return int(np.count_nonzero(self.miss_depths(
            np.asarray(line_addresses, dtype=np.int64))))

    def miss_depths(self, lines: np.ndarray) -> np.ndarray:
        """Access *lines* (an int64 or object ndarray) in order; per
        line, how many levels it missed (0 = hit here, 1 = hit one
        level down, ...).  Each level sees its lines in one batch: the
        misses reach the next level in the order they happened, which
        is all its state depends on."""
        blocks = lines // self.line_bytes
        missed = ~np.array(self._lookup((blocks % self.num_sets).tolist(),
                                        (blocks // self.num_sets).tolist()),
                           dtype=bool)
        depths = missed.astype(np.int64)
        if self.next_level is not None and missed.any():
            depths[missed] += self.next_level.miss_depths(lines[missed])
        return depths

    def reset(self) -> None:
        self.stats.reset()
        self._sets.clear()

    def invalidate(self) -> None:
        """Drop cached lines (cumulative stats survive), recursively
        through the hierarchy — the kernel-launch-boundary flush: every
        launch starts cold, so launch-partitioned replays of one trace
        grade accesses identically to a single streaming pass."""
        self._sets.clear()
        if self.next_level is not None:
            self.next_level.invalidate()


def kepler_hierarchy() -> Cache:
    """A K10-flavoured hierarchy: 16 KiB 4-way L1 over 512 KiB 16-way L2
    (sized down with the scaled workloads)."""
    l2 = Cache(512 << 10, ways=16, name="L2")
    return Cache(16 << 10, ways=4, name="L1", next_level=l2)
