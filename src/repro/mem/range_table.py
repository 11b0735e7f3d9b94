"""Software-managed range table (RMM).

RMM stores each process's range translations in an OS-managed table that
the hardware range-table walker searches on a range-TLB miss.  The
original design organises it as a B-tree keyed by virtual address; we keep
a sorted array with binary search, which has identical lookup semantics,
and model the *walk cost* (memory references the background hardware walk
performs) as the depth of the equivalent B-tree node path.

Range-table walks happen in the background and add no cycles (Section 5),
but their memory references are charged dynamic energy.
"""

from __future__ import annotations

import bisect
import math

from ..mmu.translation import RangeTranslation

#: Fanout of the modelled B-tree (entries per node), from the RMM design
#: where a node fills a cache line's worth of range records.
BTREE_FANOUT = 4


class RangeTableError(Exception):
    """Raised on overlapping inserts or missing removals."""


class RangeTable:
    """Sorted, non-overlapping collection of range translations."""

    def __init__(self) -> None:
        self._ranges: list[RangeTranslation] = []
        self._starts: list[int] = []

    def __len__(self) -> int:
        return len(self._ranges)

    def __iter__(self):
        return iter(self._ranges)

    def insert(self, rng: RangeTranslation) -> None:
        """Add a range; refuses virtual overlap with an existing range."""
        index = bisect.bisect_left(self._starts, rng.base_vpn)
        for neighbour in self._ranges[max(index - 1, 0) : index + 1]:
            if neighbour.overlaps(rng):
                raise RangeTableError(f"{rng} overlaps existing {neighbour}")
        self._ranges.insert(index, rng)
        self._starts.insert(index, rng.base_vpn)

    def remove(self, rng: RangeTranslation) -> None:
        """Remove a previously inserted range."""
        index = bisect.bisect_left(self._starts, rng.base_vpn)
        if index >= len(self._ranges) or self._ranges[index] != rng:
            raise RangeTableError(f"{rng} not in range table")
        del self._ranges[index]
        del self._starts[index]

    def lookup(self, vpn4k: int) -> RangeTranslation | None:
        """Range containing the page, or ``None`` (binary search)."""
        index = bisect.bisect_right(self._starts, vpn4k) - 1
        if index >= 0:
            rng = self._ranges[index]
            if rng.covers(vpn4k):
                return rng
        return None

    def walk_memory_refs(self) -> int:
        """Memory references of one background range-table walk.

        Modelled as the root-to-leaf node count of a B-tree with fanout
        :data:`BTREE_FANOUT` holding the current number of ranges (at
        least one reference — the walker always reads at least the root).
        """
        count = len(self._ranges)
        if count <= 1:
            return 1
        return 1 + math.ceil(math.log(count, BTREE_FANOUT))

    def total_pages(self) -> int:
        """Pages covered by all ranges (range-reach report)."""
        return sum(rng.num_pages for rng in self._ranges)

    def state_dict(self) -> dict:
        """Pure-JSON ranges in ascending virtual order."""
        return {
            "ranges": [
                [rng.base_vpn, rng.limit_vpn, rng.base_pfn] for rng in self._ranges
            ]
        }
