"""Range TLB: fully-associative cache of RMM range translations.

A range TLB entry maps an *arbitrarily large* contiguous virtual interval
onto a contiguous physical interval (see
:class:`repro.mmu.translation.RangeTranslation`).  A lookup therefore
performs a *double comparison* per entry — ``base <= vpn < limit`` —
instead of the single tag-equality check of a page TLB, which is why the
paper models its dynamic energy as a fully-associative page TLB with twice
the tag bits (Section 5, Table 2).

The paper uses two instances:

* the **L2-range TLB** (32 entries, from the original RMM design), probed
  in parallel with the L2-page TLB after an L1 miss, and
* the **L1-range TLB** introduced by RMM_Lite (4 entries), probed in
  parallel with the L1-page TLBs on *every* memory operation.

Replacement is true LRU over the entries, like the page TLBs: the
recency stack, its Lite resizing, statistics and snapshot are
:class:`repro.tlb.fully_assoc.RecencyStackTLB`'s.
"""

from __future__ import annotations

from typing import Optional

from ..mmu.translation import RangeTranslation
from .fully_assoc import RecencyStackTLB


class RangeTLB(RecencyStackTLB):
    """Fully-associative TLB whose entries hit by interval containment.

    Each stack entry is a :class:`RangeTranslation`.
    """

    __slots__ = ()

    def lookup(self, vpn4k: int) -> Optional[RangeTranslation]:
        """Probe for a range containing ``vpn4k``; None on a miss.

        The walk counts ranks itself rather than through ``enumerate``,
        which would build a tuple per entry on every access.
        """
        stack = self._stack
        rank = 0
        for rng in stack:
            if rng.base_vpn <= vpn4k < rng.limit_vpn:
                self._pending_hits += 1
                counters = self.hit_rank_counters
                if counters is not None:
                    counters[rank.bit_length()] += 1
                if rank:
                    del stack[rank]
                    stack.insert(0, rng)
                return rng
            rank += 1
        self._pending_misses += 1
        return None

    def peek(self, vpn4k: int) -> Optional[RangeTranslation]:
        """Containment check without LRU/statistics side effects."""
        for rng in self._stack:
            if rng.base_vpn <= vpn4k < rng.limit_vpn:
                return rng
        return None

    def fill(self, rng: RangeTranslation) -> None:
        """Insert a range translation at the MRU position.

        Any cached range overlapping the new one is invalidated first:
        overlapping entries would make hits ambiguous, and the OS range
        table never contains overlaps, so a stale overlap means the
        mapping changed.
        """
        self._pending_fills += 1
        stack = self._stack
        # Fills run per range-TLB miss, not per access; overlap eviction
        # is a miss-path cost.
        stack[:] = [r for r in stack if not r.overlaps(rng)]  # reprolint: disable=RL003
        stack.insert(0, rng)
        if len(stack) > self.active_entries:
            stack.pop()

    def invalidate_overlap(self, rng: RangeTranslation) -> int:
        """Drop all cached ranges overlapping ``rng``; returns count dropped."""
        before = len(self._stack)
        self._stack[:] = [r for r in self._stack if not r.overlaps(rng)]
        return before - len(self._stack)

    def resident_ranges(self) -> list[RangeTranslation]:
        """Ranges in recency order (MRU first); for tests."""
        return list(self._stack)
