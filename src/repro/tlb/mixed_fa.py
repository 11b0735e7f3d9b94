"""Fully-associative mixed-page-size L1 TLB (SPARC / AMD style).

Section 4.4 of the paper: instead of separate set-associative L1 TLBs per
page size (Intel), some processors use a single fully-associative L1 TLB
whose entries each carry a page-size mask, so one CAM search matches 4 KB
and huge-page entries alike.  "The same Lite mechanism applies ... Lite
clusters the distance of TLB hits from the LRU position as if there were
ways, and reduces the TLB size in powers-of-two."

Entries here are :class:`repro.mmu.translation.Translation` objects; a
lookup hits when any entry *covers* the probed 4 KB page (the CAM's
masked compare).  Replacement is true LRU over the recency stack of
:class:`repro.tlb.fully_assoc.RecencyStackTLB`, which also provides the
statistics, the snapshot and ``set_active_units``, through which Lite
resizes the structure.
"""

from __future__ import annotations

from typing import Optional

from ..mmu.translation import Translation
from .fully_assoc import RecencyStackTLB


class MixedFullyAssociativeTLB(RecencyStackTLB):
    """Single fully-associative TLB holding translations of every size.

    Each stack entry is a :class:`Translation`.
    """

    def lookup(self, vpn4k: int) -> Optional[Translation]:
        """Masked CAM search: hit if any entry covers the 4 KB page."""
        stack = self._stack
        for rank, entry in enumerate(stack):
            if entry.vpn <= vpn4k < entry.vpn + int(entry.page_size):
                self._pending_hits += 1
                counters = self.hit_rank_counters
                if counters is not None:
                    counters[rank.bit_length()] += 1
                if rank:
                    stack.pop(rank)
                    stack.insert(0, entry)
                return entry
        self._pending_misses += 1
        return None

    def peek(self, vpn4k: int) -> Optional[Translation]:
        """Containment check without LRU/statistics side effects."""
        for entry in self._stack:
            if entry.covers(vpn4k):
                return entry
        return None

    def fill(self, translation: Translation) -> None:
        """Insert at MRU; an entry covering the same region is replaced."""
        self._pending_fills += 1
        stack = self._stack
        # Fills run per L1 miss, not per access; the overlap filter is a
        # miss-path cost the paper's CAM also pays on writes.
        stack[:] = [  # reprolint: disable=RL003
            entry
            for entry in stack
            if not (
                entry.vpn < translation.vpn + int(translation.page_size)
                and translation.vpn < entry.vpn + int(entry.page_size)
            )
        ]
        stack.insert(0, translation)
        if len(stack) > self.active_entries:
            stack.pop()

    def invalidate_covering(self, vpn4k: int) -> bool:
        """Remove the entry covering a page (TLB shootdown); True if found."""
        for rank, entry in enumerate(self._stack):
            if entry.covers(vpn4k):
                self._stack.pop(rank)
                return True
        return False
