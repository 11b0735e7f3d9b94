"""Hardware page-table walker.

On an L2 TLB miss the walker probes the MMU paging-structure caches, then
reads the remaining page-table levels from memory.  The paper's energy
model charges each of those memory references one L1-data-cache read
(optimistically assuming all walk references hit the L1 cache; Figure 3
explores relaxing that assumption, which :mod:`repro.energy.model` exposes
as the *walk locality* knob).  The cycle model charges a flat 50 cycles
per walk regardless of the reference count (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from .mmu_cache import MMUCache
from .page_table import PageTable
from .translation import WALK_LEVELS, Translation


@dataclass(slots=True)
class WalkerStats:
    """Aggregate walker activity over a measurement window."""

    walks: int = 0
    memory_refs: int = 0

    def record_walk(self, memory_refs: int) -> None:
        """Count one completed walk and its memory references."""
        self.walks += 1
        self.memory_refs += memory_refs

    def reset(self) -> None:
        self.walks = 0
        self.memory_refs = 0

    def snapshot(self) -> "WalkerStats":
        return WalkerStats(self.walks, self.memory_refs)

    def state_dict(self) -> dict:
        """Pure-JSON counters (checkpoint protocol)."""
        return {"walks": self.walks, "memory_refs": self.memory_refs}

    def load_state_dict(self, state: dict) -> None:
        """Restore counters from :meth:`state_dict` output."""
        self.walks = state["walks"]
        self.memory_refs = state["memory_refs"]


class PageWalker:
    """Walks a :class:`PageTable` with MMU-cache acceleration."""

    def __init__(self, page_table: PageTable) -> None:
        self.page_table = page_table
        self.mmu_cache = MMUCache()
        self.stats = WalkerStats()

    def walk(self, vpn4k: int) -> Translation:
        """Translate a 4 KB page via the page table; returns its leaf.

        Raises :class:`repro.mmu.page_table.PageFault` if unmapped.  One
        :meth:`MMUCache.access` probes the paging-structure caches and
        fills the levels they missed.  The walk's memory references,
        ``walk_levels - levels_skipped``, lie in [1, 4] (even a full
        MMU-cache hit must read the leaf entry itself) and are counted
        in :attr:`stats`, the only record of them.  Both drain engines
        walk through here.
        """
        translation = self.page_table.walk(vpn4k)
        size = translation.page_size
        self.stats.record_walk(WALK_LEVELS[size] - self.mmu_cache.access(vpn4k, size))
        return translation

    def state_dict(self) -> dict:
        """Pure-JSON walker state (the MMU caches are checkpointed by the
        hierarchy, which owns them as energy-accounted structures)."""
        return {"stats": self.stats.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        self.stats.load_state_dict(state["stats"])
