"""MMU substrate: translation types, radix page table, MMU caches, walker."""

from .mmu_cache import MMUCache, MMUCacheConfig
from .page_table import PageFault, PageTable, PageTableNode
from .translation import (
    PAGES_PER_1GB,
    PAGES_PER_2MB,
    PageSize,
    RangeTranslation,
    Translation,
)
from .walker import PageWalker, WalkerStats

__all__ = [
    "PageSize",
    "Translation",
    "RangeTranslation",
    "PAGES_PER_2MB",
    "PAGES_PER_1GB",
    "PageTable",
    "PageTableNode",
    "PageFault",
    "MMUCache",
    "MMUCacheConfig",
    "PageWalker",
    "WalkerStats",
]
