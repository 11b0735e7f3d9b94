"""Unit tests for the page walker: reference counts with MMU-cache help."""

import pytest

from repro.mmu.page_table import PageFault, PageTable
from repro.mmu.translation import PAGES_PER_2MB, PageSize, Translation
from repro.mmu.walker import PageWalker


def make_walker():
    pt = PageTable()
    pt.map(Translation(0, 1000, PageSize.SIZE_4KB))
    pt.map(Translation(1, 1001, PageSize.SIZE_4KB))
    pt.map(Translation(PAGES_PER_2MB, 2048, PageSize.SIZE_2MB))
    big = PageSize.SIZE_1GB
    pt.map(Translation(int(big), 0, big))
    return PageWalker(pt)


def walk_refs(walker, vpn):
    """Memory references one walk charged, read off the walker's stats."""
    before = walker.stats.memory_refs
    walker.walk(vpn)
    return walker.stats.memory_refs - before


class TestWalkRefs:
    def test_cold_4kb_walk_costs_four_refs(self):
        walker = make_walker()
        assert walker.walk(0).pfn == 1000
        assert walker.stats.memory_refs == 4  # no level skipped

    def test_warm_4kb_walk_costs_one_ref(self):
        walker = make_walker()
        walker.walk(0)  # fills PDE cache
        assert walk_refs(walker, 1) == 1  # three levels skipped

    def test_cold_2mb_walk_costs_three_refs(self):
        walker = make_walker()
        assert walker.walk(PAGES_PER_2MB + 5).page_size is PageSize.SIZE_2MB
        assert walker.stats.memory_refs == 3

    def test_warm_2mb_walk_costs_one_ref(self):
        walker = make_walker()
        walker.walk(PAGES_PER_2MB)  # fills PDPTE+PML4
        assert walk_refs(walker, PAGES_PER_2MB + 1) == 1

    def test_cold_1gb_walk_costs_two_refs(self):
        walker = make_walker()
        big = int(PageSize.SIZE_1GB)
        assert walk_refs(walker, big) == 2

    def test_warm_1gb_walk_costs_one_ref(self):
        walker = make_walker()
        big = int(PageSize.SIZE_1GB)
        walker.walk(big)
        assert walk_refs(walker, big + 777) == 1

    def test_4kb_after_2mb_in_same_pdpt_costs_two(self):
        walker = make_walker()
        walker.walk(PAGES_PER_2MB)  # 2MB walk fills PDPTE
        # vpn 0 shares the PDPTE but its PDE is not cached yet.
        assert walk_refs(walker, 0) == 2

    def test_page_fault_propagates(self):
        walker = make_walker()
        with pytest.raises(PageFault):
            walker.walk(999_999_999)


class TestWalkerStats:
    def test_counts_accumulate(self):
        walker = make_walker()
        walker.walk(0)
        walker.walk(1)
        assert walker.stats.walks == 2
        assert walker.stats.memory_refs == 5  # 4 + 1

    def test_reset(self):
        walker = make_walker()
        walker.walk(0)
        walker.stats.reset()
        assert walker.stats.walks == 0
        assert walker.stats.memory_refs == 0

    def test_snapshot_is_independent(self):
        walker = make_walker()
        walker.walk(0)
        snap = walker.stats.snapshot()
        walker.walk(1)
        assert snap.walks == 1
        assert walker.stats.walks == 2

    def test_refs_always_at_least_one(self):
        walker = make_walker()
        for _ in range(5):
            assert walk_refs(walker, 0) >= 1
