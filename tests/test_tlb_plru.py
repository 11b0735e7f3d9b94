"""Unit tests for the tree-PLRU ablation TLB."""

import pytest

from repro.tlb.replacement import PLRUSetAssociativeTLB


class TestPLRU:
    def test_basic_hit_miss(self):
        tlb = PLRUSetAssociativeTLB("p", 16, 4)
        assert tlb.lookup(3) is None
        tlb.fill(3, "v")
        assert tlb.lookup(3) == "v"

    def test_capacity(self):
        tlb = PLRUSetAssociativeTLB("p", 16, 4)
        for key in range(0, 64, 4):  # all set 0
            tlb.fill(key, key)
        assert tlb.occupancy() == 4

    def test_victim_prefers_invalid_slot(self):
        tlb = PLRUSetAssociativeTLB("p", 16, 4)
        tlb.fill(0, 0)
        tlb.fill(4, 4)
        assert tlb.peek(0) is not None
        assert tlb.occupancy() == 2  # no eviction while slots free

    def test_recently_touched_way_survives(self):
        tlb = PLRUSetAssociativeTLB("p", 16, 4)
        for key in (0, 4, 8, 12):
            tlb.fill(key, key)
        tlb.lookup(0)  # tree now points away from 0's way
        tlb.fill(16, 16)
        assert tlb.lookup(0) == 0  # 0 not the victim right after touch

    def test_fill_existing_updates_value(self):
        tlb = PLRUSetAssociativeTLB("p", 16, 4)
        tlb.fill(0, "a")
        tlb.fill(0, "b")
        assert tlb.lookup(0) == "b"
        assert tlb.occupancy() == 1

    def test_invalidate(self):
        tlb = PLRUSetAssociativeTLB("p", 16, 4)
        tlb.fill(0, "a")
        assert tlb.invalidate(0)
        assert not tlb.invalidate(0)

    def test_flush(self):
        tlb = PLRUSetAssociativeTLB("p", 16, 4)
        for key in range(8):
            tlb.fill(key, key)
        tlb.flush()
        assert tlb.occupancy() == 0

    def test_way_disabling_restricts_and_invalidates(self):
        tlb = PLRUSetAssociativeTLB("p", 16, 4)
        for key in range(0, 16, 4):
            tlb.fill(key, key)
        tlb.set_active_units(2)
        assert tlb.occupancy() <= 2 * 4
        # After downsize, fills stay within 2 ways per set.
        for key in range(0, 64, 4):
            tlb.fill(key, key)
        assert sum(1 for pair in tlb._slots[0] if pair is not None) == 2

    def test_upsize_no_stale(self):
        tlb = PLRUSetAssociativeTLB("p", 16, 4)
        for key in (0, 4, 8, 12):
            tlb.fill(key, key)
        tlb.set_active_units(1)
        tlb.set_active_units(4)
        assert tlb.occupancy() <= 4

    def test_invalid_ways_rejected(self):
        tlb = PLRUSetAssociativeTLB("p", 16, 4)
        with pytest.raises(ValueError):
            tlb.set_active_units(3)
        with pytest.raises(ValueError):
            tlb.set_active_units(8)

    def test_stats(self):
        tlb = PLRUSetAssociativeTLB("p", 16, 4)
        tlb.lookup(1)
        tlb.fill(1, 1)
        tlb.lookup(1)
        tlb.sync_stats()
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 1
        assert tlb.stats.lookups_by_ways == {4: 2}

    def test_hit_ratio_reasonable_vs_lru(self):
        """PLRU approximates LRU: same hot-set workload, similar hit ratio."""
        from repro.tlb.set_assoc import SetAssociativeTLB
        import random

        rnd = random.Random(3)
        keys = [rnd.randrange(24) for _ in range(4000)]
        plru = PLRUSetAssociativeTLB("p", 16, 4)
        lru = SetAssociativeTLB("l", 16, 4)
        for key in keys:
            if plru.lookup(key) is None:
                plru.fill(key, key)
            if lru.lookup(key) is None:
                lru.fill(key, key)
        plru.sync_stats()
        lru.sync_stats()
        assert abs(plru.stats.hit_ratio - lru.stats.hit_ratio) < 0.1
