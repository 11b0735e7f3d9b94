"""Unit tests for the fully-associative LRU structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tlb.fully_assoc import FullyAssociativeTLB


class TestBasics:
    def test_miss_then_hit(self):
        tlb = FullyAssociativeTLB("t", 4)
        assert tlb.lookup("a") is None
        tlb.fill("a", 1)
        assert tlb.lookup("a") == 1

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            FullyAssociativeTLB("t", 0)

    def test_lru_eviction(self):
        tlb = FullyAssociativeTLB("t", 2)
        tlb.fill("a", 1)
        tlb.fill("b", 2)
        tlb.lookup("a")
        tlb.fill("c", 3)  # evicts b (LRU)
        assert tlb.peek("b") is None
        assert tlb.peek("a") == 1

    def test_fill_refreshes_existing(self):
        tlb = FullyAssociativeTLB("t", 2)
        tlb.fill("a", 1)
        tlb.fill("b", 2)
        tlb.fill("a", 10)
        tlb.fill("c", 3)  # evicts b
        assert tlb.peek("a") == 10
        assert tlb.peek("b") is None

    def test_recency_order(self):
        tlb = FullyAssociativeTLB("t", 3)
        for key in "abc":
            tlb.fill(key, key)
        tlb.lookup("a")
        assert tlb.resident_keys() == ["a", "c", "b"]

    def test_invalidate_and_flush(self):
        tlb = FullyAssociativeTLB("t", 3)
        tlb.fill("a", 1)
        assert tlb.invalidate("a")
        assert not tlb.invalidate("a")
        tlb.fill("b", 2)
        tlb.flush()
        assert tlb.occupancy() == 0

    def test_stats_counting(self):
        tlb = FullyAssociativeTLB("t", 2)
        tlb.lookup("x")
        tlb.fill("x", 1)
        tlb.lookup("x")
        tlb.sync_stats()
        assert tlb.stats.misses == 1
        assert tlb.stats.hits == 1
        assert tlb.stats.lookups_by_ways == {2: 2}
        assert tlb.stats.fills_by_ways == {2: 1}


class TestResizing:
    def test_shrink_drops_lru(self):
        tlb = FullyAssociativeTLB("t", 4)
        for key in "abcd":
            tlb.fill(key, key)
        tlb.set_active_units(2)
        assert tlb.resident_keys() == ["d", "c"]

    def test_grow_restores_capacity_without_stale(self):
        tlb = FullyAssociativeTLB("t", 4)
        for key in "abcd":
            tlb.fill(key, key)
        tlb.set_active_units(1)
        tlb.set_active_units(4)
        assert tlb.resident_keys() == ["d"]
        for key in "wxyz":
            tlb.fill(key, key)
        assert tlb.occupancy() == 4

    def test_out_of_range_rejected(self):
        tlb = FullyAssociativeTLB("t", 4)
        with pytest.raises(ValueError):
            tlb.set_active_units(0)
        with pytest.raises(ValueError):
            tlb.set_active_units(5)

    def test_lookups_histogrammed_by_capacity(self):
        tlb = FullyAssociativeTLB("t", 4)
        tlb.lookup("a")
        tlb.set_active_units(2)
        tlb.lookup("a")
        tlb.sync_stats()
        assert tlb.stats.lookups_by_ways == {4: 1, 2: 1}

    def test_rank_counters(self):
        tlb = FullyAssociativeTLB("t", 8)
        counters = [0] * 4
        tlb.hit_rank_counters = counters
        for key in range(8):
            tlb.fill(key, key)
        tlb.lookup(7)  # rank 0
        tlb.lookup(0)  # rank 7 -> group 3
        assert counters == [1, 0, 0, 1]


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=200),
    entries=st.integers(min_value=1, max_value=8),
)
def test_matches_reference_lru_stack(keys, entries):
    tlb = FullyAssociativeTLB("t", entries)
    stack: list[int] = []
    for key in keys:
        expect_hit = key in stack
        assert (tlb.lookup(key) is not None) == expect_hit
        if expect_hit:
            stack.remove(key)
        else:
            tlb.fill(key, key)
        stack.insert(0, key)
        del stack[entries:]
    assert tlb.resident_keys() == stack
