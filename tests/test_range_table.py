"""Unit and property tests for the software range table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.range_table import BTREE_FANOUT, RangeTable, RangeTableError
from repro.mmu.translation import RangeTranslation


def rng(base, limit):
    return RangeTranslation(base, limit, base + 10_000)


class TestInsertLookup:
    def test_lookup_hit_and_miss(self):
        table = RangeTable()
        table.insert(rng(100, 200))
        assert table.lookup(150).base_vpn == 100
        assert table.lookup(200) is None
        assert table.lookup(99) is None

    def test_overlap_rejected(self):
        table = RangeTable()
        table.insert(rng(100, 200))
        with pytest.raises(RangeTableError):
            table.insert(rng(150, 250))
        with pytest.raises(RangeTableError):
            table.insert(rng(50, 101))

    def test_adjacent_allowed(self):
        table = RangeTable()
        table.insert(rng(100, 200))
        table.insert(rng(200, 300))
        assert len(table) == 2

    def test_remove(self):
        table = RangeTable()
        entry = rng(100, 200)
        table.insert(entry)
        table.remove(entry)
        assert table.lookup(150) is None
        with pytest.raises(RangeTableError):
            table.remove(entry)

    def test_iteration_sorted(self):
        table = RangeTable()
        table.insert(rng(500, 600))
        table.insert(rng(100, 200))
        assert [r.base_vpn for r in table] == [100, 500]

    def test_total_pages(self):
        table = RangeTable()
        table.insert(rng(0, 10))
        table.insert(rng(20, 25))
        assert table.total_pages() == 15


class TestWalkCost:
    def test_empty_and_single_cost_one(self):
        table = RangeTable()
        assert table.walk_memory_refs() == 1
        table.insert(rng(0, 10))
        assert table.walk_memory_refs() == 1

    def test_cost_grows_logarithmically(self):
        table = RangeTable()
        for index in range(BTREE_FANOUT**2):
            table.insert(rng(index * 100, index * 100 + 10))
        assert table.walk_memory_refs() == 3  # 1 + ceil(log_4(16))

    def test_cost_monotone_in_size(self):
        table = RangeTable()
        last = 0
        for index in range(64):
            table.insert(rng(index * 100, index * 100 + 10))
            cost = table.walk_memory_refs()
            assert cost >= last
            last = cost


@settings(max_examples=50, deadline=None)
@given(
    # An overlap takes two spans; an empty query list would check nothing.
    spans=st.lists(
        st.tuples(st.integers(0, 50), st.integers(1, 8)), min_size=2, max_size=25
    ),
    queries=st.lists(st.integers(0, 600), min_size=1, max_size=50),
)
def test_lookup_matches_bruteforce(spans, queries):
    """Binary-search lookup agrees with a linear scan, overlaps rejected."""
    table = RangeTable()
    accepted: list[RangeTranslation] = []
    for slot, length in spans:
        candidate = rng(slot * 10, slot * 10 + length)
        try:
            table.insert(candidate)
            accepted.append(candidate)
        except RangeTableError:
            assert any(candidate.overlaps(existing) for existing in accepted)
    for query in queries:
        expected = next((r for r in accepted if r.covers(query)), None)
        assert table.lookup(query) == expected
