"""Unit tests for the range TLB (containment hits, LRU, overlap handling)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mmu.translation import RangeTranslation
from repro.tlb.range_tlb import RangeTLB


def rng(base, limit, pfn=None):
    return RangeTranslation(base, limit, pfn if pfn is not None else base + 1000)


class TestContainment:
    def test_hit_inside_range(self):
        tlb = RangeTLB("r", 4)
        tlb.fill(rng(100, 200))
        assert tlb.lookup(100) is not None
        assert tlb.lookup(199) is not None

    def test_limit_is_exclusive(self):
        tlb = RangeTLB("r", 4)
        tlb.fill(rng(100, 200))
        assert tlb.lookup(200) is None
        assert tlb.lookup(99) is None

    def test_translation_offset(self):
        tlb = RangeTLB("r", 4)
        tlb.fill(RangeTranslation(100, 200, 5000))
        entry = tlb.lookup(150)
        assert entry.translate(150) == 5050

    def test_miss_counts(self):
        tlb = RangeTLB("r", 4)
        tlb.lookup(1)
        tlb.fill(rng(0, 10))
        tlb.lookup(5)
        tlb.sync_stats()
        assert tlb.stats.misses == 1
        assert tlb.stats.hits == 1


class TestReplacement:
    def test_lru_eviction(self):
        tlb = RangeTLB("r", 2)
        a, b, c = rng(0, 10), rng(20, 30), rng(40, 50)
        tlb.fill(a)
        tlb.fill(b)
        tlb.lookup(5)  # refresh a
        tlb.fill(c)  # evicts b
        assert tlb.peek(25) is None
        assert tlb.peek(5) is not None

    def test_hit_moves_to_mru(self):
        tlb = RangeTLB("r", 3)
        parts = [rng(i * 100, i * 100 + 10) for i in range(3)]
        for part in parts:
            tlb.fill(part)
        tlb.lookup(5)  # range 0 to MRU
        assert tlb.resident_ranges()[0] == parts[0]

    def test_fill_invalidates_overlapping(self):
        tlb = RangeTLB("r", 4)
        tlb.fill(rng(100, 200))
        tlb.fill(rng(150, 250, 9000))  # overlaps -> old dropped
        assert tlb.occupancy() == 1
        assert tlb.lookup(120) is None or tlb.lookup(120).base_pfn == 9000

    def test_invalidate_overlap(self):
        tlb = RangeTLB("r", 4)
        tlb.fill(rng(0, 10))
        tlb.fill(rng(20, 30))
        dropped = tlb.invalidate_overlap(rng(5, 25))
        assert dropped == 2
        assert tlb.occupancy() == 0

    def test_resize(self):
        tlb = RangeTLB("r", 4)
        for i in range(4):
            tlb.fill(rng(i * 100, i * 100 + 10))
        tlb.set_active_units(2)
        assert tlb.occupancy() == 2
        with pytest.raises(ValueError):
            tlb.set_active_units(5)

    def test_rank_counters(self):
        tlb = RangeTLB("r", 4)
        counters = [0] * 3
        tlb.hit_rank_counters = counters
        for i in range(4):
            tlb.fill(rng(i * 100, i * 100 + 10))
        tlb.lookup(305)  # MRU, rank 0
        tlb.lookup(5)  # rank 3 -> group 2
        assert counters == [1, 0, 1]


@settings(max_examples=50, deadline=None)
@given(
    queries=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=100),
    bases=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8, unique=True),
)
def test_containment_matches_linear_scan(queries, bases):
    """Lookups agree with a brute-force containment check over residents."""
    tlb = RangeTLB("r", 8)
    for base in bases:
        tlb.fill(rng(base * 100, base * 100 + 60))
    for query in queries:
        resident = tlb.resident_ranges()
        expected = next((r for r in resident if r.covers(query)), None)
        assert tlb.peek(query) == expected


#: Range-model operations.  "hit" probes a page of the resident range at
#: a drawn rank, so hits reach every rank of a full stack.
_RANGE_OPS = ["lookup"] * 4 + ["hit"] * 6 + ["fill"] * 6 + ["resize"]


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(_RANGE_OPS),
            st.integers(min_value=0, max_value=199),
            st.integers(min_value=1, max_value=8),
        ),
        min_size=20,
        max_size=200,
    ),
    entries=st.sampled_from([1, 2, 4, 8]),
)
def test_matches_mru_list_model(ops, entries):
    """The range TLB behaves exactly like a plain MRU-first list.

    A lookup hits the first listed range containing the page, counts its
    rank and moves it to the front; a fill drops every listed range that
    overlaps the new one, puts it in front and cuts the list to the
    active entries; a resize cuts the list to the new capacity.  Ranges
    start anywhere in 200 pages and span 1-8 pages, so some fills
    overlap while stacks still fill up, and each fill's range is a
    distinct object with its own frame.
    """
    tlb = RangeTLB("r", entries)
    counters = [0] * 4  # ranks 0..7 -> groups 0..3
    tlb.hit_rank_counters = counters
    model: list[RangeTranslation] = []  # MRU first
    model_counters = [0] * 4
    active = entries
    hits = misses = fills = 0
    for op, page, span in ops:
        if op == "hit" and model:  # a page inside the range at rank page % len
            entry = model[page % len(model)]
            op, page = "lookup", entry.base_vpn + span % (entry.limit_vpn - entry.base_vpn)
        if op in ("lookup", "hit"):
            rank = next(
                (r for r, entry in enumerate(model) if entry.base_vpn <= page < entry.limit_vpn),
                None,
            )
            if rank is None:
                misses += 1
                assert tlb.lookup(page) is None
            else:
                hits += 1
                model_counters[rank.bit_length()] += 1
                assert tlb.lookup(page) is model[rank]
                model.insert(0, model.pop(rank))
        elif op == "fill":
            fills += 1
            new = RangeTranslation(page, page + span, 10_000 + fills)
            model = [
                entry
                for entry in model
                if entry.limit_vpn <= new.base_vpn or new.limit_vpn <= entry.base_vpn
            ]
            model.insert(0, new)
            del model[active:]
            tlb.fill(new)
        else:
            active = 1 + page % entries
            tlb.set_active_units(active)
            del model[active:]
        assert tlb.resident_ranges() == model
        assert counters == model_counters
    tlb.sync_stats()
    assert (tlb.stats.hits, tlb.stats.misses, tlb.stats.fills) == (hits, misses, fills)
