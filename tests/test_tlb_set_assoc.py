"""Unit tests for the set-associative, true-LRU, way-disabling TLB."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.mmu.translation import PageSize, Translation
from repro.tlb.set_assoc import SetAssociativeTLB


def make_tlb(entries=16, ways=4):
    return SetAssociativeTLB("t", entries, ways)


class TestConstruction:
    def test_geometry(self):
        tlb = make_tlb(64, 4)
        assert tlb.num_sets == 16
        assert tlb.active_ways == 4

    def test_entries_not_divisible_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeTLB("t", 10, 4)

    def test_non_power_of_two_ways_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeTLB("t", 12, 3)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeTLB("t", 24, 2)  # 12 sets

    def test_direct_mapped_allowed(self):
        tlb = SetAssociativeTLB("t", 16, 1)
        assert tlb.num_sets == 16


class TestLookupAndFill:
    def test_miss_then_hit(self):
        tlb = make_tlb()
        assert tlb.lookup(5) is None
        tlb.fill(5, "v5")
        assert tlb.lookup(5) == "v5"

    def test_hits_and_misses_counted(self):
        tlb = make_tlb()
        tlb.lookup(1)
        tlb.fill(1, "a")
        tlb.lookup(1)
        tlb.sync_stats()
        assert tlb.stats.misses == 1
        assert tlb.stats.hits == 1
        assert tlb.stats.fills == 1

    def test_keys_map_to_sets_by_low_bits(self):
        tlb = make_tlb(16, 4)  # 4 sets
        tlb.fill(0, "a")
        tlb.fill(4, "b")  # same set as 0
        assert set(tlb.set_contents(0)) == {0, 4}

    def test_eviction_is_lru(self):
        tlb = make_tlb(16, 4)  # 4 sets, keys k*4 share set 0
        for key in (0, 4, 8, 12):
            tlb.fill(key, key)
        tlb.lookup(0)  # refresh key 0
        tlb.fill(16, 16)  # evicts LRU = 4
        assert tlb.peek(4) is None
        assert tlb.peek(0) == 0

    def test_fill_refreshes_existing_key(self):
        tlb = make_tlb(16, 4)
        for key in (0, 4, 8, 12):
            tlb.fill(key, key)
        tlb.fill(0, "new")  # move 0 to MRU, update value
        tlb.fill(16, 16)  # evicts 4, not 0
        assert tlb.peek(0) == "new"
        assert tlb.peek(4) is None

    def test_occupancy_capped_by_active_ways(self):
        tlb = make_tlb(16, 4)
        for key in range(32):
            tlb.fill(key, key)
        assert tlb.occupancy() == 16

    def test_peek_does_not_touch_lru_or_stats(self):
        tlb = make_tlb(16, 4)
        for key in (0, 4, 8, 12):
            tlb.fill(key, key)
        tlb.peek(0)  # no recency change
        tlb.fill(16, 16)  # LRU is still 0
        assert tlb.peek(0) is None
        tlb.sync_stats()
        assert tlb.stats.lookups == 0


class TestLRUOrder:
    def test_hit_moves_to_mru(self):
        tlb = make_tlb(16, 4)
        for key in (0, 4, 8, 12):
            tlb.fill(key, key)
        assert tlb.set_contents(0) == [12, 8, 4, 0]
        tlb.lookup(4)
        assert tlb.set_contents(0) == [4, 12, 8, 0]

    def test_rank_counters_grouped_by_bit_length(self):
        tlb = make_tlb(32, 8)  # 4 sets, 8 ways
        counters = [0] * 4
        tlb.hit_rank_counters = counters
        for key in range(0, 32, 4):  # fill set 0 with 8 keys
            tlb.fill(key, key)
        # MRU order: 28 24 20 16 12 8 4 0; hit rank 0 -> group 0
        tlb.lookup(28)
        assert counters == [1, 0, 0, 0]
        tlb.lookup(24)  # now at rank 1 -> group 1
        assert counters == [1, 1, 0, 0]
        tlb.lookup(16)  # rank 3 -> group 2 (ranks 2-3)
        assert counters == [1, 1, 1, 0]
        tlb.lookup(0)  # rank 7 -> group 3 (ranks 4-7)
        assert counters == [1, 1, 1, 1]


class TestWayDisabling:
    def test_downsize_truncates_lru_entries(self):
        tlb = make_tlb(16, 4)
        for key in (0, 4, 8, 12):
            tlb.fill(key, key)
        tlb.set_active_units(2)
        # Only the two most recent survive.
        assert tlb.set_contents(0) == [12, 8]

    def test_downsize_then_upsize_has_no_stale_entries(self):
        tlb = make_tlb(16, 4)
        for key in (0, 4, 8, 12):
            tlb.fill(key, key)
        tlb.set_active_units(1)
        tlb.set_active_units(4)
        assert tlb.peek(8) is None
        assert tlb.peek(12) == 12

    def test_capacity_respected_after_downsize(self):
        tlb = make_tlb(16, 4)
        tlb.set_active_units(2)
        for key in range(0, 40, 4):
            tlb.fill(key, key)
        assert len(tlb.set_contents(0)) == 2

    def test_upsizing_above_max_rejected(self):
        tlb = make_tlb(16, 4)
        with pytest.raises(ValueError):
            tlb.set_active_units(8)

    def test_non_power_of_two_rejected(self):
        tlb = make_tlb(16, 4)
        with pytest.raises(ValueError):
            tlb.set_active_units(3)

    def test_lookups_histogrammed_by_ways_at_access_time(self):
        tlb = make_tlb(16, 4)
        tlb.lookup(1)
        tlb.lookup(2)
        tlb.set_active_units(2)
        tlb.lookup(3)
        tlb.sync_stats()
        assert tlb.stats.lookups_by_ways == {4: 2, 2: 1}

    def test_fills_histogrammed_by_ways(self):
        tlb = make_tlb(16, 4)
        tlb.fill(1, 1)
        tlb.set_active_units(1)
        tlb.fill(2, 2)
        tlb.fill(3, 3)
        tlb.sync_stats()
        assert tlb.stats.fills_by_ways == {4: 1, 1: 2}


class TestMaintenance:
    def test_invalidate(self):
        tlb = make_tlb()
        tlb.fill(7, 7)
        assert tlb.invalidate(7) is True
        assert tlb.invalidate(7) is False
        assert tlb.peek(7) is None

    def test_flush_clears_everything(self):
        tlb = make_tlb()
        for key in range(16):
            tlb.fill(key, key)
        tlb.flush()
        assert tlb.occupancy() == 0

    def test_resident_keys(self):
        tlb = make_tlb()
        tlb.fill(3, 3)
        tlb.fill(9, 9)
        assert tlb.resident_keys() == {3, 9}

    def test_pending_misses_flush_on_sync(self):
        tlb = make_tlb()
        tlb.lookup(1)
        tlb.lookup(2)
        assert tlb.stats.misses == 0
        tlb.sync_stats()
        assert tlb.stats.misses == 2
        tlb.sync_stats()  # the pending count was zeroed, not re-added
        assert tlb.stats.misses == 2


class TestSnapshot:
    @pytest.mark.parametrize(
        "sets",
        [
            [[[4, 4], [4, 4]], [], [], []],  # a key listed twice
            [[[4, 4], [5, 5]], [], [], []],  # key 5 belongs to set 1
            [[[0, 0], [4, 4], [8, 8]], [], [], []],  # three keys, two active ways
        ],
        ids=["duplicate-key", "wrong-set", "over-capacity"],
    )
    def test_malformed_sets_rejected(self, sets):
        tlb = make_tlb(16, 4)  # 4 sets
        tlb.set_active_units(2)
        state = tlb.state_dict()
        state["sets"] = sets
        with pytest.raises(CheckpointError, match="snapshot set 0"):
            make_tlb(16, 4).load_state_dict(state)


#: Sets of the model-test TLB: two sets over 64 keys stay full, so
#: evictions and truncating resizes are common.
_MODEL_SETS = 2
#: Model-test operations, weighted towards the hierarchy's lookup-then-fill.
_MODEL_OPS = (
    ["access"] * 12 + ["fill", "refresh", "peek", "invalidate"] * 2 + ["resize"] * 4 + ["flush"]
)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(_MODEL_OPS), st.integers(min_value=0, max_value=63)),
        min_size=30,
        max_size=300,
    ),
    ways=st.sampled_from([1, 2, 4, 8]),
    counted=st.booleans(),
    reload_at=st.integers(min_value=0, max_value=29),
)
def test_matches_reference_lru_model(ops, ways, counted, reload_at):
    """The TLB behaves exactly like a per-set LRU stack of [key, value] pairs.

    Most fills store a value unique to that fill, so a value the TLB
    kept past its key's eviction, or returned from an older fill, shows.
    Every third fill stores ``None`` or ``0`` instead: a resident key
    hits whatever it caches, so a lookup that judged a hit by its value
    would count a miss and skip the promotion here.  At step
    ``reload_at`` the TLB is replaced by a fresh one loaded from its JSON
    snapshot.
    """
    tlb = SetAssociativeTLB("t", _MODEL_SETS * ways, ways)
    counters = [0] * 4 if counted else None  # ranks 0..7 -> groups 0..3
    tlb.hit_rank_counters = counters
    model: list[list[list]] = [[] for _ in range(_MODEL_SETS)]  # MRU first
    model_counters = [0] * 4
    active = ways
    hits = misses = fills = 0

    def model_fill(key):
        nonlocal fills
        fills += 1
        if fills % 3:
            value = Translation(key, fills, PageSize.SIZE_4KB)
        else:
            value = (None, 0)[fills % 2]
        stack = model[key % _MODEL_SETS]
        stack[:] = [pair for pair in stack if pair[0] != key]
        stack.insert(0, [key, value])
        del stack[active:]
        tlb.fill(key, value)

    for step, (op, arg) in enumerate(ops):
        if op == "refresh":  # refill a resident key, when there is one
            resident = sorted(pair[0] for stack in model for pair in stack)
            op, arg = ("fill", resident[arg % len(resident)]) if resident else ("peek", arg)
        stack = model[arg % _MODEL_SETS]
        rank = next((r for r, pair in enumerate(stack) if pair[0] == arg), None)
        expected = stack[rank][1] if rank is not None else None
        if op == "access":  # the hierarchy's lookup, then fill on a miss
            assert tlb.lookup(arg) == expected
            if rank is None:
                misses += 1
                model_fill(arg)
            else:
                hits += 1
                model_counters[rank.bit_length()] += 1
                stack.insert(0, stack.pop(rank))
        elif op == "fill":
            model_fill(arg)
        elif op == "peek":
            assert tlb.peek(arg) == expected
        elif op == "invalidate":
            assert tlb.invalidate(arg) is (rank is not None)
            if rank is not None:
                del stack[rank]
        elif op == "resize":  # halve or double the active ways
            active = max(active >> 1, 1) if arg % 2 else min(active << 1, ways)
            tlb.set_active_units(active)
            for stack in model:
                del stack[active:]
        else:
            tlb.flush()
            for stack in model:
                stack.clear()
        if step == reload_at:
            fresh = SetAssociativeTLB("t", _MODEL_SETS * ways, ways)
            fresh.load_state_dict(json.loads(json.dumps(tlb.state_dict())))
            fresh.hit_rank_counters = counters
            tlb = fresh
        if counted:
            assert counters == model_counters
        assert [tlb.set_contents(s) for s in range(_MODEL_SETS)] == [
            [pair[0] for pair in stack] for stack in model
        ]
        assert tlb.occupancy() == sum(len(stack) for stack in model)
        assert tlb.resident_keys() == {pair[0] for stack in model for pair in stack}
    tlb.sync_stats()
    assert (tlb.stats.hits, tlb.stats.misses, tlb.stats.fills) == (hits, misses, fills)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=63), min_size=128, max_size=400),
    schedule=st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=8),
)
def test_stats_conserved_across_resizes(keys, schedule):
    """Each lookup and fill is histogrammed under the ways active at it.

    The ways change every 64 accesses, cycling through ``schedule``; the
    first 64 keys fill the 4 sets in most draws, so a downsize truncates
    full sets.
    """
    tlb = SetAssociativeTLB("t", 16, 4)
    lookups, fills = Counter(), Counter()
    for index, key in enumerate(keys):
        if index and index % 64 == 0:
            tlb.set_active_units(schedule[(index // 64 - 1) % len(schedule)])
        lookups[tlb.active_ways] += 1
        if tlb.lookup(key) is None:
            tlb.fill(key, key)
            fills[tlb.active_ways] += 1
    tlb.sync_stats()
    stats = tlb.stats
    assert stats.hits + stats.misses == stats.lookups
    assert stats.lookups_by_ways == lookups
    assert stats.fills_by_ways == fills
    assert stats.fills == stats.misses  # we fill exactly on each miss
