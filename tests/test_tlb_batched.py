"""Every batched TLB structure counts and snapshots the same way.

The set-associative, tree-PLRU, fully-associative, range and mixed
fully-associative TLBs all bump pending counters on the hot path and
flush them in ``BatchedTLB.sync_stats`` under the capacity active when
they were made.  These tests drive each through one key stream and
resize it through ``set_active_units``, as Lite does.
"""

import json

import pytest

from repro.mmu.translation import PageSize, RangeTranslation, Translation
from repro.tlb.fully_assoc import FullyAssociativeTLB
from repro.tlb.mixed_fa import MixedFullyAssociativeTLB
from repro.tlb.range_tlb import RangeTLB
from repro.tlb.replacement import PLRUSetAssociativeTLB
from repro.tlb.set_assoc import SetAssociativeTLB


def page(key):
    return Translation(key, key + 1000, PageSize.SIZE_4KB)


class Keyed:
    """Page-number keyed TLBs: ``fill(key, value)``, probed by key."""

    def __init__(self, make):
        self.make = make

    def fill(self, tlb, key):
        tlb.fill(key, page(key))

    def lookup(self, tlb, key):
        return tlb.lookup(key)


class Ranges:
    """Range TLB: key ``k`` stands for the disjoint range [16k, 16k + 8)."""

    make = staticmethod(lambda: RangeTLB("range", 8))

    def fill(self, tlb, key):
        tlb.fill(RangeTranslation(16 * key, 16 * key + 8, 1000 + 16 * key))

    def lookup(self, tlb, key):
        return tlb.lookup(16 * key + 3)


class Mixed:
    """Mixed fully-associative TLB: filled with the key's 4 KB page."""

    make = staticmethod(lambda: MixedFullyAssociativeTLB("mixed", 8))

    def fill(self, tlb, key):
        tlb.fill(page(key))

    def lookup(self, tlb, key):
        return tlb.lookup(key)


STRUCTURES = {
    "set-assoc": Keyed(lambda: SetAssociativeTLB("sa", 16, 4)),
    "plru": Keyed(lambda: PLRUSetAssociativeTLB("plru", 16, 4)),
    "fully-assoc": Keyed(lambda: FullyAssociativeTLB("fa", 8)),
    "range": Ranges(),
    "mixed-fa": Mixed(),
}


def play(kind, tlb, keys):
    """Probe each key, filling it on a miss, as a hierarchy would."""
    for key in keys:
        if kind.lookup(tlb, key) is None:
            kind.fill(tlb, key)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_counts_land_under_the_capacity_they_were_made_at(name):
    kind = STRUCTURES[name]
    tlb = kind.make()
    full, half = tlb.max_units, tlb.max_units // 2
    assert tlb.active_units == full
    play(kind, tlb, [1, 1, 2])  # miss+fill, hit, miss+fill
    tlb.set_active_units(half)
    assert tlb.active_units == half
    play(kind, tlb, [1, 1, 3, 3, 4])  # hit, hit, miss+fill, hit, miss+fill
    tlb.sync_stats()
    assert tlb.stats.lookups_by_ways == {full: 3, half: 5}
    assert tlb.stats.fills_by_ways == {full: 2, half: 2}
    assert (tlb.stats.hits, tlb.stats.misses) == (4, 4)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_snapshot_with_pending_counts_restores_an_equal_state(name):
    kind = STRUCTURES[name]
    tlb = kind.make()
    play(kind, tlb, [1, 2, 3, 1, 5, 2])
    tlb.set_active_units(tlb.max_units // 2)  # syncs the counts made so far
    play(kind, tlb, [6, 1, 7, 6, 9])
    state = tlb.state_dict()
    assert state["pending"] != [0, 0, 0]

    restored = kind.make()
    restored.load_state_dict(json.loads(json.dumps(state)))
    assert restored.state_dict() == state

    # The restored copy carries on exactly as the original does.
    for copy in (tlb, restored):
        play(kind, copy, [1, 6, 10, 7, 3])
        copy.sync_stats()
    assert restored.state_dict() == tlb.state_dict()
    assert restored.stats == tlb.stats
