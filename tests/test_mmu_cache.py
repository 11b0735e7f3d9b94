"""Unit tests for the paging-structure caches (MMU cache)."""

import random
from collections import Counter

import pytest

from repro.mmu.mmu_cache import MMUCache, MMUCacheConfig
from repro.mmu.translation import PageSize


def sync(cache):
    for structure in cache.structures:
        structure.sync_stats()


class TestProbe:
    def test_cold_probe_skips_nothing(self):
        cache = MMUCache()
        assert cache.access(12345, PageSize.SIZE_4KB) == 0

    def test_all_structures_charged_per_probe(self):
        cache = MMUCache()
        cache.access(1, PageSize.SIZE_4KB)
        cache.access(2, PageSize.SIZE_2MB)
        sync(cache)
        for structure in cache.structures:
            assert structure.stats.lookups == 2

    def test_pde_hit_skips_three_levels_for_4kb(self):
        cache = MMUCache()
        cache.access(1000, PageSize.SIZE_4KB)
        assert cache.access(1000, PageSize.SIZE_4KB) == 3
        # A different page in the same 2MB region shares the PDE.
        assert cache.access(1001, PageSize.SIZE_4KB) == 3

    def test_pde_hit_does_not_help_2mb_walk(self):
        cache = MMUCache()
        cache.access(1000, PageSize.SIZE_4KB)  # fills PDE+PDPTE+PML4
        # For a 2MB page the PDE is the leaf; best help is the PDPTE.
        assert cache.access(1000, PageSize.SIZE_2MB) == 2

    def test_pdpte_hit_does_not_help_1gb_walk(self):
        cache = MMUCache()
        cache.access(1000, PageSize.SIZE_2MB)  # fills PDPTE+PML4
        assert cache.access(1000, PageSize.SIZE_1GB) == 1  # PML4 only

    def test_pml4_hit_only(self):
        cache = MMUCache()
        cache.access(0, PageSize.SIZE_1GB)  # fills PML4 only
        assert cache.access(0, PageSize.SIZE_4KB) == 1

    def test_different_pml4_region_misses(self):
        cache = MMUCache()
        cache.access(0, PageSize.SIZE_4KB)
        far = 1 << 27  # different PML4 entry
        assert cache.access(far, PageSize.SIZE_4KB) == 0


class TestFill:
    def test_fill_levels_by_size(self):
        cache = MMUCache()
        cache.access(0, PageSize.SIZE_1GB)
        sync(cache)
        assert cache.pml4.stats.fills == 1
        assert cache.pdpte.stats.fills == 0
        cache.access(0, PageSize.SIZE_2MB)
        sync(cache)
        assert cache.pdpte.stats.fills == 1
        assert cache.pde.stats.fills == 0
        cache.access(0, PageSize.SIZE_4KB)
        sync(cache)
        assert cache.pde.stats.fills == 1
        assert cache.pml4.stats.fills == 1  # a probe hit is not refilled

    def test_refill_of_present_entry_free(self):
        cache = MMUCache()
        cache.access(0, PageSize.SIZE_4KB)
        cache.access(1, PageSize.SIZE_4KB)  # same PDE/PDPTE/PML4
        sync(cache)
        assert cache.pde.stats.fills == 1
        assert cache.pml4.stats.fills == 1

    def test_capacity_eviction_in_pml4(self):
        cache = MMUCache()
        for region in range(3):  # PML4 cache holds 2 entries
            cache.access(region << 27, PageSize.SIZE_1GB)
        assert cache.access(0, PageSize.SIZE_4KB) == 0  # evicted

    def test_flush(self):
        cache = MMUCache()
        cache.access(0, PageSize.SIZE_4KB)
        cache.flush()
        assert cache.access(0, PageSize.SIZE_4KB) == 0

    def test_custom_config(self):
        cache = MMUCache(MMUCacheConfig(pde_entries=8, pde_ways=2, pdpte_entries=2, pml4_entries=1))
        assert cache.pde.entries == 8
        assert cache.pdpte.entries == 2
        assert cache.pml4.entries == 1


# ----------------------------------------------------------------------
# Model test: the one-step access against a probe-then-fill reference
# ----------------------------------------------------------------------
class _ModelCache:
    """One true-LRU cache of ``sets`` recency lists, MRU first.

    Counts lookups and fills under the active capacity (ways, or entries
    for the fully-associative caches, which have one set).
    """

    def __init__(self, sets: int, capacity: int) -> None:
        self.sets = [[] for _ in range(sets)]
        self.active = capacity
        self.hits = self.misses = 0
        self.lookups = Counter()
        self.fills = Counter()

    def _set(self, tag):
        return self.sets[tag % len(self.sets)]

    def lookup(self, tag) -> bool:
        self.lookups[self.active] += 1
        keys = self._set(tag)
        if tag in keys:
            self.hits += 1
            keys.remove(tag)
            keys.insert(0, tag)
            return True
        self.misses += 1
        return False

    def present(self, tag) -> bool:
        return tag in self._set(tag)

    def fill(self, tag) -> None:
        self.fills[self.active] += 1
        keys = self._set(tag)
        keys.insert(0, tag)
        del keys[self.active:]

    def resize(self, capacity: int) -> None:
        self.active = capacity
        for keys in self.sets:
            del keys[capacity:]


class _ModelMMU:
    """The module docstring's rules, applied as a probe, then a fill.

    The probe charges all three caches a lookup and picks the deepest hit
    relevant to the page size; the fill then installs each non-leaf level
    the walk traversed that is not already present, PML4E first.
    """

    #: The non-leaf levels each page size's walk installs.
    INSTALLS = {
        PageSize.SIZE_4KB: ("pml4", "pdpte", "pde"),
        PageSize.SIZE_2MB: ("pml4", "pdpte"),
        PageSize.SIZE_1GB: ("pml4",),
    }
    SHIFTS = {"pde": 9, "pdpte": 18, "pml4": 27}

    def __init__(self, config: MMUCacheConfig) -> None:
        self.caches = {
            "pde": _ModelCache(config.pde_entries // config.pde_ways, config.pde_ways),
            "pdpte": _ModelCache(1, config.pdpte_entries),
            "pml4": _ModelCache(1, config.pml4_entries),
        }

    def walk(self, vpn: int, size: PageSize) -> int:
        hit = {
            level: self.caches[level].lookup(vpn >> shift)
            for level, shift in self.SHIFTS.items()
        }
        if size is PageSize.SIZE_4KB and hit["pde"]:
            skipped = 3
        elif size is not PageSize.SIZE_1GB and hit["pdpte"]:
            skipped = 2
        elif hit["pml4"]:
            skipped = 1
        else:
            skipped = 0
        for level in self.INSTALLS[size]:
            tag = vpn >> self.SHIFTS[level]
            if not self.caches[level].present(tag):
                self.caches[level].fill(tag)
        return skipped


def _random_vpn(rng: random.Random) -> int:
    """A page from a few PML4/PDPT/PD regions, so every level hits and evicts."""
    return (
        rng.randrange(3) << 27
        | rng.randrange(6) << 18
        | rng.randrange(48) << 9
        | rng.randrange(512)
    )


def _assert_same_state(cache: MMUCache, model: _ModelMMU) -> None:
    sync(cache)
    for name, structure in (("pde", cache.pde), ("pdpte", cache.pdpte), ("pml4", cache.pml4)):
        expected = model.caches[name]
        assert structure.stats.hits == expected.hits, name
        assert structure.stats.misses == expected.misses, name
        assert dict(structure.stats.lookups_by_ways) == dict(expected.lookups), name
        assert dict(structure.stats.fills_by_ways) == dict(expected.fills), name
    for index, keys in enumerate(model.caches["pde"].sets):
        assert cache.pde.set_contents(index) == keys
    assert cache.pdpte.resident_keys() == model.caches["pdpte"].sets[0]
    assert cache.pml4.resident_keys() == model.caches["pml4"].sets[0]


class TestAccessMatchesProbeThenFill:
    SIZES = (PageSize.SIZE_4KB, PageSize.SIZE_2MB, PageSize.SIZE_1GB)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_walks(self, seed):
        """Levels skipped, counts by active units and recency order agree.

        Every 400 walks one cache is resized, as Lite would, so the
        counts land under more than one active capacity.
        """
        rng = random.Random(seed)
        config = MMUCacheConfig()
        cache, model = MMUCache(config), _ModelMMU(config)
        resizes = (
            ("pde", cache.pde, (1, 2)),
            ("pdpte", cache.pdpte, (1, 2, 3, 4)),
            ("pml4", cache.pml4, (1, 2)),
        )
        for step in range(3000):
            if step % 400 == 399:
                name, structure, choices = rng.choice(resizes)
                units = rng.choice(choices)
                structure.set_active_units(units)
                model.caches[name].resize(units)
            vpn = _random_vpn(rng)
            size = rng.choice(self.SIZES)
            assert cache.access(vpn, size) == model.walk(vpn, size), (step, vpn, size)
            if step % 250 == 0:
                _assert_same_state(cache, model)
        _assert_same_state(cache, model)
        skipped = Counter()
        for _ in range(500):
            vpn, size = _random_vpn(rng), rng.choice(self.SIZES)
            skipped[cache.access(vpn, size)] += 1
            model.walk(vpn, size)
        assert set(skipped) == {0, 1, 2, 3}  # every outcome was exercised
        _assert_same_state(cache, model)
