"""Unit tests for page sizes, index arithmetic, and translation types."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mmu.translation import (
    PAGES_PER_1GB,
    PAGES_PER_2MB,
    WALK_LEVELS,
    PageSize,
    RangeTranslation,
    Translation,
    pd_index,
    pde_tag,
    pdpt_index,
    pdpte_tag,
    pml4_index,
    pml4e_tag,
    pt_index,
    translation_4kb,
)
from repro.stateful import decode_entry, encode_entry


class TestPageSize:
    def test_values_are_page_counts(self):
        assert int(PageSize.SIZE_4KB) == 1
        assert int(PageSize.SIZE_2MB) == 512
        assert int(PageSize.SIZE_1GB) == 512 * 512

    def test_bytes(self):
        assert PageSize.SIZE_4KB.bytes == 4096
        assert PageSize.SIZE_2MB.bytes == 2 << 20
        assert PageSize.SIZE_1GB.bytes == 1 << 30

    def test_page_shift(self):
        assert PageSize.SIZE_4KB.page_shift == 12
        assert PageSize.SIZE_2MB.page_shift == 21
        assert PageSize.SIZE_1GB.page_shift == 30

    def test_walk_levels(self):
        assert PageSize.SIZE_4KB.walk_levels == 4
        assert PageSize.SIZE_2MB.walk_levels == 3
        assert PageSize.SIZE_1GB.walk_levels == 2
        assert WALK_LEVELS == {size: size.walk_levels for size in PageSize}

    def test_align_down(self):
        assert PageSize.SIZE_2MB.align_down(513) == 512
        assert PageSize.SIZE_2MB.align_down(512) == 512
        assert PageSize.SIZE_4KB.align_down(513) == 513

    def test_labels(self):
        assert [s.label() for s in PageSize] == ["4KB", "2MB", "1GB"]


class TestIndexArithmetic:
    def test_indices_of_zero(self):
        assert pt_index(0) == pd_index(0) == pdpt_index(0) == pml4_index(0) == 0

    def test_known_decomposition(self):
        # vpn = pml4:3, pdpt:5, pd:7, pt:11
        vpn = (((3 * 512 + 5) * 512) + 7) * 512 + 11
        assert pt_index(vpn) == 11
        assert pd_index(vpn) == 7
        assert pdpt_index(vpn) == 5
        assert pml4_index(vpn) == 3

    @given(st.integers(min_value=0, max_value=(1 << 36) - 1))
    def test_tags_are_prefixes(self, vpn):
        assert pde_tag(vpn) == vpn >> 9
        assert pdpte_tag(vpn) == vpn >> 18
        assert pml4e_tag(vpn) == vpn >> 27

    @given(st.integers(min_value=0, max_value=(1 << 36) - 1))
    def test_same_2mb_page_shares_pde_tag(self, vpn):
        base = PageSize.SIZE_2MB.align_down(vpn)
        assert pde_tag(vpn) == pde_tag(base)


class TestTranslation:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            Translation(1, 512, PageSize.SIZE_2MB)
        with pytest.raises(ValueError):
            Translation(512, 1, PageSize.SIZE_2MB)

    def test_covers_and_translate(self):
        t = Translation(512, 1024, PageSize.SIZE_2MB)
        assert t.covers(512)
        assert t.covers(1023)
        assert not t.covers(1024)
        assert t.translate(700) == 1024 + (700 - 512)

    def test_translate_outside_raises(self):
        t = Translation(0, 0, PageSize.SIZE_4KB)
        with pytest.raises(KeyError):
            t.translate(1)

    def test_1gb_page(self):
        t = Translation(PAGES_PER_1GB, 0, PageSize.SIZE_1GB)
        assert t.covers(PAGES_PER_1GB + PAGES_PER_2MB)


class TestTrustedConstructor:
    """``translation_4kb`` builds what the validating constructor builds."""

    @given(
        st.integers(min_value=0, max_value=(1 << 36) - 1),
        st.integers(min_value=0, max_value=(1 << 63) - 1),
    )
    def test_matches_validating_constructor(self, vpn, pfn):
        trusted = translation_4kb(vpn, pfn)
        validated = Translation(vpn, pfn, PageSize.SIZE_4KB)
        assert type(trusted) is Translation
        assert trusted.page_size is PageSize.SIZE_4KB
        assert trusted == validated and not trusted != validated
        assert hash(trusted) == hash(validated)
        assert repr(trusted) == repr(validated)
        assert encode_entry(trusted) == encode_entry(validated)
        assert decode_entry(encode_entry(trusted)) == validated
        assert decode_entry(encode_entry(validated)) == trusted

    def test_unequal_to_other_pages(self):
        assert translation_4kb(5, 7) != translation_4kb(5, 8)
        assert translation_4kb(5, 7) != translation_4kb(6, 7)
        assert translation_4kb(0, 0) != Translation(0, 0, PageSize.SIZE_2MB)

    def test_frozen(self):
        trusted = translation_4kb(5, 7)
        for name, value in (("vpn", 6), ("pfn", 8), ("page_size", PageSize.SIZE_2MB)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trusted, name, value)
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
            trusted.extra = 1
        assert trusted == Translation(5, 7, PageSize.SIZE_4KB)


class TestRangeTranslation:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            RangeTranslation(10, 10, 0)
        with pytest.raises(ValueError):
            RangeTranslation(10, 5, 0)

    def test_offset_and_translate(self):
        r = RangeTranslation(100, 200, 1100)
        assert r.offset == 1000
        assert r.num_pages == 100
        assert r.translate(150) == 1150
        with pytest.raises(KeyError):
            r.translate(200)

    def test_overlaps(self):
        a = RangeTranslation(0, 10, 0)
        assert a.overlaps(RangeTranslation(9, 20, 100))
        assert not a.overlaps(RangeTranslation(10, 20, 100))
        assert a.overlaps(RangeTranslation(0, 1, 100))

    @given(
        a=st.integers(0, 100), la=st.integers(1, 50),
        b=st.integers(0, 100), lb=st.integers(1, 50),
    )
    def test_overlap_symmetry(self, a, la, b, lb):
        r1 = RangeTranslation(a, a + la, 1000)
        r2 = RangeTranslation(b, b + lb, 2000)
        assert r1.overlaps(r2) == r2.overlaps(r1)
        # Overlap iff intervals intersect.
        assert r1.overlaps(r2) == (max(a, b) < min(a + la, b + lb))
