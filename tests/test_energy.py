"""Tests for the Cacti parameter library and the Table 3 energy model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.energy.cacti import (
    L1_CACHE,
    L2_CACHE_READ_PJ,
    MMU_CACHE_PDE,
    TABLE2_FULLY_ASSOC,
    TABLE2_PAGE_TLB,
    TABLE2_RANGE_TLB,
    EnergyParams,
    fully_assoc_params,
    page_tlb_params,
)
from repro.energy.model import COMPONENTS, EnergyBinding, EnergyModel
from repro.tlb.base import TLBStats


class TestTable2Values:
    """The paper's Table 2 numbers are the calibrated ground truth."""

    def test_l1_4kb_full(self):
        params = page_tlb_params(64, 4)
        assert params.read_pj == 5.865
        assert params.write_pj == 6.858
        assert params.leakage_mw == 0.3632

    def test_l1_4kb_way_disabled(self):
        assert page_tlb_params(32, 2).read_pj == 1.881
        assert page_tlb_params(16, 1).read_pj == 0.697

    def test_l1_2mb_family(self):
        assert page_tlb_params(32, 4).read_pj == 4.801
        assert page_tlb_params(16, 2).read_pj == 1.536
        assert page_tlb_params(8, 1).read_pj == 0.568

    def test_l2_4kb(self):
        assert page_tlb_params(512, 4).read_pj == 8.078
        assert page_tlb_params(512, 4).write_pj == 12.379

    def test_range_tlbs(self):
        assert fully_assoc_params(4, range_tags=True).read_pj == 1.806
        assert fully_assoc_params(32, range_tags=True).read_pj == 3.306

    def test_mmu_caches(self):
        assert MMU_CACHE_PDE.read_pj == 1.824
        assert fully_assoc_params(4).read_pj == 0.766
        assert fully_assoc_params(2).read_pj == 0.473

    def test_l1_cache(self):
        assert L1_CACHE.read_pj == 174.171


class TestAnalyticExtensions:
    def test_l2_cache_scales_from_l1(self):
        assert L2_CACHE_READ_PJ == pytest.approx(174.171 * (8**0.5))

    def test_power_law_close_to_table_points(self):
        """Derived values stay within ~35% of nearby Table 2 entries."""
        derived = page_tlb_params(128, 4)  # not in the table
        assert page_tlb_params(64, 4).read_pj < derived.read_pj < 2 * page_tlb_params(64, 4).read_pj

    def test_same_set_reference_preferred(self):
        # 8 sets -> scale from the L1-2MB family.
        derived = page_tlb_params(64, 8)
        reference = page_tlb_params(32, 4)
        assert derived.read_pj > reference.read_pj

    @given(st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 4, 8]))
    def test_monotone_in_ways(self, ways_a, ways_b):
        if ways_a < ways_b:
            assert page_tlb_params(16 * ways_a, ways_a).read_pj < page_tlb_params(
                16 * ways_b, ways_b
            ).read_pj

    def test_fully_assoc_interpolation_monotone(self):
        assert fully_assoc_params(2).read_pj < fully_assoc_params(3).read_pj
        assert fully_assoc_params(3).read_pj < fully_assoc_params(8).read_pj

    def test_scaled(self):
        params = EnergyParams(2.0, 4.0, 1.0)
        assert params.scaled(0.5) == EnergyParams(1.0, 2.0, 0.5)


def binding_with(lookups_by_ways, fills_by_ways, params_by_ways):
    stats = TLBStats()
    stats.lookups_by_ways.update(lookups_by_ways)
    stats.fills_by_ways.update(fills_by_ways)
    stats.hits = sum(lookups_by_ways.values())
    return EnergyBinding(
        "X", "l1_page_tlbs", stats, lambda w: params_by_ways[w], max(params_by_ways)
    )


class TestEnergyModel:
    def test_structure_energy_formula(self):
        """E = A * E_read + M * E_write, per way configuration."""
        params = {4: EnergyParams(2.0, 3.0), 2: EnergyParams(1.0, 1.5)}
        binding = binding_with({4: 10, 2: 4}, {4: 2, 2: 1}, params)
        model = EnergyModel()
        energy = model.structure_energy(binding)
        assert energy == pytest.approx(10 * 2.0 + 4 * 1.0 + 2 * 3.0 + 1 * 1.5)

    def test_compute_groups_by_component(self):
        params = {4: EnergyParams(1.0, 1.0)}
        binding = binding_with({4: 5}, {}, params)
        breakdown = EnergyModel().compute([binding], page_walk_refs=3, range_walk_refs=2)
        assert breakdown.by_component["l1_page_tlbs"] == 5.0
        assert breakdown.by_component["page_walk"] == pytest.approx(3 * 174.171)
        assert breakdown.by_component["range_walk"] == pytest.approx(2 * 174.171)
        assert breakdown.total_pj == pytest.approx(5.0 + 5 * 174.171)
        assert breakdown.by_structure["X"] == 5.0

    def test_walk_locality_knob(self):
        """Figure 3: walk reference energy interpolates L1<->L2 cache."""
        all_l1 = EnergyModel(walk_l1_hit_ratio=1.0)
        all_l2 = EnergyModel(walk_l1_hit_ratio=0.0)
        half = EnergyModel(walk_l1_hit_ratio=0.5)
        assert all_l1.walk_ref_pj == pytest.approx(174.171)
        assert all_l2.walk_ref_pj == pytest.approx(L2_CACHE_READ_PJ)
        assert half.walk_ref_pj == pytest.approx((174.171 + L2_CACHE_READ_PJ) / 2)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(walk_l1_hit_ratio=1.5)

    def test_fraction_and_l1_share(self):
        params = {4: EnergyParams(1.0, 1.0)}
        binding = binding_with({4: 10}, {}, params)
        breakdown = EnergyModel().compute([binding])
        assert breakdown.fraction("l1_page_tlbs") == pytest.approx(1.0)
        assert breakdown.l1_tlb_pj == 10.0

    def test_component_labels_complete(self):
        breakdown = EnergyModel().compute([])
        assert set(breakdown.by_component) == set(COMPONENTS)
        assert breakdown.total_pj == 0.0
        assert breakdown.fraction("page_walk") == 0.0
