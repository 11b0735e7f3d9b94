"""Tests for the six configuration builders and their energy bindings."""

from dataclasses import replace

import pytest

from repro.core.organizations import (
    EXTENDED_CONFIG_NAMES,
    build_4kb,
    build_organization,
    build_rmm,
    build_rmm_lite,
    build_thp,
    build_tlb_lite,
    build_tlb_pp,
    lite_params_for,
    paging_policy_for,
)
from repro.core.params import HierarchyParams, LiteParams, SetAssocParams
from repro.energy.cacti import TABLE2_PAGE_TLB
from repro.errors import UnknownConfigError
from repro.mem.paging import DemandPaging, EagerPaging, TransparentHugePaging
from repro.mem.physical import PhysicalMemory
from repro.mem.process import Process
from repro.mmu.translation import PAGES_PER_2MB
from repro.tlb.semantic import SemanticPartitionedTLB


#: Every configuration's paging policy class, eager-paging layout, and
#: Lite threshold mode (``None``: no Lite controller), written out here
#: rather than read from the configuration table it checks.
EXPECTED_CONFIGS = {
    "4KB": (DemandPaging, None, None),
    "THP": (TransparentHugePaging, None, None),
    "TLB_Lite": (TransparentHugePaging, None, "relative"),
    "RMM": (EagerPaging, "thp", None),
    "TLB_PP": (TransparentHugePaging, None, None),
    "RMM_Lite": (EagerPaging, "4kb", "absolute"),
    "FA_Lite": (TransparentHugePaging, None, "relative"),
    "RMM_PP_Lite": (EagerPaging, "thp", "absolute"),
    "L0_Filter": (TransparentHugePaging, None, None),
    "L0_Lite": (TransparentHugePaging, None, "relative"),
    "TLB_Pred": (TransparentHugePaging, None, None),
    "Banked": (TransparentHugePaging, None, None),
    "Semantic": (TransparentHugePaging, None, None),
}


def make_process(policy):
    process = Process(PhysicalMemory(1 << 30, seed=3), policy)
    process.mmap(PAGES_PER_2MB * 2 + 64, name="heap")
    process.mmap(64, name="stack", thp_eligible=False)
    return process


class TestBuilders:
    def test_4kb_structures(self):
        org = build_4kb(make_process(DemandPaging()))
        names = {s.name for s in org.hierarchy.all_structures()}
        assert {"L1-4KB", "L1-2MB", "L1-1GB", "L2-4KB"} <= names
        assert org.lite is None
        assert org.hierarchy.l2_range is None

    def test_thp_same_structures_as_4kb(self):
        org = build_thp(make_process(TransparentHugePaging()))
        assert org.name == "THP"
        assert org.hierarchy.l1_range is None

    def test_tlb_lite_monitors_all_l1_page_tlbs(self):
        """Paper Section 4.2.2: Lite resizes the 4KB, 2MB, *and* 1GB TLBs."""
        org = build_tlb_lite(make_process(TransparentHugePaging()))
        monitored = {tlb.name for tlb in org.lite.tlbs}
        assert monitored == {"L1-4KB", "L1-2MB", "L1-1GB"}

    def test_rmm_has_l2_range_only(self):
        org = build_rmm(make_process(EagerPaging("thp")))
        assert org.hierarchy.l2_range is not None
        assert org.hierarchy.l1_range is None

    def test_rmm_requires_ranges(self):
        with pytest.raises(ValueError):
            build_rmm(make_process(DemandPaging()))

    def test_rmm_lite_shape(self):
        org = build_rmm_lite(make_process(EagerPaging("4kb")))
        assert org.hierarchy.l1_range is not None
        assert org.hierarchy.l1_range.entries == 4
        assert org.hierarchy.l2_range.entries == 32
        # The huge-page L1 TLBs are replaced by the L1-range TLB.
        assert len(org.hierarchy.l1_slots) == 1
        assert org.lite is not None
        assert org.lite.params.threshold_mode == "absolute"

    def test_tlb_pp_oracle_covers_huge_chunks(self):
        process = make_process(TransparentHugePaging())
        org = build_tlb_pp(process)
        heap = next(iter(process.address_space))
        assert (heap.start_vpn >> 9) in org.hierarchy._huge_chunks
        assert org.hierarchy.l1_mixed.entries == 64

    def test_custom_hierarchy_params(self):
        params = replace(HierarchyParams(), l1_4kb=SetAssocParams(16, 1))
        org = build_thp(make_process(TransparentHugePaging()), params)
        l1 = org.hierarchy.l1_slots[0].tlb
        assert l1.entries == 16
        assert l1.ways == 1

    def test_build_organization_dispatch(self):
        assert tuple(EXPECTED_CONFIGS) == EXTENDED_CONFIG_NAMES
        for name, (policy_type, layout, threshold_mode) in EXPECTED_CONFIGS.items():
            policy = paging_policy_for(name)
            assert type(policy) is policy_type, name
            assert getattr(policy, "page_layout", None) == layout, name
            org = build_organization(name, make_process(policy))
            assert org.name == name
            if threshold_mode is None:
                assert org.lite is None, name
                assert lite_params_for(name, 60_000) is None, name
            else:
                paper = org.lite.params
                assert paper.threshold_mode == threshold_mode, name
                assert paper.interval_instructions == 1_000_000, name
                scaled = replace(paper, interval_instructions=10_000)
                assert lite_params_for(name, 60_000) == scaled, name
        with pytest.raises(UnknownConfigError):
            paging_policy_for("bogus")
        with pytest.raises(UnknownConfigError):
            build_organization("bogus", make_process(DemandPaging()))
        with pytest.raises(UnknownConfigError):
            lite_params_for("bogus", 60_000)

    def test_summary_renders(self):
        org = build_rmm_lite(make_process(EagerPaging("4kb")))
        text = org.summary.render()
        assert "L1-range" in text
        assert "Lite" in text


class TestPolicies:
    def test_policy_mapping(self):
        assert isinstance(paging_policy_for("4KB"), DemandPaging)
        assert isinstance(paging_policy_for("THP"), TransparentHugePaging)
        assert isinstance(paging_policy_for("TLB_Lite"), TransparentHugePaging)
        assert isinstance(paging_policy_for("TLB_PP"), TransparentHugePaging)
        rmm = paging_policy_for("RMM")
        assert isinstance(rmm, EagerPaging) and rmm.page_layout == "thp"
        rmm_lite = paging_policy_for("RMM_Lite")
        assert isinstance(rmm_lite, EagerPaging) and rmm_lite.page_layout == "4kb"
        with pytest.raises(KeyError):
            paging_policy_for("nope")

    def test_thp_coverage_forwarded(self):
        policy = paging_policy_for("THP", thp_coverage=0.5)
        assert policy.coverage == 0.5


class TestEnergyBindings:
    @pytest.mark.parametrize("name", EXTENDED_CONFIG_NAMES)
    def test_bindings_follow_all_structures(self, name):
        """One binding per structure, in ``all_structures()`` order, with
        the semantic TLB's partitions bound in its place."""
        org = build_organization(name, make_process(paging_policy_for(name)))
        structures = []
        for structure in org.hierarchy.all_structures():
            if isinstance(structure, SemanticPartitionedTLB):
                structures.extend(structure.parts)
            else:
                structures.append(structure)
        assert [b.name for b in org.bindings] == [s.name for s in structures]
        for binding, structure in zip(org.bindings, structures):
            assert binding.stats is structure.stats
            assert binding.full_units == structure.max_units

    def test_l1_4kb_binding_follows_table2(self):
        org = build_thp(make_process(TransparentHugePaging()))
        binding = next(b for b in org.bindings if b.name == "L1-4KB")
        for ways, key in ((4, (64, 4)), (2, (32, 2)), (1, (16, 1))):
            assert binding.params_for_ways(ways) == TABLE2_PAGE_TLB[key]

    def test_l1_2mb_binding_follows_table2(self):
        org = build_thp(make_process(TransparentHugePaging()))
        binding = next(b for b in org.bindings if b.name == "L1-2MB")
        assert binding.params_for_ways(4) == TABLE2_PAGE_TLB[(32, 4)]
        assert binding.params_for_ways(1) == TABLE2_PAGE_TLB[(8, 1)]

    def test_components_labelled(self):
        org = build_rmm_lite(make_process(EagerPaging("4kb")))
        components = {binding.component for binding in org.bindings}
        assert {"l1_page_tlbs", "l1_range_tlb", "l2_page_tlb", "l2_range_tlb", "mmu_cache"} == components

    def test_lite_params_override(self):
        lite_params = LiteParams(interval_instructions=5_000, seed=9)
        org = build_tlb_lite(make_process(TransparentHugePaging()), lite_params=lite_params)
        assert org.lite.params.interval_instructions == 5_000
