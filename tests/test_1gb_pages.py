"""End-to-end tests of the 1 GB page path (hugetlbfs-style backing).

The paper's baseline hierarchy (Figure 1) includes a 4-entry fully-
associative L1-1GB TLB that none of the evaluated workloads exercise;
these tests drive it end to end: OS backing, two-reference walks, static
enabling, hit attribution, energy accounting, and Lite's capacity
resizing of the fully-associative structure.
"""

import pytest

from repro.core.organizations import build_thp, build_tlb_lite
from repro.core.params import LiteParams
from repro.core.simulator import Simulator
from repro.mem.paging import HugeTLBFSPaging
from repro.mem.physical import PhysicalMemory
from repro.mem.process import Process
from repro.mmu.translation import PAGES_PER_1GB, PAGES_PER_2MB, PageSize

GB = PAGES_PER_1GB


def giant_process(gigabytes=2):
    process = Process(PhysicalMemory(8 << 30, seed=5), HugeTLBFSPaging())
    process.mmap(GB * gigabytes, name="pool", alignment=GB)
    return process


class TestHugeTLBFSPolicy:
    def test_1gb_backing(self):
        process = giant_process(2)
        histogram = process.page_size_histogram()
        assert histogram[PageSize.SIZE_1GB] == 2
        assert histogram[PageSize.SIZE_2MB] == 0

    def test_tail_cascades_to_smaller_sizes(self):
        process = Process(PhysicalMemory(8 << 30, seed=5), HugeTLBFSPaging())
        process.mmap(GB + PAGES_PER_2MB + 3, name="pool", alignment=GB)
        histogram = process.page_size_histogram()
        assert histogram[PageSize.SIZE_1GB] == 1
        assert histogram[PageSize.SIZE_2MB] == 1
        assert histogram[PageSize.SIZE_4KB] == 3

    def test_2mb_variant(self):
        process = Process(
            PhysicalMemory(1 << 30, seed=5), HugeTLBFSPaging(PageSize.SIZE_2MB)
        )
        process.mmap(PAGES_PER_2MB * 3, name="pool")
        assert process.page_size_histogram()[PageSize.SIZE_2MB] == 3

    def test_misaligned_vma_rejected(self):
        process = Process(PhysicalMemory(8 << 30, seed=5), HugeTLBFSPaging())
        with pytest.raises(ValueError):
            process.mmap(GB, name="pool")  # default 2MB alignment

    def test_4kb_policy_rejected(self):
        with pytest.raises(ValueError):
            HugeTLBFSPaging(PageSize.SIZE_4KB)

    def test_frames_1gb_aligned(self):
        process = giant_process(1)
        leaf = process.leaf_for(next(iter(process.address_space)).start_vpn)
        assert leaf.pfn % GB == 0


class TestHierarchy1GBPath:
    def test_walk_costs_two_refs_cold_one_warm(self):
        process = giant_process(1)
        org = build_thp(process)
        base = next(iter(process.address_space)).start_vpn
        walker = org.hierarchy.walker
        walker.walk(base)
        assert walker.stats.memory_refs == 2
        walker.walk(base + 12345)
        assert walker.stats.memory_refs == 2 + 1  # PML4E cached

    def test_l1_1gb_slot_enables_and_hits(self):
        process = giant_process(1)
        org = build_thp(process)
        h = org.hierarchy
        base = next(iter(process.address_space)).start_vpn
        slot_1gb = h.l1_slots[2]
        assert not slot_1gb.enabled
        h.access(base)  # walk returns a 1GB leaf -> slot enables
        assert slot_1gb.enabled
        h.access(base + 200_000)  # same 1GB page -> L1-1GB hit
        assert h.hit_attribution()["L1-1GB"] == 1
        assert h.l1_misses == 1

    def test_1gb_entries_never_enter_l2(self):
        process = giant_process(1)
        org = build_thp(process)
        base = next(iter(process.address_space)).start_vpn
        org.hierarchy.access(base)
        org.hierarchy.sync_stats()
        assert org.hierarchy.l2_page.stats.fills == 0

    def test_energy_charged_to_1gb_tlb(self):
        process = giant_process(1)
        org = build_thp(process)
        base = next(iter(process.address_space)).start_vpn
        trace = [base + i * 100 for i in range(2000)]
        result = Simulator(org).run(trace, fast_forward_accesses=100)
        assert result.energy.by_structure["L1-1GB"] > 0
        assert result.structure_stats["L1-1GB"].hit_ratio > 0.99

    def test_lite_resizes_the_fa_1gb_tlb(self):
        """One hot 1GB page: Lite shrinks the 4-entry FA TLB to 1 entry."""
        process = giant_process(1)
        lite_params = LiteParams(interval_instructions=1500, reactivate_probability=0.0)
        org = build_tlb_lite(process, lite_params=lite_params)
        base = next(iter(process.address_space)).start_vpn
        trace = [base + (i % 997) * 200 for i in range(30_000)]
        result = Simulator(org, instructions_per_access=3.0).run(
            trace, fast_forward_accesses=3_000
        )
        shares = result.way_lookup_shares("L1-1GB")
        assert shares.get(1, 0) > 0.8
        # ...at essentially no miss cost (it is one giant page).
        assert result.l1_mpki < 0.5
