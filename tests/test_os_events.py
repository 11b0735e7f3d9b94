"""Tests for mid-run OS events: huge-page breakdown and TLB flushes.

The paper's Section 4.2.2 motivates Lite's degradation response with
exactly this scenario: "the operating system breaks huge pages to 4 KB
pages to respond to memory pressure" — these tests exercise that path
end to end.
"""

import numpy as np
import pytest

from repro.core.organizations import build_thp, build_tlb_lite
from repro.core.params import LiteParams
from repro.core.simulator import Simulator
from repro.mem.paging import TransparentHugePaging
from repro.mem.physical import PhysicalMemory
from repro.mem.process import Process
from repro.mmu.translation import PAGES_PER_2MB, PageSize


def make_process(chunks=8):
    process = Process(PhysicalMemory(1 << 30, seed=3), TransparentHugePaging())
    process.mmap(PAGES_PER_2MB * chunks, name="heap")
    return process


class TestBreakHugePage:
    def test_split_preserves_translations(self):
        process = make_process()
        heap = next(iter(process.address_space))
        probe = heap.start_vpn + 700
        before = process.translate(probe)
        leaf = process.break_huge_page(probe)
        assert leaf.page_size is PageSize.SIZE_2MB
        assert process.translate(probe) == before  # frames stay in place
        assert process.leaf_for(probe).page_size is PageSize.SIZE_4KB

    def test_split_only_affects_one_chunk(self):
        process = make_process()
        heap = next(iter(process.address_space))
        process.break_huge_page(heap.start_vpn)
        histogram = process.page_size_histogram()
        assert histogram[PageSize.SIZE_2MB] == 7
        assert histogram[PageSize.SIZE_4KB] == PAGES_PER_2MB

    def test_split_4kb_page_rejected(self):
        process = make_process()
        heap = next(iter(process.address_space))
        process.break_huge_page(heap.start_vpn)
        with pytest.raises(ValueError):
            process.break_huge_page(heap.start_vpn)

    def test_break_fraction(self):
        process = make_process(chunks=10)
        count = process.break_huge_pages(0.5, seed=1)
        assert count == 5
        assert process.page_size_histogram()[PageSize.SIZE_2MB] == 5
        with pytest.raises(ValueError):
            process.break_huge_pages(2.0)


class TestShootdown:
    def test_stale_huge_entry_removed(self):
        process = make_process()
        org = build_thp(process)
        heap = next(iter(process.address_space))
        org.hierarchy.access(heap.start_vpn)  # loads the 2MB entry
        slot_2mb = org.hierarchy.l1_slots[1]
        assert slot_2mb.tlb.peek(heap.start_vpn >> 9) is not None
        process.break_huge_page(heap.start_vpn)
        org.hierarchy.shootdown_huge_page(heap.start_vpn)
        assert slot_2mb.tlb.peek(heap.start_vpn >> 9) is None
        # Next access walks and loads 4KB entries.
        org.hierarchy.access(heap.start_vpn)
        assert org.hierarchy.l1_slots[0].tlb.peek(heap.start_vpn) is not None

    def test_flush_tlbs(self):
        process = make_process()
        org = build_thp(process)
        heap = next(iter(process.address_space))
        org.hierarchy.access(heap.start_vpn)
        org.hierarchy.flush_tlbs()
        walks_before = org.hierarchy.walker.stats.walks
        org.hierarchy.access(heap.start_vpn)
        assert org.hierarchy.walker.stats.walks == walks_before + 1


class TestSimulatorEvents:
    def make_trace(self, process, n=30_000):
        heap = next(iter(process.address_space))
        rng = np.random.default_rng(0)
        # Hot accesses across all huge pages, 3-burst.
        pages = heap.start_vpn + rng.integers(heap.num_pages, size=n // 3)
        return np.repeat(pages, 3)[:n].astype(np.int64)

    def test_event_fires_at_position(self):
        process = make_process()
        org = build_thp(process)
        fired_at = []

        def event(organization):
            fired_at.append(organization.hierarchy.accesses)

        sim = Simulator(org)
        trace = self.make_trace(process)
        sim.run(trace, fast_forward_accesses=1000, events=[(5000, event)])
        # 5000 trace positions = 1000 warm-up + 4000 measured accesses.
        assert fired_at == [4000]

    def test_breakdown_event_causes_miss_spike_and_lite_reacts(self):
        """Huge-page breakdown raises MPKI; Lite's degradation response
        re-enables all ways (the paper's motivating scenario)."""
        process = make_process(chunks=16)
        lite_params = LiteParams(
            interval_instructions=3000, reactivate_probability=0.0
        )
        org = build_tlb_lite(process, lite_params=lite_params)
        hierarchy = org.hierarchy

        def breakdown(_organization):
            broken = process.break_huge_pages(0.9, seed=2)
            for leaf in list(process.page_table.iter_translations()):
                pass  # page table already updated
            # Shoot down every demoted chunk.
            heap = next(iter(process.address_space))
            for chunk in range(16):
                base = heap.start_vpn + chunk * PAGES_PER_2MB
                if process.leaf_for(base).page_size is PageSize.SIZE_4KB:
                    hierarchy.shootdown_huge_page(base)
            assert broken == 14

        sim = Simulator(org, instructions_per_access=3.0)
        trace = self.make_trace(process, 60_000)
        result = sim.run(trace, fast_forward_accesses=6_000, events=[(33_000, breakdown)])

        # MPKI in the second half (post-breakdown) is clearly higher.
        half = len(result.timeline) // 2
        before = sum(s.l1_mpki for s in result.timeline[:half]) / half
        after = sum(s.l1_mpki for s in result.timeline[half:]) / (
            len(result.timeline) - half
        )
        assert after > 2 * before + 0.5
        # Lite reacted: a degradation reactivation occurred.
        actions = [record.action for record in org.lite.history]
        assert "degradation-reactivate" in actions
