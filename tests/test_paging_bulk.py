"""The bulk page-table build against an independent per-page oracle.

The paging policies install 4 KB pages a leaf table at a time
(``PageTable.map_run``) and take frames a pool stretch at a time
(``PhysicalMemory.alloc_frames``).  The reference builder here uses
neither, nor any policy code: it maps one page per ``PageTable.map`` call
and takes one frame per ``alloc_frame()`` / one huge frame per
``alloc_block(9)``, in address order — the layout the paper's OS
configurations describe.  Every resulting state must match it exactly:
page table, allocator (free lists, scatter pool, RNG) and range table.
"""

import random

import pytest

from repro.core.organizations import CONFIG_NAMES, paging_policy_for
from repro.mem.paging import (
    DemandPaging,
    EagerPaging,
    HugeTLBFSPaging,
    PagingPolicy,
    TransparentHugePaging,
)
from repro.mem.physical import OutOfMemoryError, PhysicalMemory
from repro.mem.process import Process
from repro.mmu.translation import (
    PAGES_PER_1GB,
    PAGES_PER_2MB,
    PageSize,
    RangeTranslation,
    Translation,
)
from repro.workloads.registry import get_workload

#: The OS layout each paper configuration assumes (Section 5).
PAPER_LAYOUT = {
    "4KB": "4kb",
    "THP": "thp",
    "TLB_Lite": "thp",
    "TLB_PP": "thp",
    "RMM": "eager-thp",
    "RMM_Lite": "eager-4kb",
}


class PerPage(PagingPolicy):
    """Reference populate: one ``map`` per page, one allocator call per frame.

    ``layout`` is ``"4kb"``, ``"thp"`` (2 MB on aligned, fully covered
    chunks of eligible VMAs that win the ``coverage`` draw and get a
    block), ``"eager-thp"``/``"eager-4kb"`` (one contiguous block plus a
    range per VMA, laid out as THP or 4 KB), or ``"hugetlbfs-2mb"`` /
    ``"hugetlbfs-1gb"`` (the largest page that fits, from an aligned
    start).
    """

    def __init__(self, layout: str, coverage: float = 1.0, seed: int = 0) -> None:
        self.layout = layout
        self.coverage = coverage
        self.rng = random.Random(seed)

    def populate(self, process, vma):
        start, end = vma.start_vpn, vma.end_vpn
        if self.layout.startswith("eager"):
            base = process.physical.alloc_contiguous(end - start)
            process.range_table.insert(RangeTranslation(start, end, base))
            huge = self.layout == "eager-thp" and vma.thp_eligible
            self.map_region(process, start, end, lambda: huge, lambda vpn: vpn - start + base)
        elif self.layout.startswith("hugetlbfs"):
            self.map_hugetlbfs(process, start, end)
        elif self.layout == "thp" and vma.thp_eligible:
            self.map_region(
                process,
                start,
                end,
                lambda: self.coverage >= 1.0 or self.rng.random() < self.coverage,
                None,
            )
        else:
            for vpn in range(start, end):
                self.map_4kb(process, vpn, process.physical.alloc_frame())

    @staticmethod
    def map_4kb(process, vpn, pfn):
        process.page_table.map(Translation(vpn, pfn, PageSize.SIZE_4KB))

    def map_region(self, process, start, end, use_huge, pfn_for):
        vpn = start
        while vpn < end:
            if (
                vpn % PAGES_PER_2MB == 0
                and vpn + PAGES_PER_2MB <= end
                and use_huge()
                and (pfn_for is None or pfn_for(vpn) % PAGES_PER_2MB == 0)
            ):
                try:
                    pfn = pfn_for(vpn) if pfn_for else process.physical.alloc_block(9)
                except OutOfMemoryError:
                    pfn = None
                if pfn is not None:
                    process.page_table.map(Translation(vpn, pfn, PageSize.SIZE_2MB))
                    vpn += PAGES_PER_2MB
                    continue
            self.map_4kb(process, vpn, pfn_for(vpn) if pfn_for else process.physical.alloc_frame())
            vpn += 1

    def map_hugetlbfs(self, process, start, end):
        sizes = [PageSize.SIZE_2MB]
        if self.layout == "hugetlbfs-1gb":
            sizes.insert(0, PageSize.SIZE_1GB)
        vpn = start
        while vpn < end:
            for size in sizes:
                if vpn % int(size) == 0 and vpn + int(size) <= end:
                    order = int(size).bit_length() - 1
                    pfn = process.physical.alloc_block(order)
                    process.page_table.map(Translation(vpn, pfn, size))
                    vpn += int(size)
                    break
            else:
                self.map_4kb(process, vpn, process.physical.alloc_frame())
                vpn += 1


def state(process):
    return (
        process.page_table.state_dict(),
        process.physical.state_dict(),
        process.range_table.state_dict(),
    )


@pytest.mark.parametrize("config", CONFIG_NAMES)
@pytest.mark.parametrize("name", ["omnetpp", "astar", "canneal"])
def test_workload_build_matches_per_page_oracle(name, config):
    workload = get_workload(name)
    built = workload.build_process(paging_policy_for(config), PhysicalMemory(seed=42))
    reference = workload.build_process(PerPage(PAPER_LAYOUT[config]), PhysicalMemory(seed=42))
    assert state(built) == state(reference)


#: Synthetic VMAs as (pages, at_vpn, thp_eligible): unaligned heads and
#: tails, a VMA shorter than one chunk, and an ineligible one in between.
SYNTHETIC_VMAS = [
    (5 * PAGES_PER_2MB + 37, 3, True),
    (300, 8 * PAGES_PER_2MB + 100, True),
    (2 * PAGES_PER_2MB, 10 * PAGES_PER_2MB, False),
    (7 * PAGES_PER_2MB + 511, 13 * PAGES_PER_2MB, True),
    (4 * PAGES_PER_2MB, 21 * PAGES_PER_2MB + 256, True),
]


def build_synthetic(policy, physical, vmas=SYNTHETIC_VMAS, alignment=None):
    process = Process(physical=physical, policy=policy)
    for pages, at_vpn, eligible in vmas:
        process.mmap(pages, at_vpn=at_vpn, thp_eligible=eligible, alignment=alignment)
    return process


@pytest.mark.parametrize(
    "policy, reference",
    [
        (DemandPaging, lambda: PerPage("4kb")),
        (TransparentHugePaging, lambda: PerPage("thp")),
        (lambda: TransparentHugePaging(coverage=0.5, seed=11), lambda: PerPage("thp", 0.5, 11)),
        (lambda: EagerPaging("thp"), lambda: PerPage("eager-thp")),
        (lambda: EagerPaging("4kb"), lambda: PerPage("eager-4kb")),
    ],
    ids=["demand", "thp", "thp-coverage-0.5", "eager-thp", "eager-4kb"],
)
def test_synthetic_vmas_match_per_page_oracle(policy, reference):
    built = build_synthetic(policy(), PhysicalMemory(1 << 30, seed=5))
    expected = build_synthetic(reference(), PhysicalMemory(1 << 30, seed=5))
    assert state(built) == state(expected)


def fragmented_memory():
    """256 MB whose last tenth is free in blocks and the rest is holes."""
    physical = PhysicalMemory(1 << 28, seed=9)
    pinned = physical.fragment(0.9, seed=3)
    for pfn in pinned[::2]:
        physical.free_frame(pfn)
    return physical


def test_fragmented_allocator_degrades_chunks_like_the_oracle():
    built = build_synthetic(TransparentHugePaging(), fragmented_memory())
    expected = build_synthetic(PerPage("thp"), fragmented_memory())
    assert state(built) == state(expected)
    # The contiguous tail ran out mid-build: some chunks got 2 MB pages,
    # the rest degraded to 4 KB because alloc_block(9) failed.
    histogram = built.page_size_histogram()
    assert histogram[PageSize.SIZE_2MB] > 0
    assert histogram[PageSize.SIZE_4KB] > 3 * PAGES_PER_2MB
    with pytest.raises(OutOfMemoryError):
        built.physical.alloc_block(9)


@pytest.mark.parametrize(
    "page_size, layout",
    [(PageSize.SIZE_2MB, "hugetlbfs-2mb"), (PageSize.SIZE_1GB, "hugetlbfs-1gb")],
)
def test_hugetlbfs_tail_matches_per_page_oracle(page_size, layout):
    vmas = [(PAGES_PER_1GB + 3 * PAGES_PER_2MB + 11, None, True)]
    align = int(page_size)
    built = build_synthetic(HugeTLBFSPaging(page_size), PhysicalMemory(seed=1), vmas, align)
    expected = build_synthetic(PerPage(layout), PhysicalMemory(seed=1), vmas, align)
    assert state(built) == state(expected)


def test_break_huge_page_matches_per_page_demotion():
    def build():
        return build_synthetic(TransparentHugePaging(), PhysicalMemory(1 << 30, seed=5))

    built, expected = build(), build()
    victim = 13 * PAGES_PER_2MB + 3 * PAGES_PER_2MB + 77
    leaf = built.break_huge_page(victim)
    expected.page_table.unmap(leaf.vpn)
    for offset in range(PAGES_PER_2MB):
        PerPage.map_4kb(expected, leaf.vpn + offset, leaf.pfn + offset)
    assert state(built) == state(expected)
