"""Paging policies: demand 4 KB, transparent huge pages, eager paging.

Each paper configuration assumes a specific OS memory-allocation policy:

* **4KB** — demand paging with 4 KB pages only, scattered frames.
* **THP** — transparent huge pages: 2 MB-aligned, fully covered chunks of
  an eligible VMA are backed by 2 MB frames; the rest by 4 KB pages.  The
  ``coverage`` knob models memory fragmentation breaking huge-page
  allocation (1.0 = pristine system, the paper's assumption).
* **Eager paging (RMM)** — each allocation request is backed by one
  physically contiguous block at request time, producing a range
  translation; page tables are still populated *redundantly* so that page
  TLBs and walks keep working (the "redundant" in RMM).  Inside the block
  pages are laid out either as THP (the paper's RMM configuration) or as
  4 KB only (the RMM_Lite configuration, which drops the L1-2MB TLB).

Policies populate mappings eagerly at ``mmap`` time.  That matches the
paper's methodology: its traces come from pagemap snapshots of already-
faulted processes, so fault-time behaviour is not part of any experiment.
"""

from __future__ import annotations

import random
from array import array
from typing import TYPE_CHECKING

import numpy as np

from ..errors import AddressSpaceError
from ..mmu.translation import PAGES_PER_2MB, PageSize, RangeTranslation, Translation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .process import Process
    from .vma import VMA


class PagingPolicy:
    """Interface: installs the physical backing for a fresh VMA."""

    def populate(self, process: "Process", vma: "VMA") -> None:
        raise NotImplementedError

    def describe(self) -> str:
        """Short label used in reports."""
        return type(self).__name__


class DemandPaging(PagingPolicy):
    """4 KB pages only, one scattered frame per page."""

    def populate(self, process: "Process", vma: "VMA") -> None:
        _map_4k_run(process, vma.start_vpn, vma.end_vpn)

    def describe(self) -> str:
        return "4KB demand paging"


def _map_4k_run(process: "Process", start: int, end: int, pfn_for=None) -> None:
    """Back [start, end) with 4 KB pages in one ``PageTable.map_run``.

    Frames come from the allocator's scatter pool, or are the contiguous
    ``pfn_for(start)...`` run for eager paging.  Either way they arrive
    as one ``array('q')``, which ``map_run`` takes as it is; the eager
    run's is filled from an ``np.arange``, not one Python int per page.
    An empty run, as THP layouts leave before most huge pages, maps
    nothing.
    """
    if start == end:
        return
    if pfn_for is None:
        pfns = process.physical.alloc_frames(end - start)
    else:
        base = pfn_for(start)
        pfns = array("q")
        pfns.frombytes(np.arange(base, base + end - start, dtype=np.int64).view(np.uint8))
    process.page_table.map_run(start, pfns)


def _map_thp_region(process: "Process", start: int, end: int, use_huge, *, pfn_for=None) -> None:
    """Map [start, end) with 2 MB pages where aligned/covered, else 4 KB.

    ``use_huge(chunk_vpn)`` decides per 2 MB chunk (coverage/fragmentation
    policy).  ``pfn_for(vpn)`` overrides frame selection for eager paging
    (contiguous block); when ``None`` frames come from the allocator.

    When physical memory is too fragmented to supply a 2 MB block, the
    chunk silently degrades to 4 KB pages — exactly what a real THP
    allocation does under fragmentation (single frames remain available
    through buddy splitting as long as any memory is free).

    The region is walked one 2 MB chunk at a time: a chunk without a huge
    page is 4 KB to its end, and ``use_huge`` is only consulted at aligned
    chunk starts.  Consecutive 4 KB chunks pile up into one pending run,
    installed just before the next huge-page attempt and at the end, so
    the allocator sees the same calls in the same order as a walk that
    maps one page at a time.
    """
    from .physical import OutOfMemoryError

    page_table = process.page_table
    physical = process.physical
    run_start = start  # first page of the pending 4 KB run
    vpn = start
    while vpn < end:
        if (
            vpn % PAGES_PER_2MB == 0
            and vpn + PAGES_PER_2MB <= end
            and use_huge(vpn)
            and (pfn_for is None or pfn_for(vpn) % PAGES_PER_2MB == 0)
        ):
            _map_4k_run(process, run_start, vpn, pfn_for)
            run_start = vpn
            try:
                pfn = pfn_for(vpn) if pfn_for else physical.alloc_block(9)
            except OutOfMemoryError:
                pfn = None  # fragmentation: degrade this chunk to 4 KB
            if pfn is not None:
                page_table.map(Translation(vpn, pfn, PageSize.SIZE_2MB))
                run_start = vpn + PAGES_PER_2MB
        vpn = min(PageSize.SIZE_2MB.align_down(vpn) + PAGES_PER_2MB, end)
    _map_4k_run(process, run_start, end, pfn_for)


class TransparentHugePaging(PagingPolicy):
    """THP: huge pages on aligned, covered, eligible chunks.

    ``coverage`` is the probability a chunk successfully gets a 2 MB
    frame; chunks that fail fall back to 4 KB pages, modelling
    fragmentation or khugepaged lag.
    """

    def __init__(self, coverage: float = 1.0, seed: int = 0) -> None:
        if not 0.0 <= coverage <= 1.0:
            raise AddressSpaceError("coverage must be in [0, 1]")
        self.coverage = coverage
        self._rng = random.Random(seed)

    def populate(self, process: "Process", vma: "VMA") -> None:
        if not vma.thp_eligible:
            DemandPaging().populate(process, vma)
            return
        _map_thp_region(
            process,
            vma.start_vpn,
            vma.end_vpn,
            lambda _vpn: self.coverage >= 1.0 or self._rng.random() < self.coverage,
        )

    def describe(self) -> str:
        return f"THP (coverage={self.coverage:g})"


class HugeTLBFSPaging(PagingPolicy):
    """Explicitly reserved huge pages (Linux hugetlbfs semantics).

    Backs aligned, fully covered stretches of a VMA with pages of the
    requested size — including 1 GB pages, which transparent huge pages
    never produce.  This is what exercises the baseline hierarchy's
    L1-1GB TLB (Figure 1) and the walker's two-reference 1 GB walks.
    Head/tail remainders cascade to the next smaller size (1 GB → 2 MB →
    4 KB), like a hugetlbfs mapping padded by ordinary memory.

    The caller must place the VMA at a virtual address aligned to the
    page size (``Process.mmap(..., alignment=int(page_size))``).
    """

    def __init__(self, page_size: PageSize = PageSize.SIZE_1GB) -> None:
        if page_size is PageSize.SIZE_4KB:
            raise AddressSpaceError("use DemandPaging for 4 KB mappings")
        self.page_size = page_size

    def populate(self, process: "Process", vma: "VMA") -> None:
        if vma.start_vpn % int(self.page_size) != 0:
            raise AddressSpaceError(
                f"{vma} not aligned to {self.page_size.label()} "
                f"(mmap with alignment={int(self.page_size)})"
            )
        page_table = process.page_table
        physical = process.physical
        vpn = vma.start_vpn
        while vpn < vma.end_vpn:
            for size in (self.page_size, PageSize.SIZE_2MB):
                if vpn % int(size) == 0 and vpn + int(size) <= vma.end_vpn:
                    order = int(size).bit_length() - 1
                    page_table.map(Translation(vpn, physical.alloc_block(order), size))
                    vpn += int(size)
                    break
            else:
                # Huge pages keep vpn 2 MB-aligned, so the first page no
                # huge page fits is the start of a tail too short for one.
                _map_4k_run(process, vpn, vma.end_vpn)
                break

    def describe(self) -> str:
        return f"hugetlbfs ({self.page_size.label()} pages)"


class EagerPaging(PagingPolicy):
    """RMM eager paging: one contiguous block + range translation per VMA.

    ``page_layout`` selects the redundant page-table layout inside the
    block: ``"thp"`` (paper's RMM config) or ``"4kb"`` (RMM_Lite).  The
    paper's configurations assume *perfect* eager paging — every request
    is satisfied contiguously — which is what a fresh buddy allocator
    provides; fragmented scenarios can be built by pre-fragmenting
    :class:`repro.mem.physical.PhysicalMemory`.
    """

    def __init__(self, page_layout: str = "thp", min_range_pages: int = 64) -> None:
        if page_layout not in ("thp", "4kb"):
            raise AddressSpaceError("page_layout must be 'thp' or '4kb'")
        if min_range_pages < 1:
            raise AddressSpaceError("min_range_pages must be >= 1")
        self.page_layout = page_layout
        self.min_range_pages = min_range_pages

    def populate(self, process: "Process", vma: "VMA") -> None:
        self._populate_range(process, vma, vma.start_vpn, vma.end_vpn)

    def _populate_range(self, process: "Process", vma: "VMA", start: int, end: int) -> None:
        """Back [start, end) with one contiguous block, splitting on demand.

        When physical memory is too fragmented for the whole request, the
        interval is halved and each half gets its own (smaller) range —
        the RMM design's range demotion under memory pressure.  Below
        ``min_range_pages`` the allocator's failure propagates (memory is
        genuinely exhausted).
        """
        from .physical import OutOfMemoryError

        num_pages = end - start
        try:
            base_pfn = process.physical.alloc_contiguous(num_pages)
        except OutOfMemoryError:
            if num_pages <= self.min_range_pages:
                raise
            middle = start + num_pages // 2
            self._populate_range(process, vma, start, middle)
            self._populate_range(process, vma, middle, end)
            return
        process.range_table.insert(RangeTranslation(start, end, base_pfn))
        offset = base_pfn - start
        huge_ok = self.page_layout == "thp" and vma.thp_eligible
        use_huge = (lambda _vpn: True) if huge_ok else (lambda _vpn: False)
        _map_thp_region(
            process,
            start,
            end,
            use_huge,
            pfn_for=lambda vpn: vpn + offset,
        )

    def describe(self) -> str:
        return f"eager paging ({self.page_layout} pages)"
