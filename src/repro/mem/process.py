"""Process abstraction tying together the OS memory-management substrate.

A :class:`Process` owns an address space, a page table, a range table, and
a reference to physical memory, and applies a paging policy when regions
are mapped.  Workload models build a process per run; the simulator
translates the workload's reference stream against the process's page and
range tables.
"""

from __future__ import annotations

import random

from ..errors import AddressSpaceError
from ..mmu.page_table import PageTable
from ..mmu.translation import PageSize, Translation
from ..stateful import rng_state_to_json
from .paging import DemandPaging, PagingPolicy
from .physical import PhysicalMemory
from .range_table import RangeTable
from .vma import VMA, AddressSpace


class Process:
    """One simulated process: address space + page/range tables + policy."""

    def __init__(
        self,
        physical: PhysicalMemory | None = None,
        policy: PagingPolicy | None = None,
        seed: int = 0,
    ) -> None:
        self.physical = physical if physical is not None else PhysicalMemory()
        self.policy = policy if policy is not None else DemandPaging()
        self.address_space = AddressSpace()
        self.page_table = PageTable()
        self.range_table = RangeTable()
        self.seed = seed
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Region management
    # ------------------------------------------------------------------
    def mmap(
        self,
        num_pages: int,
        name: str = "anon",
        at_vpn: int | None = None,
        thp_eligible: bool = True,
        policy: PagingPolicy | None = None,
        alignment: int | None = None,
    ) -> VMA:
        """Map a region of ``num_pages`` 4 KB pages and populate it.

        The populate step installs all physical backing immediately (see
        :mod:`repro.mem.paging` for why).  A per-call ``policy`` overrides
        the process default, letting mixed layouts be built for tests;
        ``alignment`` overrides the placement alignment (1 GB-backed
        regions pass the 1 GB page count).
        """
        vma = self.address_space.mmap(
            num_pages,
            name=name,
            at_vpn=at_vpn,
            thp_eligible=thp_eligible,
            alignment=alignment,
        )
        (policy or self.policy).populate(self, vma)
        return vma

    def mmap_bytes(self, nbytes: int, name: str = "anon", **kwargs) -> VMA:
        """Map a region sized in bytes (rounded up to whole pages)."""
        num_pages = (nbytes + 4095) >> 12
        return self.mmap(num_pages, name=name, **kwargs)

    def munmap(self, vma: VMA) -> None:
        """Tear down a VMA: page tables, ranges, and physical frames."""
        vpn = vma.start_vpn
        while vpn < vma.end_vpn:
            leaf = self.page_table.unmap(vpn)
            if leaf.page_size is PageSize.SIZE_4KB:
                self.physical.free_frame(leaf.pfn)
            else:
                self.physical.free_contiguous(leaf.pfn, int(leaf.page_size))
            vpn += int(leaf.page_size)
        # Eager paging may have split the VMA into several ranges under
        # fragmentation; remove every range inside it.
        stale = [
            rng
            for rng in list(self.range_table)
            if vma.start_vpn <= rng.base_vpn and rng.limit_vpn <= vma.end_vpn
        ]
        for rng in stale:
            self.range_table.remove(rng)
        self.address_space.munmap(vma)

    # ------------------------------------------------------------------
    # Huge-page breakdown (memory-pressure response, paper Section 4.2.2)
    # ------------------------------------------------------------------
    def break_huge_page(self, vpn4k: int) -> Translation:
        """Split the 2 MB page covering ``vpn4k`` into 512 4 KB mappings.

        Models the kernel responding to memory pressure by demoting a
        transparent huge page; the physical frames stay in place, only
        the page-table representation changes (so the range table, if
        any, remains valid).  Returns the demoted 2 MB leaf.  The caller
        is responsible for the TLB shootdown
        (:meth:`repro.core.hierarchy.BaseHierarchy.shootdown_huge_page`).
        """
        leaf = self.page_table.walk(vpn4k)
        if leaf.page_size is not PageSize.SIZE_2MB:
            raise AddressSpaceError(
                f"vpn {vpn4k:#x} is backed by a {leaf.page_size.label()} page"
            )
        self.page_table.unmap(leaf.vpn)
        self.page_table.map_run(leaf.vpn, range(leaf.pfn, leaf.pfn + int(PageSize.SIZE_2MB)))
        return leaf

    def break_huge_pages(self, fraction: float, seed: int | None = None) -> int:
        """Demote a random fraction of all 2 MB pages; returns the count.

        Victim selection draws from the process's own seeded RNG (set at
        construction) so repeated runs with the same ``Process`` seed are
        deterministic; an explicit ``seed`` pins the draw independently of
        how many random decisions the process made before this call.
        """
        if not 0.0 <= fraction <= 1.0:
            raise AddressSpaceError("fraction must be in [0, 1]")
        huge = [
            leaf.vpn
            for leaf in self.page_table.huge_leaves()
            if leaf.page_size is PageSize.SIZE_2MB
        ]
        rng = self._rng if seed is None else random.Random(seed)
        victims = rng.sample(huge, round(len(huge) * fraction))
        for vpn in victims:
            self.break_huge_page(vpn)
        return len(victims)

    # ------------------------------------------------------------------
    # Translation ground truth
    # ------------------------------------------------------------------
    def translate(self, vpn4k: int) -> int:
        """Physical frame of a virtual page, straight from the page table."""
        return self.page_table.translate(vpn4k)

    def leaf_for(self, vpn4k: int) -> Translation:
        """Leaf page-table entry covering a page (raises PageFault)."""
        return self.page_table.walk(vpn4k)

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def page_size_histogram(self) -> dict[PageSize, int]:
        """Count of leaf entries per page size (layout sanity checks).

        Huge leaves are counted one by one; the 4 KB count is whatever
        the table maps beyond them.
        """
        histogram: dict[PageSize, int] = {size: 0 for size in PageSize}
        huge_pages = 0
        for leaf in self.page_table.huge_leaves():
            histogram[leaf.page_size] += 1
            huge_pages += int(leaf.page_size)
        histogram[PageSize.SIZE_4KB] = (self.page_table.mapped_bytes >> 12) - huge_pages
        return histogram

    def describe(self) -> str:
        """One-line summary for logs and examples."""
        mapped_mb = self.address_space.mapped_pages * 4096 / (1 << 20)
        return (
            f"Process[{self.policy.describe()}]: "
            f"{len(self.address_space)} VMAs, {mapped_mb:.1f} MB mapped, "
            f"{len(self.range_table)} ranges"
        )

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Pure-JSON mutable OS state.

        The address space (VMA layout) is deliberately absent: it is
        construction geometry — workload builders lay it out
        deterministically from the workload seed, and nothing in the
        simulation loop mutates VMAs.  What does change mid-run (huge-page
        demotions, allocator churn, RNG draws) is captured here.

        Snapshots record only this state's digest: a restore rebuilds
        the process and re-fires the run's OS events instead of loading
        it (:func:`repro.resilience.checkpoint.restore_simulation`).
        """
        return {
            "seed": self.seed,
            "physical": self.physical.state_dict(),
            "page_table": self.page_table.state_dict(),
            "range_table": self.range_table.state_dict(),
            "rng": rng_state_to_json(self._rng.getstate()),
        }
