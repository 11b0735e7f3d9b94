"""Intel-style paging-structure caches (the "MMU cache").

After an L2 TLB miss, the walker consults three small caches holding
intermediate page-table entries, all probed *in parallel* (so each walk
charges one read to each structure, per the paper's methodology which is
based on Bhattacharjee's large-reach MMU cache configuration):

=============  ========  ============  ============================
Structure      Entries   Organisation  Caches
=============  ========  ============  ============================
MMU-cache_PDE     32      2-way SA     PDE entries (VA bits 47..21)
MMU-cache_PDPTE    4      fully assoc  PDPTE entries (VA bits 47..30)
MMU-cache_PML4     2      fully assoc  PML4 entries (VA bits 47..39)
=============  ========  ============  ============================

A hit at a level lets the walk skip reading that level and everything
above it, so a 4 KB walk needs 1–4 memory references, a 2 MB walk 1–3,
and a 1 GB walk 1–2.  The deepest hit *relevant to the page size* wins:
a PDE-cache hit skips 3 levels of a 4 KB walk, a PDPTE hit skips 2, a
PML4 hit skips 1.  For a 2 MB page the PDE *is* the leaf, so the PDE
cache cannot help (its entries are non-leaf PDEs); likewise the PDPTE
cache cannot help a 1 GB walk.

Only non-leaf entries enter the caches: a completed 4 KB walk installs
its PML4E, PDPTE and PDE, a 2 MB walk its PML4E and PDPTE, and a 1 GB
walk only its PML4E (the leaf goes to the TLBs instead).  An entry the
probe found is not filled again: its hit already made it the most
recently used, and a refill would charge spurious write energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..tlb.fully_assoc import FullyAssociativeTLB
from ..tlb.set_assoc import SetAssociativeTLB
from .translation import LEVEL_BITS, SIZE_1GB, SIZE_2MB, PageSize

# Tag shifts, inlined from translation.pde_tag/pdpte_tag/pml4e_tag:
# access runs on every page walk, and the function-call overhead is
# measurable there.
_PDE_SHIFT = LEVEL_BITS
_PDPTE_SHIFT = 2 * LEVEL_BITS
_PML4_SHIFT = 3 * LEVEL_BITS


@dataclass(frozen=True, slots=True)
class MMUCacheConfig:
    """Sizes of the three paging-structure caches (defaults per Table 2)."""

    pde_entries: int = 32
    pde_ways: int = 2
    pdpte_entries: int = 4
    pml4_entries: int = 2


class MMUCache:
    """The three paging-structure caches, probed in parallel per walk."""

    def __init__(self, config: MMUCacheConfig | None = None) -> None:
        config = config or MMUCacheConfig()
        self.config = config
        self.pde = SetAssociativeTLB(
            "MMU-cache-PDE", config.pde_entries, config.pde_ways
        )
        self.pdpte = FullyAssociativeTLB("MMU-cache-PDPTE", config.pdpte_entries)
        self.pml4 = FullyAssociativeTLB("MMU-cache-PML4", config.pml4_entries)

    @property
    def structures(self) -> tuple:
        """All three caches, for stats/energy iteration."""
        return (self.pde, self.pdpte, self.pml4)

    def access(self, vpn4k: int, page_size: PageSize) -> int:
        """One walk's parallel probe and fill; returns the levels skipped.

        All three structures are charged a lookup (they are accessed in
        parallel after the L2 TLB miss).  Then each level the walk of a
        ``page_size`` page installs and the probe missed is filled, in
        PML4E, PDPTE, PDE order, so no cache is scanned twice.  See the
        module docstring for which hit counts and which level fills.
        """
        pde_tag = vpn4k >> _PDE_SHIFT
        pdpte_tag = vpn4k >> _PDPTE_SHIFT
        pml4_tag = vpn4k >> _PML4_SHIFT
        pde_hit = self.pde.lookup(pde_tag) is not None
        pdpte_hit = self.pdpte.lookup(pdpte_tag) is not None
        if self.pml4.lookup(pml4_tag) is not None:
            skipped = 1
        else:
            skipped = 0
            self.pml4.fill(pml4_tag, True)
        if page_size is SIZE_1GB:
            return skipped
        if pdpte_hit:
            skipped = 2
        else:
            self.pdpte.fill(pdpte_tag, True)
        if page_size is SIZE_2MB:
            return skipped
        if pde_hit:
            return 3
        self.pde.fill(pde_tag, True)
        return skipped

    def flush(self) -> None:
        """Invalidate all three caches."""
        for structure in self.structures:
            structure.flush()

    def state_dict(self) -> dict:
        """Pure-JSON state of all three paging-structure caches."""
        return {
            "pde": self.pde.state_dict(),
            "pdpte": self.pdpte.state_dict(),
            "pml4": self.pml4.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore all three caches from :meth:`state_dict` output."""
        self.pde.load_state_dict(state["pde"])
        self.pdpte.load_state_dict(state["pdpte"])
        self.pml4.load_state_dict(state["pml4"])
