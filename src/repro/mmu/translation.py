"""Core virtual-memory types: page sizes, page-number arithmetic, translations.

Everything in the simulator works on *4 KB-granularity virtual page numbers*
(``vpn4k = virtual_address >> 12``) rather than raw byte addresses.  That is
exactly the granularity at which TLBs, page tables, and range translations
operate, and it keeps the hot simulation loop on small integers.

The x86-64 4-level paging terminology used throughout:

======  =========================  ==================  ===============
Level   Structure                  VA bits             Maps (leaf)
======  =========================  ==================  ===============
4       PML4                       47..39              --
3       PDPT (page-dir pointers)   38..30              1 GB page
2       PD (page directory)        29..21              2 MB page
1       PT (page table)            20..12              4 KB page
======  =========================  ==================  ===============
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import TranslationDomainError, TranslationError

# Width of one radix-tree index (512 entries per node).
LEVEL_BITS = 9
LEVEL_MASK = (1 << LEVEL_BITS) - 1

# Byte shift of a 4 KB page.
PAGE_SHIFT_4KB = 12

#: Number of 4 KB pages per 2 MB / 1 GB page.
PAGES_PER_2MB = 1 << LEVEL_BITS  # 512
PAGES_PER_1GB = 1 << (2 * LEVEL_BITS)  # 262144


class PageSize(enum.IntEnum):
    """Supported x86-64 page sizes.

    The integer values are the number of 4 KB pages covered, so
    ``vpn4k & ~(size - 1)`` aligns a page number down to a page boundary.
    """

    SIZE_4KB = 1
    SIZE_2MB = PAGES_PER_2MB
    SIZE_1GB = PAGES_PER_1GB

    @property
    def bytes(self) -> int:
        """Size of the page in bytes."""
        return int(self) << PAGE_SHIFT_4KB

    @property
    def page_shift(self) -> int:
        """log2 of the page size in bytes (12, 21, or 30)."""
        return PAGE_SHIFT_4KB + int(self).bit_length() - 1

    @property
    def walk_levels(self) -> int:
        """Number of page-table levels traversed to reach the leaf entry.

        4 memory references for a 4 KB page, 3 for 2 MB, 2 for 1 GB
        (Section 3.2 of the paper); read from :data:`WALK_LEVELS`.
        """
        return WALK_LEVELS[self]

    def align_down(self, vpn4k: int) -> int:
        """Align a 4 KB-granularity page number down to this page size."""
        return vpn4k & ~(int(self) - 1)

    def label(self) -> str:
        """Human-readable size label ('4KB', '2MB', '1GB')."""
        return {1: "4KB", PAGES_PER_2MB: "2MB", PAGES_PER_1GB: "1GB"}[int(self)]


# Module-level aliases of the members: the walk path tests sizes with
# ``is`` on every page walk, and reading a member through the enum class
# costs more than a dozen global reads.
SIZE_4KB = PageSize.SIZE_4KB
SIZE_2MB = PageSize.SIZE_2MB
SIZE_1GB = PageSize.SIZE_1GB

#: Page-table levels a walk reads to reach each page size's leaf entry.
WALK_LEVELS = {SIZE_4KB: 4, SIZE_2MB: 3, SIZE_1GB: 2}


def pt_index(vpn4k: int) -> int:
    """Page-table (level 1) index of a 4 KB page number."""
    return vpn4k & LEVEL_MASK


def pd_index(vpn4k: int) -> int:
    """Page-directory (level 2) index of a 4 KB page number."""
    return (vpn4k >> LEVEL_BITS) & LEVEL_MASK


def pdpt_index(vpn4k: int) -> int:
    """PDPT (level 3) index of a 4 KB page number."""
    return (vpn4k >> (2 * LEVEL_BITS)) & LEVEL_MASK


def pml4_index(vpn4k: int) -> int:
    """PML4 (level 4) index of a 4 KB page number."""
    return (vpn4k >> (3 * LEVEL_BITS)) & LEVEL_MASK


def pde_tag(vpn4k: int) -> int:
    """Tag identifying the PD entry covering this page (VA bits 47..21).

    Used by the MMU cache that stores PDE-level entries: a hit means the
    walk can skip directly to reading the leaf PTE.
    """
    return vpn4k >> LEVEL_BITS


def pdpte_tag(vpn4k: int) -> int:
    """Tag identifying the PDPT entry covering this page (VA bits 47..30)."""
    return vpn4k >> (2 * LEVEL_BITS)


def pml4e_tag(vpn4k: int) -> int:
    """Tag identifying the PML4 entry covering this page (VA bits 47..39)."""
    return vpn4k >> (3 * LEVEL_BITS)


@dataclass(frozen=True, slots=True)
class Translation:
    """A single page translation as cached by a page TLB.

    ``vpn`` and ``pfn`` are aligned to ``page_size`` and expressed in 4 KB
    units, so the translated frame of an arbitrary page ``v`` inside the
    mapping is ``pfn + (v - vpn)``.
    """

    vpn: int
    pfn: int
    page_size: PageSize

    def __post_init__(self) -> None:
        if self.vpn % int(self.page_size) != 0:
            raise TranslationError(
                f"vpn {self.vpn:#x} not aligned to {self.page_size.label()}"
            )
        if self.pfn % int(self.page_size) != 0:
            raise TranslationError(
                f"pfn {self.pfn:#x} not aligned to {self.page_size.label()}"
            )

    def covers(self, vpn4k: int) -> bool:
        """True if this translation maps the given 4 KB page."""
        return self.vpn <= vpn4k < self.vpn + int(self.page_size)

    def translate(self, vpn4k: int) -> int:
        """Physical frame number (4 KB units) of a page inside the mapping."""
        if not self.covers(vpn4k):
            raise TranslationDomainError(f"vpn {vpn4k:#x} outside translation {self}")
        return self.pfn + (vpn4k - self.vpn)


# The frozen class's slot setters, bound once: they write a slot without
# the ``__setattr__`` that freezes it.
_new = object.__new__
_set_vpn = Translation.vpn.__set__
_set_pfn = Translation.pfn.__set__
_set_page_size = Translation.page_size.__set__


def translation_4kb(vpn: int, pfn: int) -> Translation:
    """The trusted constructor of a 4 KB :class:`Translation`.

    Returns the same frozen class as ``Translation(vpn, pfn, SIZE_4KB)``,
    equal to it with the same hash, repr and encoding, but writes the
    three slots directly instead of running the dataclass ``__init__``
    and ``__post_init__``: every int is aligned to one 4 KB page, so the
    alignment check cannot fail.  For translations the program derives
    from its own state (a page-table leaf, an RMM range synthesis);
    input from outside the program (a snapshot, a caller's ``map``)
    goes through the validating constructor.
    """
    translation = _new(Translation)
    _set_vpn(translation, vpn)
    _set_pfn(translation, pfn)
    _set_page_size(translation, SIZE_4KB)
    return translation


@dataclass(frozen=True, slots=True)
class RangeTranslation:
    """An RMM range translation: an arbitrarily large contiguous mapping.

    Maps the half-open virtual page interval ``[base_vpn, limit_vpn)`` onto
    the physical interval starting at ``base_pfn``; virtual and physical
    pages correspond one-to-one (both contiguous).  ``offset`` is the
    constant ``base_pfn - base_vpn`` the hardware adds on a hit.
    """

    base_vpn: int
    limit_vpn: int
    base_pfn: int

    def __post_init__(self) -> None:
        if self.limit_vpn <= self.base_vpn:
            raise TranslationError(
                f"empty range [{self.base_vpn:#x}, {self.limit_vpn:#x})"
            )

    @property
    def num_pages(self) -> int:
        """Number of 4 KB pages the range covers."""
        return self.limit_vpn - self.base_vpn

    @property
    def offset(self) -> int:
        """Constant VPN→PFN offset applied on a range-TLB hit."""
        return self.base_pfn - self.base_vpn

    def covers(self, vpn4k: int) -> bool:
        """True if the range maps the given 4 KB page (double comparison)."""
        return self.base_vpn <= vpn4k < self.limit_vpn

    def translate(self, vpn4k: int) -> int:
        """Physical frame number of a page inside the range."""
        if not self.covers(vpn4k):
            raise TranslationDomainError(f"vpn {vpn4k:#x} outside range {self}")
        return vpn4k + self.offset

    def overlaps(self, other: "RangeTranslation") -> bool:
        """True if the virtual intervals of two ranges intersect."""
        return self.base_vpn < other.limit_vpn and other.base_vpn < self.limit_vpn
