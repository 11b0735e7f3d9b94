"""x86-64 four-level radix page table.

The page table is the in-memory structure the hardware walker traverses on
a TLB miss.  We model it faithfully as a radix tree with 512-entry nodes
(PML4 → PDPT → PD → PT); leaves can sit at three levels:

* level 1 (PT): 4 KB page entries, stored as an ``array('q')`` of frame
  numbers,
* level 2 (PD): 2 MB page entries (PS bit set),
* level 3 (PDPT): 1 GB page entries.

The tree is the ground truth for all translations; the OS substrate
(:mod:`repro.mem`) installs entries, and the walker
(:mod:`repro.mmu.walker`) reads them while counting memory references.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional, Sequence

import numpy as np

from ..errors import AddressSpaceError
from .translation import (
    LEVEL_BITS,
    LEVEL_MASK,
    SIZE_4KB,
    PageSize,
    Translation,
    translation_4kb,
)


#: Bits of 4 KB page number a four-level table can translate (48-bit VA).
VPN_BITS = LEVEL_BITS * 4
#: One past the highest representable 4 KB page number.
VPN_LIMIT = 1 << VPN_BITS

#: Radix-index shifts of levels 4..2 (level 1 indexes with the bare mask).
_SHIFT_L4 = LEVEL_BITS * 3
_SHIFT_L3 = LEVEL_BITS * 2
_SHIFT_L2 = LEVEL_BITS

#: A level-1 entry that maps no page (frame numbers are non-negative).
UNMAPPED = -1
#: A level-1 table with every entry unmapped; each new table copies it.
_UNMAPPED_TABLE = array("q", [UNMAPPED]) * (LEVEL_MASK + 1)


class PageFault(Exception):
    """Raised when a walk reaches an unmapped virtual page."""

    def __init__(self, vpn4k: int) -> None:
        super().__init__(f"page fault at vpn {vpn4k:#x}")
        self.vpn4k = vpn4k


class PageTableNode:
    """One 512-entry node of the radix tree.

    Above level 1, ``entries`` maps a 9-bit index to a child node or to a
    huge-page :class:`Translation` (a 2 MB PDE or 1 GB PDPTE leaf).  A
    level-1 table's ``entries`` is an ``array('q')`` of all 512 PTEs, the
    frame number of each mapped 4 KB page and ``UNMAPPED`` elsewhere, and
    ``mapped`` counts its mapped entries.
    """

    __slots__ = ("level", "entries", "mapped")

    def __init__(self, level: int) -> None:
        self.level = level
        self.entries = array("q", _UNMAPPED_TABLE) if level == 1 else {}
        self.mapped = 0

    def index_for(self, vpn4k: int) -> int:
        """Index of this node's entry covering the given page."""
        return (vpn4k >> (LEVEL_BITS * (self.level - 1))) & LEVEL_MASK


def _subtree_empty(node: PageTableNode) -> bool:
    """True if a subtree holds no leaf anywhere."""
    if node.level == 1:
        return not node.mapped
    for entry in node.entries.values():
        if type(entry) is Translation or not _subtree_empty(entry):
            return False
    return True


#: Page-table level at which each page size's leaf entry lives.
_LEAF_LEVEL = {
    PageSize.SIZE_4KB: 1,
    PageSize.SIZE_2MB: 2,
    PageSize.SIZE_1GB: 3,
}


def _outside(vpn4k: int) -> AddressSpaceError:
    """The error for mapping a page outside the page-number space."""
    return AddressSpaceError(f"vpn {vpn4k:#x} outside the {VPN_BITS}-bit page-number space")


class PageTable:
    """A per-process four-level page table."""

    def __init__(self) -> None:
        self.root = PageTableNode(level=4)
        self._mapped_pages_4k = 0  # total 4 KB-page equivalents mapped

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map(self, translation: Translation) -> None:
        """Install a leaf entry, creating intermediate nodes as needed.

        Raises :class:`repro.errors.AddressSpaceError` if any part of the
        region is already mapped (the OS substrate must unmap first),
        which catches accidental double-allocation bugs in paging
        policies.  A 4 KB leaf is a one-page :meth:`map_run`: its table
        keeps the frame number, not the :class:`Translation`.
        """
        if translation.page_size is SIZE_4KB:
            self.map_run(translation.vpn, (translation.pfn,))
            return
        if not 0 <= translation.vpn <= VPN_LIMIT - int(translation.page_size):
            raise _outside(translation.vpn)
        leaf_level = _LEAF_LEVEL[translation.page_size]
        node = self.root
        while node.level > leaf_level:
            index = node.index_for(translation.vpn)
            child = node.entries.get(index)
            if child is None:
                child = PageTableNode(node.level - 1)
                node.entries[index] = child
            elif isinstance(child, Translation):
                raise AddressSpaceError(
                    f"vpn {translation.vpn:#x} already covered by huge page {child}"
                )
            node = child
        index = node.index_for(translation.vpn)
        existing = node.entries.get(index)
        if isinstance(existing, PageTableNode) and _subtree_empty(existing):
            # A fully unmapped subtree may linger (unmap keeps empty
            # intermediate nodes); a huge-page map reclaims it, as a
            # kernel frees an empty page-table page before installing
            # the large entry.
            existing = None
            del node.entries[index]
        if existing is not None:
            raise AddressSpaceError(
                f"vpn {translation.vpn:#x} already mapped ({existing!r})"
            )
        node.entries[index] = translation
        self._mapped_pages_4k += int(translation.page_size)

    def map_run(self, vpn4k: int, pfns: Sequence[int]) -> None:
        """Map ``len(pfns)`` consecutive 4 KB pages from ``vpn4k`` onto ``pfns``.

        Equivalent to one :meth:`map` per page, but installed one leaf
        table (up to 512 entries) at a time.  The whole run is validated
        before anything changes, and a rejected run leaves the table as it
        was: :class:`repro.errors.AddressSpaceError` names the page of the
        first frame that is negative (it would read as ``UNMAPPED``) or
        does not fit a signed 64-bit PTE, else the first page that is
        already mapped, covered by a huge page, or outside the page-number
        space.  An empty run is a no-op.

        An ``array('q')`` of frames is read as it is; any other sequence
        is first copied into one.  Then two passes over the leaf tables
        the run spans: the first checks every table in address order and
        mutates nothing, the second creates missing nodes and copies each
        table's frames in with one slice assignment.
        """
        if not pfns:
            return
        if type(pfns) is array and pfns.typecode == "q":
            frames = pfns
        else:
            try:
                frames = array("q", pfns)
            except OverflowError:
                frames = None
        if frames is None or np.frombuffer(frames, np.int64).min() < 0:
            offset = next(i for i, pfn in enumerate(pfns) if not 0 <= pfn < 1 << 63)
            raise AddressSpaceError(
                f"vpn {vpn4k + offset:#x} cannot map frame {pfns[offset]}: "
                "frame numbers run from 0 to 2**63 - 1"
            )
        end = vpn4k + len(frames)
        if vpn4k < 0:
            raise _outside(vpn4k)
        low = vpn4k
        stop = min(end, VPN_LIMIT)
        while low < stop:
            high = min((low | LEVEL_MASK) + 1, stop)
            table = self._leaf_table(low, create=False)
            first = low & LEVEL_MASK
            last = first + high - low
            if table is not None and table.entries[first:last] != _UNMAPPED_TABLE[first:last]:
                index = next(i for i in range(first, last) if table.entries[i] != UNMAPPED)
                existing = translation_4kb(low - first + index, table.entries[index])
                raise AddressSpaceError(f"vpn {existing.vpn:#x} already mapped ({existing!r})")
            low = high
        if end > VPN_LIMIT:
            raise _outside(max(vpn4k, VPN_LIMIT))
        low = vpn4k
        while low < end:
            high = min((low | LEVEL_MASK) + 1, end)
            first = low & LEVEL_MASK
            table = self._leaf_table(low, create=True)
            table.entries[first : first + high - low] = frames[low - vpn4k : high - vpn4k]
            table.mapped += high - low
            low = high
        self._mapped_pages_4k += len(frames)

    def _leaf_table(self, vpn4k: int, create: bool) -> Optional[PageTableNode]:
        """The level-1 node holding ``vpn4k``'s entry.

        Missing nodes are created when ``create`` is set; otherwise a
        missing node yields ``None``.  A huge page covering the page
        raises :class:`repro.errors.AddressSpaceError`.
        """
        node = self.root
        for shift in (_SHIFT_L4, _SHIFT_L3, _SHIFT_L2):
            index = (vpn4k >> shift) & LEVEL_MASK
            child = node.entries.get(index)
            if child is None:
                if not create:
                    return None
                child = PageTableNode(node.level - 1)
                node.entries[index] = child
            elif type(child) is Translation:
                raise AddressSpaceError(
                    f"vpn {vpn4k:#x} already covered by huge page {child}"
                )
            node = child
        return node

    def unmap(self, vpn4k: int) -> Translation:
        """Remove the leaf entry covering ``vpn4k``; returns it.

        Empty intermediate nodes are left in place (as real kernels often
        do); they are invisible to lookups.
        """
        node = self.root
        while node.level > 1:
            index = node.index_for(vpn4k)
            entry = node.entries.get(index)
            if entry is None:
                raise PageFault(vpn4k)
            if type(entry) is Translation:
                del node.entries[index]
                self._mapped_pages_4k -= int(entry.page_size)
                return entry
            node = entry
        index = vpn4k & LEVEL_MASK
        pfn = node.entries[index]
        if pfn == UNMAPPED:
            raise PageFault(vpn4k)
        node.entries[index] = UNMAPPED
        node.mapped -= 1
        self._mapped_pages_4k -= 1
        return translation_4kb(vpn4k, pfn)

    # ------------------------------------------------------------------
    # Lookup / walking
    # ------------------------------------------------------------------
    def lookup(self, vpn4k: int) -> Optional[Translation]:
        """Find the leaf translation covering a 4 KB page, or ``None``.

        Page numbers outside the four-level table's reach (negative, or
        at/above ``VPN_LIMIT``) are unmapped by definition.  Without this
        guard the per-level 9-bit masking would silently wrap them onto
        low addresses and hand back a wrong translation — exactly the
        corruption a hostile trace would exploit.

        The four-level descent is unrolled: this runs on every page walk,
        which dominates simulation time whenever TLBs miss.  Above level 1
        entries are either huge-page :class:`Translation` leaves or
        :class:`PageTableNode` children (``map`` enforces that), so an
        exact type test picks the leaf case.  Level-1 tables hold frame
        numbers, so a 4 KB hit builds its :class:`Translation` here, with
        the trusted :func:`~repro.mmu.translation.translation_4kb`.
        """
        if not 0 <= vpn4k < VPN_LIMIT:
            return None
        entry = self.root.entries.get((vpn4k >> _SHIFT_L4) & LEVEL_MASK)
        if entry is None or type(entry) is Translation:
            return entry
        entry = entry.entries.get((vpn4k >> _SHIFT_L3) & LEVEL_MASK)
        if entry is None or type(entry) is Translation:
            return entry
        entry = entry.entries.get((vpn4k >> _SHIFT_L2) & LEVEL_MASK)
        if entry is None or type(entry) is Translation:
            return entry
        pfn = entry.entries[vpn4k & LEVEL_MASK]
        if pfn == UNMAPPED:
            return None
        return translation_4kb(vpn4k, pfn)

    def walk(self, vpn4k: int) -> Translation:
        """Like :meth:`lookup` but raises :class:`PageFault` if unmapped."""
        leaf = self.lookup(vpn4k)
        if leaf is None:
            raise PageFault(vpn4k)
        return leaf

    def translate(self, vpn4k: int) -> int:
        """Physical frame number of a 4 KB virtual page (raises on fault)."""
        return self.walk(vpn4k).translate(vpn4k)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mapped_bytes(self) -> int:
        """Total bytes currently mapped."""
        return self._mapped_pages_4k << 12

    def iter_translations(self) -> Iterator[Translation]:
        """Yield all leaf entries in depth-first (address) order.

        Each 4 KB leaf is handed out as a fresh :class:`Translation`.
        """

        def visit(node: PageTableNode, base: int) -> Iterator[Translation]:
            entries = node.entries
            if node.level == 1:
                for index, pfn in enumerate(entries):
                    if pfn != UNMAPPED:
                        yield translation_4kb(base | index, pfn)
                return
            shift = LEVEL_BITS * (node.level - 1)
            for index in sorted(entries):
                entry = entries[index]
                if type(entry) is Translation:
                    yield entry
                else:
                    yield from visit(entry, base | (index << shift))

        yield from visit(self.root, 0)

    def huge_leaves(self) -> Iterator[Translation]:
        """Yield the 2 MB and 1 GB leaves in address order.

        No level-1 table is entered, so the cost does not grow with the
        number of 4 KB leaves.
        """

        def visit(node: PageTableNode) -> Iterator[Translation]:
            for index in sorted(node.entries):
                entry = node.entries[index]
                if type(entry) is Translation:
                    yield entry
                elif entry.level > 1:
                    yield from visit(entry)

        yield from visit(self.root)

    def run_pieces(self) -> Iterator[tuple[int, array, bool]]:
        """Yield the 4 KB leaves in address order, a stretch of one table at a time.

        Each item is ``(vpn, frames, joins)``: ``frames`` holds the frame
        numbers of a stretch of consecutive mapped entries inside one
        level-1 table, from page ``vpn`` on, and ``joins`` is true when
        the stretch begins where the previous one ended, across a table
        edge.  A stretch and the ones joining it make one maximal run of
        :meth:`state_dict`.  A full table's stretch is the table's own
        array: read it before the table changes, and never change it.
        """

        def visit(node: PageTableNode, base: int) -> Iterator[tuple[int, array]]:
            entries = node.entries
            if node.level == 1:
                if node.mapped == len(entries):
                    yield base, entries
                elif node.mapped:
                    mapped = np.frombuffer(entries, np.int64) != UNMAPPED
                    edges = np.flatnonzero(np.diff(mapped, prepend=False, append=False))
                    for first, last in edges.reshape(-1, 2).tolist():
                        yield base | first, entries[first:last]
                return
            shift = LEVEL_BITS * (node.level - 1)
            for index in sorted(entries):
                entry = entries[index]
                if type(entry) is not Translation:
                    yield from visit(entry, base | (index << shift))

        end = None
        for vpn, frames in visit(self.root, 0):
            yield vpn, frames, vpn == end
            end = vpn + len(frames)

    def count_nodes(self) -> dict[int, int]:
        """Number of radix nodes per level (for memory-overhead reports)."""
        counts = {4: 1, 3: 0, 2: 0, 1: 0}

        def visit(node: PageTableNode) -> None:
            for entry in node.entries.values():
                if isinstance(entry, PageTableNode):
                    counts[entry.level] += 1
                    if entry.level > 1:
                        visit(entry)

        visit(self.root)
        return counts

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Pure-JSON leaves in address order, 4 KB leaves as runs of frames.

        ``runs`` holds every maximal run of consecutive 4 KB leaves as
        ``[vpn, [pfn, ...]]``, the joined stretches of :meth:`run_pieces`,
        so the state depends only on the mapping and not on the order it
        was installed in.  ``huge`` holds each 2 MB or 1 GB leaf as
        ``[vpn, pfn, size]``.  Intermediate radix nodes, including empty
        ones left behind by ``unmap``, are not serialized: they are
        invisible to lookups and walks.
        """
        runs: list[list] = []
        for vpn, frames, joins in self.run_pieces():
            if joins:
                runs[-1][1].extend(frames)
            else:
                runs.append([vpn, frames.tolist()])
        huge = [[leaf.vpn, leaf.pfn, int(leaf.page_size)] for leaf in self.huge_leaves()]
        return {"runs": runs, "huge": huge}
