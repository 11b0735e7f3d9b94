"""Physical memory: a buddy frame allocator with fragmentation controls.

The virtual→physical layout is what distinguishes the paper's
configurations: demand 4 KB paging scatters frames, transparent huge pages
need 2 MB-aligned contiguous blocks, and RMM's eager paging needs one
arbitrarily large contiguous block per allocation request.  A classic
binary-buddy allocator supports all three:

* ``alloc_block(order)`` returns a naturally aligned 2^order-frame block —
  THP uses order 9 (2 MB).
* ``alloc_contiguous(n)`` carves an arbitrary-length run out of a covering
  power-of-two block and returns the tail to the free lists — eager paging
  uses this, and the natural alignment of the covering block guarantees
  the 2 MB alignment RMM needs to lay huge pages inside the range.
* ``alloc_frame()`` returns single frames drawn from a *shuffled* pool, so
  demand-paged 4 KB mappings are physically non-contiguous the way an aged
  system's would be (otherwise a fresh buddy allocator hands out ascending
  frames and 4 KB paging would accidentally produce perfect ranges).

Free lists use a heap per order with lazy deletion, so allocation is
deterministic (lowest address wins) and O(log n), which matters when a
1.7 GB mcf-sized footprint demand-faults ~450 K frames at setup.
"""

from __future__ import annotations

import heapq
from array import array

import numpy as np

from ..errors import AddressSpaceError

#: Frames handed to the scatter pool per refill (order-12 block = 16 MB).
_SCATTER_REFILL_ORDER = 12


class OutOfMemoryError(Exception):
    """The allocator cannot satisfy a request."""


def _covering_order(npages: int) -> int:
    """Smallest order whose block covers ``npages`` frames."""
    return max(npages - 1, 0).bit_length()


class PhysicalMemory:
    """Binary-buddy allocator over a flat physical frame space.

    Parameters
    ----------
    total_bytes:
        Size of physical memory; must be a multiple of 4 KB.
    seed:
        Seed for the numpy generator that permutes each scatter-pool
        refill (single-frame allocations).
    """

    def __init__(self, total_bytes: int = 32 << 30, seed: int = 0) -> None:
        if total_bytes <= 0 or total_bytes % 4096 != 0:
            raise AddressSpaceError("total_bytes must be a positive multiple of 4096")
        self.total_frames = total_bytes >> 12
        self.max_order = _covering_order(self.total_frames)
        # Per order: heap of block starts + membership set (lazy deletion).
        self._heaps: list[list[int]] = [[] for _ in range(self.max_order + 1)]
        self._free: list[set[int]] = [set() for _ in range(self.max_order + 1)]
        self._frames_free = 0
        self._rng = np.random.default_rng(seed)
        self._scatter_pool = array("q")
        # Seed the free lists with the power-of-two decomposition of the
        # arena (handles non-power-of-two sizes).
        self._free_run(0, self.total_frames)

    # ------------------------------------------------------------------
    # Free-list primitives
    # ------------------------------------------------------------------
    def _push(self, pfn: int, order: int) -> None:
        heapq.heappush(self._heaps[order], pfn)
        self._free[order].add(pfn)
        self._frames_free += 1 << order

    def _pop_order(self, order: int) -> int:
        """Pop the lowest-address free block of exactly this order."""
        heap = self._heaps[order]
        live = self._free[order]
        while heap:
            pfn = heapq.heappop(heap)
            if pfn in live:
                live.remove(pfn)
                self._frames_free -= 1 << order
                return pfn
        raise OutOfMemoryError(f"no free block of order {order}")

    def _remove_specific(self, pfn: int, order: int) -> bool:
        """Remove a specific block from its free list (for buddy merging)."""
        if pfn in self._free[order]:
            self._free[order].remove(pfn)
            self._frames_free -= 1 << order
            return True
        return False

    # ------------------------------------------------------------------
    # Block allocation
    # ------------------------------------------------------------------
    def alloc_block(self, order: int) -> int:
        """Allocate a naturally aligned block of 2^order frames.

        A request larger than the whole arena raises
        :class:`OutOfMemoryError` (policies treat it like any other
        allocation failure and degrade); a negative order is a bug.
        """
        if order < 0:
            raise AddressSpaceError(f"order {order} must be non-negative")
        if order > self.max_order:
            raise OutOfMemoryError(
                f"order {order} exceeds the arena (max order {self.max_order})"
            )
        found = None
        for candidate in range(order, self.max_order + 1):
            if self._free[candidate]:
                found = candidate
                break
        if found is None:
            raise OutOfMemoryError(f"no free block of order >= {order}")
        pfn = self._pop_order(found)
        # Split down, returning upper halves to the free lists.
        while found > order:
            found -= 1
            self._push(pfn + (1 << found), found)
        return pfn

    def free_block(self, pfn: int, order: int) -> None:
        """Free a block, merging with its buddy as far as possible."""
        if pfn % (1 << order) != 0:
            raise AddressSpaceError(f"block {pfn:#x} not aligned to order {order}")
        while order < self.max_order:
            buddy = pfn ^ (1 << order)
            if buddy + (1 << order) > self.total_frames:
                break
            if not self._remove_specific(buddy, order):
                break
            pfn = min(pfn, buddy)
            order += 1
        self._push(pfn, order)

    # ------------------------------------------------------------------
    # Arbitrary-length contiguous allocation (eager paging)
    # ------------------------------------------------------------------
    def alloc_contiguous(self, npages: int) -> int:
        """Allocate ``npages`` physically contiguous frames.

        The run starts at a block aligned to the covering power of two, so
        any 2 MB-aligned offset into the run is itself 2 MB aligned in
        physical memory (required for laying huge pages inside a range).
        The unused tail is returned to the free lists immediately.
        """
        if npages <= 0:
            raise AddressSpaceError("npages must be positive")
        order = _covering_order(npages)
        pfn = self.alloc_block(order)
        self._free_run(pfn + npages, (1 << order) - npages)
        return pfn

    def free_contiguous(self, pfn: int, npages: int) -> None:
        """Free a run previously returned by :meth:`alloc_contiguous`."""
        self._free_run(pfn, npages)

    def _free_run(self, pfn: int, npages: int) -> None:
        """Free an arbitrary frame run via maximal aligned power-of-two blocks."""
        while npages > 0:
            order = min(
                (pfn & -pfn).bit_length() - 1 if pfn else self.max_order,
                npages.bit_length() - 1,
            )
            self.free_block(pfn, order)
            pfn += 1 << order
            npages -= 1 << order

    # ------------------------------------------------------------------
    # Scattered single-frame allocation (demand 4 KB paging)
    # ------------------------------------------------------------------
    def alloc_frame(self) -> int:
        """Allocate one frame from the shuffled scatter pool."""
        if not self._scatter_pool:
            self._refill_scatter_pool()
        return self._scatter_pool.pop()

    def alloc_frames(self, n: int) -> array:
        """Allocate ``n`` scattered frames, as an ``array('q')``.

        Holds exactly the frames of ``[self.alloc_frame() for _ in
        range(n)]``, in the same order, refilling the pool at the same
        points, but takes each stretch of the pool as one slice.
        """
        frames = array("q")
        pool = self._scatter_pool
        while n > 0:
            if not pool:
                self._refill_scatter_pool()
            cut = max(len(pool) - n, 0)
            taken = pool[cut:]
            del pool[cut:]
            taken.reverse()  # alloc_frame pops from the end
            frames += taken
            n -= len(taken)
        return frames

    def free_frame(self, pfn: int) -> None:
        """Return a single frame to the buddy free lists."""
        self.free_block(pfn, 0)

    def _refill_scatter_pool(self) -> None:
        """Split off a chunk of frames and add them to the pool, permuted.

        The chunk is the largest block up to order 12 that ``alloc_block``
        can supply.  A seeded ``Generator.permutation`` orders its frames,
        and the pool, an ``array('q')``, copies them from its buffer.
        """
        order = _SCATTER_REFILL_ORDER
        while order >= 0:
            try:
                base = self.alloc_block(order)
                break
            except OutOfMemoryError:
                order -= 1
        else:
            raise OutOfMemoryError("physical memory exhausted")
        block = self._rng.permutation(1 << order)
        self._scatter_pool.frombytes(np.add(block, base, dtype=np.int64).tobytes())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def frames_free(self) -> int:
        """Frames currently free (scatter-pool frames count as allocated)."""
        return self._frames_free

    @property
    def scatter_pool_frames(self) -> int:
        """Frames parked in the scatter pool (allocated but not handed out)."""
        return len(self._scatter_pool)

    @property
    def frames_used(self) -> int:
        """Frames handed out (including those parked in the scatter pool)."""
        return self.total_frames - self._frames_free

    def fragment(self, fraction: float, seed: int | None = None) -> array:
        """Artificially age the allocator by pinning random single frames.

        Allocates ``fraction`` of free memory as scattered frames and
        returns them (callers may free a subset to create holes).  Used by
        the THP-fragmentation ablation to make 2 MB allocations fail.
        """
        if not 0.0 <= fraction <= 1.0:
            raise AddressSpaceError("fraction must be in [0, 1]")
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        return self.alloc_frames(int(self._frames_free * fraction))

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Pure-JSON allocator state.

        Free lists serialize as the sorted *live* block starts per order —
        lazily deleted heap entries are dropped, which is behaviour-
        identical because :meth:`_pop_order` always returns the lowest
        live address either way.  The generator's state is numpy's
        ``bit_generator.state`` dict, which is already pure JSON.
        """
        return {
            "total_frames": self.total_frames,
            "free": [sorted(live) for live in self._free],
            "scatter_pool": self._scatter_pool.tolist(),
            "rng": self._rng.bit_generator.state,
        }
