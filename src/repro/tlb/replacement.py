"""Alternative replacement policy: tree-PLRU set-associative TLB.

The paper's TLBs use true LRU, which Lite's utility monitoring depends on
(the LRU stack position of each hit is what feeds the distance counters).
Real L1 TLBs sometimes approximate LRU with tree-PLRU to cut metadata cost.
This module provides a tree-PLRU variant of the set-associative TLB with
the same interface, used by the replacement-policy ablation bench to
quantify how much of the paper's behaviour depends on true LRU.

Tree-PLRU keeps ``ways - 1`` bits per set arranged as a binary tree; each
bit points away from the most recently touched half.  A victim is found by
following the bits; a touch flips the bits along the path to point away
from the touched way.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..stateful import decode_entry, encode_entry, require
from .base import BatchedTLB
from .set_assoc import _is_power_of_two


class PLRUSetAssociativeTLB(BatchedTLB):
    """Set-associative TLB with tree-PLRU replacement and way-disabling.

    Interface-compatible with :class:`repro.tlb.set_assoc.SetAssociativeTLB`
    except that hits do not report an LRU stack position (tree-PLRU does
    not define one), so Lite's monitoring cannot run on top of it.
    """

    __slots__ = (
        "entries",
        "ways",
        "num_sets",
        "_set_mask",
        "active_ways",
        "_slots",
        "_trees",
    )

    def __init__(self, name: str, entries: int, ways: int) -> None:
        super().__init__(name)
        if entries % ways != 0:
            raise ConfigurationError(f"{entries} entries not divisible by {ways} ways")
        if not _is_power_of_two(ways):
            raise ConfigurationError(f"associativity {ways} must be a power of two")
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        if not _is_power_of_two(self.num_sets):
            raise ConfigurationError(f"set count {self.num_sets} must be a power of two")
        self._set_mask = self.num_sets - 1
        self.active_ways = ways
        # Per set: fixed way slots (None = invalid) and PLRU tree bits.
        self._slots: list[list] = [[None] * ways for _ in range(self.num_sets)]
        self._trees: list[list[int]] = [[0] * max(ways - 1, 1) for _ in range(self.num_sets)]

    # ------------------------------------------------------------------
    def _touch(self, set_index: int, way: int) -> None:
        """Flip the tree bits on the path to ``way`` to point away from it."""
        ways = self.active_ways
        if ways == 1:
            return
        tree = self._trees[set_index]
        node = 0
        # The tree over the active ways occupies nodes 0 .. ways-2 in
        # heap order; leaves correspond to the active way slots.
        span = ways
        lo = 0
        while span > 1:
            half = span // 2
            if way < lo + half:
                tree[node] = 1  # point right (away from touched left half)
                node = 2 * node + 1
                span = half
            else:
                tree[node] = 0  # point left
                node = 2 * node + 2
                lo += half
                span = half
            if span == 1:
                break

    def _victim(self, set_index: int) -> int:
        """Way index chosen by following the PLRU bits (invalid slot first)."""
        ways = self.active_ways
        slots = self._slots[set_index]
        for way in range(ways):
            if slots[way] is None:
                return way
        if ways == 1:
            return 0
        tree = self._trees[set_index]
        node = 0
        lo = 0
        span = ways
        while span > 1:
            half = span // 2
            if tree[node] == 0:
                node = 2 * node + 1
                span = half
            else:
                node = 2 * node + 2
                lo += half
                span = half
        return lo

    # ------------------------------------------------------------------
    def lookup(self, key: int):
        """Probe the TLB; return the cached value or ``None`` on a miss."""
        set_index = key & self._set_mask
        slots = self._slots[set_index]
        for way in range(self.active_ways):
            pair = slots[way]
            if pair is not None and pair[0] == key:
                self._pending_hits += 1
                self._touch(set_index, way)
                return pair[1]
        self._pending_misses += 1
        return None

    def fill(self, key: int, value) -> None:
        """Insert a translation into the PLRU victim slot."""
        self._pending_fills += 1
        set_index = key & self._set_mask
        slots = self._slots[set_index]
        for way in range(self.active_ways):
            pair = slots[way]
            if pair is not None and pair[0] == key:
                slots[way] = (key, value)
                self._touch(set_index, way)
                return
        way = self._victim(set_index)
        slots[way] = (key, value)
        self._touch(set_index, way)

    def peek(self, key: int):
        """Check containment without updating PLRU state or statistics."""
        slots = self._slots[key & self._set_mask]
        for way in range(self.active_ways):
            pair = slots[way]
            if pair is not None and pair[0] == key:
                return pair[1]
        return None

    def invalidate(self, key: int) -> bool:
        """Remove one translation; returns True if it was present."""
        set_index = key & self._set_mask
        slots = self._slots[set_index]
        for way in range(self.ways):
            pair = slots[way]
            if pair is not None and pair[0] == key:
                slots[way] = None
                return True
        return False

    def flush(self) -> None:
        """Invalidate every entry."""
        for slots in self._slots:
            for way in range(self.ways):
                slots[way] = None

    @property
    def max_units(self) -> int:
        """Full capacity in ways, the most :meth:`set_active_units` allows."""
        return self.ways

    @property
    def active_units(self) -> int:
        """Active ways: the capacity :meth:`sync_stats` files counts under."""
        return self.active_ways

    def set_active_units(self, ways: int) -> None:
        """Way-disabling: restrict lookups/fills to the first ``ways`` slots."""
        if not _is_power_of_two(ways) or ways > self.ways:
            raise ConfigurationError(f"active ways {ways} must be a power of two <= {self.ways}")
        self.sync_stats()
        if ways < self.active_ways:
            for slots in self._slots:
                for way in range(ways, self.ways):
                    slots[way] = None
        self.active_ways = ways
        for tree in self._trees:
            for i in range(len(tree)):
                tree[i] = 0

    def occupancy(self) -> int:
        """Number of valid entries currently held."""
        return sum(
            1 for slots in self._slots for pair in slots if pair is not None
        )

    def state_dict(self) -> dict:
        """Pure-JSON mutable state: way slots, PLRU bits, pending, stats."""
        return {
            "num_sets": self.num_sets,
            "ways": self.ways,
            "active_ways": self.active_ways,
            "slots": [
                [
                    None if pair is None else [pair[0], encode_entry(pair[1])]
                    for pair in slots
                ]
                for slots in self._slots
            ],
            "trees": [list(tree) for tree in self._trees],
            "pending": [self._pending_hits, self._pending_misses, self._pending_fills],
            "stats": self.stats.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot onto a canonically constructed structure."""
        require(
            state["num_sets"] == self.num_sets and state["ways"] == self.ways,
            f"{self.name}: snapshot geometry {state['num_sets']}x{state['ways']} "
            f"does not match {self.num_sets}x{self.ways}",
        )
        self.active_ways = state["active_ways"]
        self._slots = [
            [
                None if pair is None else (pair[0], decode_entry(pair[1]))
                for pair in slots
            ]
            for slots in state["slots"]
        ]
        self._trees = [list(tree) for tree in state["trees"]]
        self._pending_hits, self._pending_misses, self._pending_fills = state["pending"]
        self.stats.load_state_dict(state["stats"])
