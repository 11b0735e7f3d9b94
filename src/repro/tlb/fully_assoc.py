"""Fully-associative, true-LRU lookup structures.

Used for the small structures of the hierarchy: the L1-1GB TLB (4 entries
in Sandy Bridge), the PDPTE and PML4E paging-structure caches, and — in the
SPARC/AMD-style ablation — a single mixed-page-size L1 TLB.

Lite can also resize fully-associative structures: "although there is no
notion of ways in a fully associative TLB, Lite clusters the distance of
TLB hits from the LRU position as if there were ways, and reduces the TLB
size in powers-of-two" (Section 4.4).  ``set_active_units`` implements
that capacity reduction, and ``hit_rank_counters`` provides the same
Figure 6 grouping as the set-associative TLB (index ``rank.bit_length()``).

:class:`RecencyStackTLB` is the recency stack every fully-associative
structure shares — this module's tag-keyed TLB, the range TLB
(:mod:`repro.tlb.range_tlb`) and the mixed-page-size L1
(:mod:`repro.tlb.mixed_fa`).  Each of those supplies only its own
``lookup``/``peek``/``fill``, its invalidation, and the JSON codec of
one stack entry.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..stateful import decode_entry, encode_entry, require
from .base import BatchedTLB


class RecencyStackTLB(BatchedTLB):
    """One true-LRU recency stack (MRU first), resized by entries.

    Statistics follow the :class:`repro.tlb.base.BatchedTLB` discipline,
    keyed by the active entry count.  A snapshot holds each stack entry
    as :meth:`_encode` renders it.
    """

    __slots__ = ("entries", "active_entries", "_stack", "hit_rank_counters")

    def __init__(self, name: str, entries: int) -> None:
        super().__init__(name)
        if entries < 1:
            raise ConfigurationError("entries must be >= 1")
        self.entries = entries
        self.active_entries = entries
        self._stack: list = []  # MRU first
        self.hit_rank_counters: list[int] | None = None

    def flush(self) -> None:
        """Invalidate all entries."""
        self._stack.clear()

    @property
    def max_units(self) -> int:
        """Full capacity in entries, the most :meth:`set_active_units` allows."""
        return self.entries

    @property
    def active_units(self) -> int:
        """Active entries: the capacity :meth:`sync_stats` files counts under."""
        return self.active_entries

    def set_active_units(self, entries: int) -> None:
        """Resize the structure in the Lite fashion (Section 4.4).

        Shrinking drops the least-recently-used entries; growing raises
        the capacity with the new slots starting invalid.
        """
        if entries < 1 or entries > self.entries:
            raise ConfigurationError(
                f"active entries {entries} outside [1, {self.entries}]"
            )
        self.sync_stats()
        if entries < self.active_entries:
            del self._stack[entries:]
        self.active_entries = entries

    def occupancy(self) -> int:
        """Number of valid entries currently held."""
        return len(self._stack)

    #: JSON codec of one stack entry (a cached translation by default).
    _encode = staticmethod(encode_entry)
    _decode = staticmethod(decode_entry)

    def state_dict(self) -> dict:
        """Pure-JSON mutable state: recency stack, pending counts, stats."""
        return {
            "entries": self.entries,
            "active_entries": self.active_entries,
            "stack": [self._encode(entry) for entry in self._stack],
            "pending": [self._pending_hits, self._pending_misses, self._pending_fills],
            "stats": self.stats.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot onto a canonically constructed structure."""
        require(
            state["entries"] == self.entries,
            f"{self.name}: snapshot capacity {state['entries']} does not "
            f"match {self.entries}",
        )
        self.active_entries = state["active_entries"]
        self._stack = [self._decode(data) for data in state["stack"]]
        self._pending_hits, self._pending_misses, self._pending_fills = state["pending"]
        self.stats.load_state_dict(state["stats"])


class FullyAssociativeTLB(RecencyStackTLB):
    """A fully-associative cache keyed by arbitrary hashable tags.

    Each stack entry is a ``[key, value]`` pair.
    """

    __slots__ = ()

    @staticmethod
    def _encode(pair: list) -> list:
        return [pair[0], encode_entry(pair[1])]

    @staticmethod
    def _decode(data: list) -> list:
        key, value = data
        return [key, decode_entry(value)]

    def lookup(self, key):
        """Probe the structure; return the value or ``None`` on a miss.

        :meth:`lookup`, :meth:`fill` and :meth:`invalidate` count ranks
        themselves rather than through ``enumerate``, which would build a
        tuple per entry: the PDPTE and PML4 caches run them on every walk.
        """
        stack = self._stack
        rank = 0
        for pair in stack:
            if pair[0] == key:
                self._pending_hits += 1
                counters = self.hit_rank_counters
                if counters is not None:
                    counters[rank.bit_length()] += 1
                if rank:
                    del stack[rank]
                    stack.insert(0, pair)
                return pair[1]
            rank += 1
        self._pending_misses += 1
        return None

    def peek(self, key):
        """Check containment without touching LRU state or statistics."""
        for pair in self._stack:
            if pair[0] == key:
                return pair[1]
        return None

    def fill(self, key, value) -> None:
        """Insert an entry at the MRU position, evicting the LRU if full."""
        self._pending_fills += 1
        stack = self._stack
        rank = 0
        for pair in stack:
            if pair[0] == key:
                del stack[rank]
                break
            rank += 1
        stack.insert(0, [key, value])
        if len(stack) > self.active_entries:
            stack.pop()

    def invalidate(self, key) -> bool:
        """Remove one entry; returns True if it was present."""
        stack = self._stack
        rank = 0
        for pair in stack:
            if pair[0] == key:
                del stack[rank]
                return True
            rank += 1
        return False

    def resident_keys(self) -> list:
        """Keys in recency order (MRU first); for tests."""
        return [pair[0] for pair in self._stack]
