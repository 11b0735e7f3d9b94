"""Set-associative page TLB with true-LRU replacement and way-disabling.

This is the workhorse structure of the paper: the baseline Intel-style L1
TLBs (separate per page size) and the L2-4KB TLB are all set-associative
with LRU replacement.  The Lite mechanism (Section 4.2) resizes these TLBs
by *disabling ways in powers of two* while the number of sets stays
constant; disabled ways are invalidated (Section 4.2.3) so re-enabling
never exposes stale translations.

Each set is kept as a recency-ordered list of keys (most-recently-used
first), so a hit's index in the list is exactly its LRU stack position —
the quantity the Lite monitoring hardware derives from the LRU state bits.
The cached values live in one dict keyed by key: a key can only reside in
set ``key & _set_mask``, so one dict serves every set and holds exactly
the resident keys.  A probe therefore decides hit or miss with one hash
probe of that dict, whatever the cached value (``0`` and ``None`` are
hits too); a miss never reads its set, a hit at the MRU position costs
one comparison with the set's first key, and only a deeper hit scans the
set with ``list.index`` to learn its rank.  True LRU
gives the *stack inclusion* property Lite's counters rely on: the content
of a w-way set is always a prefix of the 2w-way set's recency stack, which
makes the counter-based miss prediction exact.

Hot-path design: lookups and fills bump plain integers; the per-way-
configuration histograms that energy accounting needs are flushed into
:class:`repro.tlb.base.TLBStats` by
:meth:`repro.tlb.base.BatchedTLB.sync_stats`, which runs automatically
whenever the active-way configuration changes (the only event that
would mis-attribute pending counts).  Lite's LRU-distance
monitoring is a plain counter list (``hit_rank_counters``) incremented
inline — the index is ``rank.bit_length()``, which groups stack positions
exactly as the paper's Figure 6 does ({0}, {1}, {2-3}, {4-7}, ...).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..stateful import decode_entry, encode_entry, require
from .base import BatchedTLB


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class SetAssociativeTLB(BatchedTLB):
    """A set-associative, true-LRU TLB keyed by page-granularity VPN.

    Parameters
    ----------
    name:
        Identifier used for statistics and energy accounting
        (e.g. ``"L1-4KB"``).
    entries:
        Total entry count with all ways enabled.
    ways:
        Associativity; must divide ``entries`` and be a power of two so
        way-disabling can halve it repeatedly down to direct-mapped.

    Attributes
    ----------
    hit_rank_counters:
        Optional list of Lite LRU-distance counters.  When set, every hit
        increments ``hit_rank_counters[rank.bit_length()]`` where ``rank``
        is the hit's LRU stack position (0 = MRU).  See
        :class:`repro.core.counters.LRUDistanceCounters`.
    """

    __slots__ = (
        "entries",
        "ways",
        "num_sets",
        "_set_mask",
        "active_ways",
        "_sets",
        "_values",
        "hit_rank_counters",
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
            raise ConfigurationError(
                f"set count {self.num_sets} must be a power of two"
            )
        self._set_mask = self.num_sets - 1
        self.active_ways = ways
        # Each set: its keys, MRU -> LRU; _values maps every resident key.
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self._values: dict = {}
        self.hit_rank_counters: list[int] | None = None

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def lookup(self, key: int):
        """Probe the TLB; return the cached value or ``None`` on a miss.

        ``key`` is the page-granularity virtual page number (the caller
        divides the 4 KB VPN by the structure's page size).  Counts one
        read access at the current active-way configuration.

        Membership in ``_values`` decides the outcome, so a miss never
        touches its set.  A hit compares the key with the set's MRU key
        first; only a hit below rank 0 calls ``list.index`` for its rank
        and moves the key to the MRU position.
        """
        values = self._values
        if key not in values:
            self._pending_misses += 1
            return None
        self._pending_hits += 1
        keys = self._sets[key & self._set_mask]
        if keys[0] == key:
            rank = 0
        else:
            rank = keys.index(key)
            del keys[rank]
            keys.insert(0, key)
        counters = self.hit_rank_counters
        if counters is not None:
            counters[rank.bit_length()] += 1
        return values[key]

    def peek(self, key: int):
        """Check containment without updating LRU state or statistics."""
        return self._values.get(key)

    def fill(self, key: int, value) -> None:
        """Insert a translation, evicting the set's LRU entry if full.

        Counts one write access at the current active-way configuration.
        A fill of an already-present key refreshes its value and recency.
        """
        self._pending_fills += 1
        keys = self._sets[key & self._set_mask]
        if key in self._values:
            keys.remove(key)
        keys.insert(0, key)
        self._values[key] = value
        if len(keys) > self.active_ways:
            del self._values[keys.pop()]

    def invalidate(self, key: int) -> bool:
        """Remove one translation; returns True if it was present."""
        if key not in self._values:
            return False
        self._sets[key & self._set_mask].remove(key)
        del self._values[key]
        return True

    def flush(self) -> None:
        """Invalidate every entry (e.g. on context switch)."""
        for keys in self._sets:
            keys.clear()
        self._values.clear()

    # ------------------------------------------------------------------
    # Way-disabling (the Lite reconfiguration mechanism)
    # ------------------------------------------------------------------
    @property
    def max_units(self) -> int:
        """Full capacity in ways, the most :meth:`set_active_units` allows."""
        return self.ways

    @property
    def active_units(self) -> int:
        """Active ways: the capacity :meth:`sync_stats` files counts under."""
        return self.active_ways

    def set_active_units(self, ways: int) -> None:
        """Reconfigure the number of active ways.

        Downsizing truncates each set to the new capacity, which models
        invalidating the translations held in the disabled ways; with a
        recency-ordered set this discards exactly the least-recently-used
        entries, matching hardware that disables the ways holding the LRU
        positions.  Upsizing simply raises the capacity — re-enabled ways
        come up invalid, so no stale translations appear.
        """
        if not _is_power_of_two(ways) or ways > self.ways:
            raise ConfigurationError(
                f"active ways {ways} must be a power of two <= {self.ways}"
            )
        self.sync_stats()
        if ways < self.active_ways:
            for keys in self._sets:
                for key in keys[ways:]:
                    del self._values[key]
                del keys[ways:]
        self.active_ways = ways

    # ------------------------------------------------------------------
    # Introspection helpers (tests, debugging, reports)
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of valid entries currently held."""
        return len(self._values)

    def resident_keys(self) -> set[int]:
        """Set of all keys currently cached."""
        return set(self._values)

    def set_contents(self, set_index: int) -> list[int]:
        """Keys of one set in recency order (MRU first); for tests."""
        return list(self._sets[set_index])

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Pure-JSON mutable state: sets (MRU order), pending counts, stats.

        Each set is written as ``[key, encoded value]`` pairs, MRU first.
        ``hit_rank_counters`` is deliberately absent: the list is owned by
        Lite's :class:`repro.core.counters.LRUDistanceCounters` and is
        checkpointed by the Lite controller to preserve object identity.
        """
        return {
            "num_sets": self.num_sets,
            "ways": self.ways,
            "active_ways": self.active_ways,
            "sets": [
                [[key, encode_entry(self._values[key])] for key in keys]
                for keys in self._sets
            ],
            "pending": [self._pending_hits, self._pending_misses, self._pending_fills],
            "stats": self.stats.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot onto a canonically constructed structure.

        Each set must list at most ``active_ways`` distinct keys of that
        set: a duplicate would leave the sets and ``_values`` out of step.
        """
        require(
            state["num_sets"] == self.num_sets and state["ways"] == self.ways,
            f"{self.name}: snapshot geometry {state['num_sets']}x{state['ways']} "
            f"does not match {self.num_sets}x{self.ways}",
        )
        require(
            len(state["sets"]) == self.num_sets,
            f"{self.name}: snapshot holds {len(state['sets'])} sets, "
            f"expected {self.num_sets}",
        )
        active_ways = state["active_ways"]
        sets = [[key for key, _ in entries] for entries in state["sets"]]
        for index, keys in enumerate(sets):
            require(
                len(set(keys)) == len(keys) <= active_ways
                and all(key & self._set_mask == index for key in keys),
                f"{self.name}: snapshot set {index} must hold at most "
                f"{active_ways} distinct keys of that set, not {keys}",
            )
        self.active_ways = active_ways
        self._sets = sets
        self._values = {
            key: decode_entry(value) for entries in state["sets"] for key, value in entries
        }
        self._pending_hits, self._pending_misses, self._pending_fills = state["pending"]
        self.stats.load_state_dict(state["stats"])
