"""Common TLB interfaces and per-structure statistics.

Every lookup structure in the simulator (page TLBs, range TLBs, MMU caches)
exposes the same statistics object so the energy accountant
(:mod:`repro.energy.model`) can charge reads and writes per the paper's
Table 3 model::

    E_structure = A * E_read + M * E_write

where ``A`` is the number of lookups and ``M`` the number of fills.  Because
the dynamic energy of a *way-disabled* structure differs (Table 2 gives the
energy of the equivalent smaller structure), lookups and fills are histogram-
med by the number of active ways at the time of the access.

Two bases here give every structure that counting once:
:class:`BatchedTLB` owns the pending hot-path counters and the one
``sync_stats`` that files them under the active capacity, and
:class:`PartitionedTLB` routes each access to one sub-TLB (the banked and
semantic baselines) and sums the parts' statistics.  The recency stack the
fully-associative structures share is
:class:`repro.tlb.fully_assoc.RecencyStackTLB`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..stateful import counter_from_json, counter_to_json, require


@dataclass(slots=True)
class TLBStats:
    """Access counters for one lookup structure.

    ``lookups_by_ways`` / ``fills_by_ways`` map the number of active ways
    (or active entries, for fully-associative structures resized by Lite)
    at access time to the number of accesses performed in that
    configuration.  ``hits`` + ``misses`` always equals total lookups.
    """

    hits: int = 0
    misses: int = 0
    lookups_by_ways: Counter = field(default_factory=Counter)
    fills_by_ways: Counter = field(default_factory=Counter)

    @property
    def lookups(self) -> int:
        """Total number of lookup (read) operations."""
        return self.hits + self.misses

    @property
    def fills(self) -> int:
        """Total number of fill (write) operations."""
        return sum(self.fills_by_ways.values())

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups that hit; 0.0 if never accessed."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        """Zero all counters (used when a measurement window starts)."""
        self.hits = 0
        self.misses = 0
        self.lookups_by_ways.clear()
        self.fills_by_ways.clear()

    def snapshot(self) -> "TLBStats":
        """Deep copy of the current counters."""
        return TLBStats(
            hits=self.hits,
            misses=self.misses,
            lookups_by_ways=Counter(self.lookups_by_ways),
            fills_by_ways=Counter(self.fills_by_ways),
        )

    def state_dict(self) -> dict:
        """Pure-JSON counters (checkpoint protocol, see :mod:`repro.stateful`)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups_by_ways": counter_to_json(self.lookups_by_ways),
            "fills_by_ways": counter_to_json(self.fills_by_ways),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore counters from :meth:`state_dict` output."""
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.lookups_by_ways = counter_from_json(state["lookups_by_ways"])
        self.fills_by_ways = counter_from_json(state["fills_by_ways"])


class TranslationStructure:
    """Base class for all lookup structures.

    Provides the stats object and naming; subclasses implement ``lookup``
    and ``fill`` with their own signatures (page TLBs key by page number,
    range TLBs by containment, MMU caches by partial-VA tags).

    Slotted so the hot structures get compact, dict-free instances; a
    subclass that declares no ``__slots__`` of its own still gets an
    instance dict and can carry ad-hoc attributes.
    """

    __slots__ = ("name", "stats")

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = TLBStats()

    def flush(self) -> None:
        """Invalidate all entries (does not touch statistics)."""
        raise NotImplementedError

    def sync_stats(self) -> None:
        """Flush any pending access counts into :attr:`stats`.

        :class:`BatchedTLB` and :class:`PartitionedTLB` implement it;
        reading ``stats`` without calling it first may miss in-flight
        counts.
        """

    def reset_stats(self) -> None:
        """Zero the statistics (after syncing pending counts).

        :class:`PartitionedTLB` overrides this to reset its parts as
        well.
        """
        self.sync_stats()
        self.stats.reset()

    def state_dict(self) -> dict:
        """Pure-JSON mutable state (checkpoint protocol).

        Every concrete structure implements this together with
        :meth:`load_state_dict`; see :mod:`repro.stateful` for the
        contract.
        """
        raise NotImplementedError

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class BatchedTLB(TranslationStructure):
    """A structure whose hot path bumps plain pending integers.

    ``lookup`` and ``fill`` count into ``_pending_hits``,
    ``_pending_misses`` and ``_pending_fills``; :meth:`sync_stats`
    flushes them into the histograms of :attr:`stats` under
    :attr:`active_units`, the capacity they were made at.  Every resize
    syncs first, so no count lands under a capacity it was not made at.
    The generated fast-engine drains add their local counts to the same
    three fields.
    """

    __slots__ = ("_pending_hits", "_pending_misses", "_pending_fills")

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._pending_hits = 0
        self._pending_misses = 0
        self._pending_fills = 0

    @property
    def active_units(self) -> int:
        """Current capacity: active ways, or active entries of a stack."""
        raise NotImplementedError

    def sync_stats(self) -> None:
        """Flush pending access counts into the per-configuration stats."""
        pending_lookups = self._pending_hits + self._pending_misses
        if pending_lookups:
            self.stats.hits += self._pending_hits
            self.stats.misses += self._pending_misses
            self.stats.lookups_by_ways[self.active_units] += pending_lookups
            self._pending_hits = 0
            self._pending_misses = 0
        if self._pending_fills:
            self.stats.fills_by_ways[self.active_units] += self._pending_fills
            self._pending_fills = 0


class PartitionedTLB(TranslationStructure):
    """A structure split into sub-TLBs, of which each access probes one.

    Subclasses build ``parts`` and pick the part serving a key in
    :meth:`_part`; lookups, fills and invalidations go to that part alone.
    Statistics stay per part, the ones the energy model binds (a banked
    TLB's parts share one geometry, so their sum prices each probe as one
    bank-sized access; semantic partitions differ and are bound one by
    one).  This structure's own :attr:`stats` sum the parts' for
    reporting, keeping the auditor's identity (histogram totals equal
    hits + misses) true of the aggregate too.
    """

    parts: list[TranslationStructure]

    def _part(self, key: int) -> TranslationStructure:
        """The part that serves ``key``."""
        raise NotImplementedError

    def lookup(self, key: int):
        """Probe only the selected part."""
        return self._part(key).lookup(key)

    def peek(self, key: int):
        """Containment check without side effects."""
        return self._part(key).peek(key)

    def fill(self, key: int, value) -> None:
        """Insert into the selected part."""
        self._part(key).fill(key, value)

    def invalidate(self, key: int) -> bool:
        """Remove one translation; returns True if it was present."""
        return self._part(key).invalidate(key)

    def flush(self) -> None:
        """Invalidate every part."""
        for part in self.parts:
            part.flush()

    def sync_stats(self) -> None:
        """Sync every part, then sum their counters into :attr:`stats`."""
        self.stats.reset()
        for part in self.parts:
            part.sync_stats()
            self.stats.hits += part.stats.hits
            self.stats.misses += part.stats.misses
            self.stats.lookups_by_ways.update(part.stats.lookups_by_ways)
            self.stats.fills_by_ways.update(part.stats.fills_by_ways)

    def reset_stats(self) -> None:
        """Reset this structure's and every part's statistics."""
        for part in self.parts:
            part.reset_stats()
        self.stats.reset()

    def occupancy(self) -> int:
        """Valid entries across all parts."""
        return sum(part.occupancy() for part in self.parts)

    def state_dict(self) -> dict:
        """Pure-JSON mutable state: every part plus the aggregate stats.

        How keys map to parts is construction geometry (a semantic
        classifier comes from the process's VMA layout, which the
        canonical rebuild reproduces), so it is not serialized.
        """
        return {
            "parts": [part.state_dict() for part in self.parts],
            "stats": self.stats.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot onto a canonically constructed structure."""
        require(
            len(state["parts"]) == len(self.parts),
            f"{self.name}: snapshot holds {len(state['parts'])} parts, "
            f"expected {len(self.parts)}",
        )
        for part, part_state in zip(self.parts, state["parts"]):
            part.load_state_dict(part_state)
        self.stats.load_state_dict(state["stats"])
