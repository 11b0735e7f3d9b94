"""Per-core TLB hierarchies: the translation path of every configuration.

Two hierarchy shapes cover all six simulated configurations:

* :class:`TLBHierarchy` — Intel-style separate L1 TLBs per page size
  (Figure 1), optionally extended with RMM range TLBs (Figure 8).  Used by
  the 4KB, THP, TLB_Lite, RMM, and RMM_Lite configurations.
* :class:`MixedTLBHierarchy` — the TLB_PP configuration: a single
  set-associative L1 (and L2) holding both 4 KB and 2 MB translations,
  indexed with the help of a *perfect* page-size predictor.

Both implement the same access protocol per memory operation:

1. probe every *enabled* L1 structure in parallel (each probe is charged);
2. on an all-miss, probe the L2 structures in parallel (7 cycles);
3. on a full L2 miss, run the hardware page walk (50 cycles) and, when a
   range table exists, the background range-table walk (energy only).

Enabling follows the paper's Section 3.1 static mask: an L1 TLB for a
page size is probed only after the first walk fetches an entry of that
size; range TLBs are probed only after their first fill.  The hierarchy
tracks aggregate L1/L2 miss counts (the performance model's inputs) and
attributes every L1 hit to its serving structure (Table 5's hit shares),
with range hits taking precedence since both mappings are redundant.
:class:`BaseHierarchy` owns the range TLBs, their enable latches and the
background range-table walk once for every shape.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..stateful import require
from ..mem.range_table import RangeTable
from ..mmu.translation import SIZE_2MB, SIZE_4KB, PageSize, translation_4kb
from ..mmu.walker import PageWalker
from ..tlb.base import TranslationStructure
from ..tlb.mixed_fa import MixedFullyAssociativeTLB
from ..tlb.range_tlb import RangeTLB
from ..tlb.set_assoc import SetAssociativeTLB

class L1Slot:
    """One per-page-size L1 TLB position in the parallel probe."""

    __slots__ = ("tlb", "page_size", "shift", "enabled", "attributed_hits")

    def __init__(self, tlb, page_size: PageSize, enabled: bool = False) -> None:
        self.tlb = tlb
        self.page_size = page_size
        self.shift = int(page_size).bit_length() - 1  # 0 / 9 / 18
        self.enabled = enabled
        self.attributed_hits = 0


class BaseHierarchy:
    """Counters, bookkeeping and the RMM range path every shape shares.

    Parameters
    ----------
    walker:
        Page walker bound to the process's page table and MMU cache.
    l1_range / l2_range:
        RMM range TLBs (either may be ``None``; an L1-range TLB without an
        L2-range TLB is rejected since fills flow L2 → L1).
    range_table:
        The process's software range table; enables background range
        walks on L2 misses.

    Subclasses list their page structures in :meth:`page_structures` and
    their page hits in :meth:`page_hit_attribution`; the range TLBs, the
    MMU caches and the range hits are added here.
    """

    def __init__(
        self,
        walker: PageWalker,
        l1_range: RangeTLB | None = None,
        l2_range: RangeTLB | None = None,
        range_table: RangeTable | None = None,
    ) -> None:
        if l1_range is not None and l2_range is None:
            raise ConfigurationError("an L1-range TLB requires an L2-range TLB")
        if l2_range is not None and range_table is None:
            raise ConfigurationError("range TLBs require a range table")
        self.walker = walker
        self.l1_range = l1_range
        self.l2_range = l2_range
        self.range_table = range_table
        # Static-enable latches: range TLBs are probed once first filled.
        self._l1_range_active: RangeTLB | None = None
        self._l2_range_active: RangeTLB | None = None
        self.accesses = 0
        self.l1_misses = 0
        self.l2_misses = 0
        self.range_walk_refs = 0
        self.range_attributed_hits = 0

    def access(self, vpn: int) -> None:
        raise NotImplementedError

    def walk_range_table(self, vpn: int) -> None:
        """Background range-table walk after a full L2 miss: energy only.

        Costs no cycles; a range found fills the L2-range TLB and latches
        it on.  Called only when the hierarchy has a range table.
        """
        self.range_walk_refs += self.range_table.walk_memory_refs()
        range_entry = self.range_table.lookup(vpn)
        if range_entry is not None and self.l2_range is not None:
            self.l2_range.fill(range_entry)
            self._l2_range_active = self.l2_range

    def page_structures(self) -> list[TranslationStructure]:
        """The page TLBs, in probe order; the L2 comes last."""
        raise NotImplementedError

    def all_structures(self) -> list[TranslationStructure]:
        """Page TLBs, then the range TLBs, then the MMU caches."""
        structures = self.page_structures()
        if self.l1_range is not None:
            structures.append(self.l1_range)
        if self.l2_range is not None:
            structures.append(self.l2_range)
        structures.extend(self.walker.mmu_cache.structures)
        return structures

    def sync_stats(self) -> None:
        """Flush pending counters of every structure."""
        for structure in self.all_structures():
            structure.sync_stats()

    def reset_measurement(self) -> None:
        """Zero all statistics (end of fast-forward) keeping TLB contents."""
        for structure in self.all_structures():
            structure.reset_stats()
        self.walker.stats.reset()
        self.accesses = 0
        self.l1_misses = 0
        self.l2_misses = 0
        self.range_walk_refs = 0
        self.range_attributed_hits = 0

    def page_hit_attribution(self) -> dict[str, int]:
        """L1 page hits per serving structure."""
        raise NotImplementedError

    def hit_attribution(self) -> dict[str, int]:
        """L1 hits per serving structure (range hits take precedence)."""
        attribution = self.page_hit_attribution()
        if self.l1_range is not None:
            attribution[self.l1_range.name] = self.range_attributed_hits
        return attribution

    def flush_tlbs(self) -> None:
        """Invalidate every TLB and MMU-cache entry (context switch)."""
        for structure in self.all_structures():
            structure.flush()

    def shootdown_huge_page(self, base_vpn: int) -> None:
        """Invalidate cached translations of a demoted 2 MB page.

        Called after :meth:`repro.mem.process.Process.break_huge_page`:
        the OS sends a TLB shootdown so no structure serves the stale
        huge-page entry.  Synthesised/installed 4 KB entries for pages
        inside the region still translate to the same frames (the split
        keeps them in place) and need no invalidation.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Pure-JSON hierarchy state; subclasses extend the dict.

        Structures are keyed by name (names are unique within one
        hierarchy), so per-component digests of a snapshot identify the
        diverging structure directly.  Taking a snapshot never mutates
        state (pending hot-path counts are serialized as-is, not synced),
        so checkpointing cannot perturb the run being checkpointed.
        """
        return {
            "accesses": self.accesses,
            "l1_misses": self.l1_misses,
            "l2_misses": self.l2_misses,
            "range_walk_refs": self.range_walk_refs,
            "l1_range_active": self._l1_range_active is not None,
            "l2_range_active": self._l2_range_active is not None,
            "range_attributed_hits": self.range_attributed_hits,
            "walker": self.walker.state_dict(),
            "structures": {
                structure.name: structure.state_dict()
                for structure in self.all_structures()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore onto a canonically rebuilt hierarchy."""
        structures = {s.name: s for s in self.all_structures()}
        require(
            sorted(state["structures"]) == sorted(structures),
            "hierarchy snapshot holds different structures: "
            f"{sorted(state['structures'])} vs {sorted(structures)}",
        )
        self.accesses = state["accesses"]
        self.l1_misses = state["l1_misses"]
        self.l2_misses = state["l2_misses"]
        self.range_walk_refs = state["range_walk_refs"]
        self._l1_range_active = self.l1_range if state["l1_range_active"] else None
        self._l2_range_active = self.l2_range if state["l2_range_active"] else None
        self.range_attributed_hits = state["range_attributed_hits"]
        self.walker.load_state_dict(state["walker"])
        for name, structure_state in state["structures"].items():
            structures[name].load_state_dict(structure_state)


class TLBHierarchy(BaseHierarchy):
    """Separate-L1-per-page-size hierarchy, optionally with range TLBs.

    Parameters
    ----------
    l1_slots:
        The per-page-size L1 TLBs in probe order; exactly one must serve
        4 KB pages (it starts enabled, the others enable on first use).
    l2_page:
        The L2 TLB; holds 4 KB translations only (Sandy Bridge baseline).
    walker, l1_range, l2_range, range_table:
        As for :class:`BaseHierarchy`.
    """

    def __init__(
        self,
        l1_slots: list[L1Slot],
        l2_page: SetAssociativeTLB,
        walker: PageWalker,
        l1_range: RangeTLB | None = None,
        l2_range: RangeTLB | None = None,
        range_table: RangeTable | None = None,
    ) -> None:
        super().__init__(walker, l1_range, l2_range, range_table)
        self.l1_slots = l1_slots
        self._slot_by_size = {slot.page_size: slot for slot in l1_slots}
        if SIZE_4KB not in self._slot_by_size:
            raise ConfigurationError("hierarchy needs an L1 TLB for 4KB pages")
        self._slot_4kb = self._slot_by_size[SIZE_4KB]
        self._slot_4kb.enabled = True
        self._active_slots = [slot for slot in l1_slots if slot.enabled]
        self.l2_page = l2_page

    # ------------------------------------------------------------------
    def access(self, vpn: int) -> None:
        """Translate one memory reference, updating all statistics."""
        self.accesses += 1
        page_hit_slot = None
        for slot in self._active_slots:
            if slot.tlb.lookup(vpn >> slot.shift) is not None:
                page_hit_slot = slot
        l1_range = self._l1_range_active
        if l1_range is not None and l1_range.lookup(vpn) is not None:
            self.range_attributed_hits += 1
            return
        if page_hit_slot is not None:
            page_hit_slot.attributed_hits += 1
            return
        # --- L1 miss: parallel L2 lookups (7 cycles) -------------------
        self.l1_misses += 1
        page_entry = self.l2_page.lookup(vpn)
        l2_range = self._l2_range_active
        range_entry = l2_range.lookup(vpn) if l2_range is not None else None
        if range_entry is not None and self.l1_range is not None:
            self.l1_range.fill(range_entry)
            self._l1_range_active = self.l1_range
        if page_entry is not None:
            self._slot_4kb.tlb.fill(vpn, page_entry)
        elif range_entry is not None:
            # As in the original RMM design, a range hit synthesises the
            # 4 KB page translation (PA = VA + offset) and installs it in
            # the L1-4KB TLB; the range hardware cannot know the page-
            # table leaf size without walking, so the granule is 4 KB.
            self._slot_4kb.tlb.fill(vpn, translation_4kb(vpn, vpn + range_entry.offset))
        if page_entry is not None or range_entry is not None:
            return
        self.walk_fill(vpn)

    def walk_fill(self, vpn: int) -> None:
        """Full L2 miss: page walk (50 cycles), then the L1/L2 fills.

        Enables the walked page size's L1 slot on first use and runs the
        background range-table walk.  The fast engine's generated drains
        call this same method on every full L2 miss.
        """
        self.l2_misses += 1
        translation = self.walker.walk(vpn)
        slot = self._slot_by_size.get(translation.page_size)
        if slot is None:
            raise ConfigurationError(
                f"walk returned a {translation.page_size.label()} page but the "
                "hierarchy has no L1 TLB for that size"
            )
        if not slot.enabled:
            slot.enabled = True
            self._active_slots.append(slot)
        slot.tlb.fill(vpn >> slot.shift, translation)
        if translation.page_size is SIZE_4KB:
            self.l2_page.fill(vpn, translation)
        if self.range_table is not None:
            self.walk_range_table(vpn)

    # ------------------------------------------------------------------
    def page_structures(self) -> list[TranslationStructure]:
        return [slot.tlb for slot in self.l1_slots] + [self.l2_page]

    def page_hit_attribution(self) -> dict[str, int]:
        return {slot.tlb.name: slot.attributed_hits for slot in self.l1_slots}

    def reset_measurement(self) -> None:
        super().reset_measurement()
        for slot in self.l1_slots:
            slot.attributed_hits = 0

    def shootdown_huge_page(self, base_vpn: int) -> None:
        slot = self._slot_by_size.get(SIZE_2MB)
        if slot is not None:
            slot.tlb.invalidate(base_vpn >> 9)

    def state_dict(self) -> dict:
        state = super().state_dict()
        # Slot enablement order matters: _active_slots is probed in append
        # order and the *last* hit wins attribution, so the order is part
        # of the state, not just the membership.
        state["enabled_sizes"] = [int(slot.page_size) for slot in self._active_slots]
        state["attributed_hits"] = {
            str(int(slot.page_size)): slot.attributed_hits for slot in self.l1_slots
        }
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        enabled = [PageSize(size) for size in state["enabled_sizes"]]
        require(
            all(size in self._slot_by_size for size in enabled),
            "snapshot enables an L1 slot this hierarchy does not have",
        )
        for slot in self.l1_slots:
            slot.enabled = slot.page_size in enabled
            slot.attributed_hits = state["attributed_hits"][str(int(slot.page_size))]
        self._active_slots = [self._slot_by_size[size] for size in enabled]


class L0FilterHierarchy(TLBHierarchy):
    """Related-work baseline (paper §7): a tiny L0 TLB filtering L1 probes.

    Xue et al. [53] and the TLB-filtering line of work [11, 17, 21] save
    dynamic energy by satisfying most lookups from a very small structure
    probed *before* the L1 TLBs; only L0 misses pay the parallel L1 probe
    energy.  The L0 here is a small fully-associative mixed-size TLB
    filled from L1 hits and walk results.  Orthogonal to Lite (the
    paper's claim), which keeps working on the L1-page TLBs behind the
    filter.
    """

    def __init__(self, *args, l0: MixedFullyAssociativeTLB, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.l0 = l0
        self.l0_attributed_hits = 0

    def access(self, vpn: int) -> None:
        """Probe the L0 first; fall through to the normal path on a miss."""
        if self.l0.lookup(vpn) is not None:
            self.accesses += 1
            self.l0_attributed_hits += 1
            return
        before_misses = self.l1_misses
        super().access(vpn)
        # Promote the translation that served (or was just installed for)
        # this access into the L0 filter.
        entry = None
        for slot in self._active_slots:
            entry = slot.tlb.peek(vpn >> slot.shift) or entry
        if entry is None and self._l1_range_active is not None:
            rng = self._l1_range_active.peek(vpn)
            if rng is not None:
                entry = translation_4kb(vpn, vpn + rng.offset)
        if entry is not None:
            self.l0.fill(entry)

    def page_structures(self) -> list[TranslationStructure]:
        return [self.l0, *super().page_structures()]

    def page_hit_attribution(self) -> dict[str, int]:
        attribution = super().page_hit_attribution()
        attribution[self.l0.name] = self.l0_attributed_hits
        return attribution

    def reset_measurement(self) -> None:
        super().reset_measurement()
        self.l0_attributed_hits = 0

    def shootdown_huge_page(self, base_vpn: int) -> None:
        super().shootdown_huge_page(base_vpn)
        while self.l0.invalidate_covering(base_vpn):
            pass

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["l0_attributed_hits"] = self.l0_attributed_hits
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.l0_attributed_hits = state["l0_attributed_hits"]


class MixedTLBHierarchy(BaseHierarchy):
    """TLB_PP: single mixed-page-size L1/L2 with a perfect size predictor.

    The predictor (an oracle over the process's page table) supplies the
    actual page size before the lookup, selecting the index bits; the
    paper's TLB_PP idealisation charges it no energy and no mispredicts.
    Keys embed the size bit so 4 KB and 2 MB tags never alias.

    Optionally carries RMM range TLBs (the "orthogonal, combined"
    organization Section 6.1 proposes: the L1-range TLB for ranges,
    TLB_PP for pages, Lite on top): an L1-range TLB probed in parallel
    with the mixed L1, an L2-range TLB in parallel with the mixed L2, and
    background range-table walks on full L2 misses.
    """

    def __init__(
        self,
        l1_mixed: SetAssociativeTLB,
        l2_mixed: SetAssociativeTLB,
        walker: PageWalker,
        huge_chunks: frozenset[int],
        l1_range: RangeTLB | None = None,
        l2_range: RangeTLB | None = None,
        range_table: RangeTable | None = None,
    ) -> None:
        super().__init__(walker, l1_range, l2_range, range_table)
        self.l1_mixed = l1_mixed
        self.l2_mixed = l2_mixed
        # Mutable: huge-page breakdown events remove chunks at runtime.
        self._huge_chunks = set(huge_chunks)
        self.attributed_hits_4kb = 0
        self.attributed_hits_2mb = 0

    @staticmethod
    def oracle_key(vpn: int, huge: bool) -> int:
        """Size-disambiguated TLB key for a reference."""
        if huge:
            return ((vpn >> 9) << 1) | 1
        return vpn << 1

    def access(self, vpn: int) -> None:
        """Translate one memory reference through the mixed hierarchy."""
        self.accesses += 1
        huge = (vpn >> 9) in self._huge_chunks
        key = ((vpn >> 9) << 1) | 1 if huge else vpn << 1
        page_hit = self.l1_mixed.lookup(key) is not None
        l1_range = self._l1_range_active
        if l1_range is not None and l1_range.lookup(vpn) is not None:
            self.range_attributed_hits += 1
            return
        if page_hit:
            if huge:
                self.attributed_hits_2mb += 1
            else:
                self.attributed_hits_4kb += 1
            return
        self.l1_misses += 1
        entry = self.l2_mixed.lookup(key)
        l2_range = self._l2_range_active
        range_entry = l2_range.lookup(vpn) if l2_range is not None else None
        if range_entry is not None and self.l1_range is not None:
            self.l1_range.fill(range_entry)
            self._l1_range_active = self.l1_range
        if entry is not None:
            self.l1_mixed.fill(key, entry)
        elif range_entry is not None:
            # Synthesise the 4 KB page entry from the range, as in RMM.
            self.l1_mixed.fill(vpn << 1, translation_4kb(vpn, vpn + range_entry.offset))
        if entry is not None or range_entry is not None:
            return
        self.walk_fill(vpn)

    def walk_fill(self, vpn: int) -> None:
        """Full L2 miss: page walk, then the mixed L1/L2 fills.

        Fills under the walked reference's size-disambiguated key and runs
        the background range-table walk.  The fast engine's generated
        drains call this same method on every full L2 miss.
        """
        self.l2_misses += 1
        translation = self.walker.walk(vpn)
        key = self.oracle_key(vpn, (vpn >> 9) in self._huge_chunks)
        self.l1_mixed.fill(key, translation)
        self.l2_mixed.fill(key, translation)
        if self.range_table is not None:
            self.walk_range_table(vpn)

    def page_structures(self) -> list[TranslationStructure]:
        return [self.l1_mixed, self.l2_mixed]

    def page_hit_attribution(self) -> dict[str, int]:
        return {
            "L1-mixed (4KB)": self.attributed_hits_4kb,
            "L1-mixed (2MB)": self.attributed_hits_2mb,
        }

    def reset_measurement(self) -> None:
        super().reset_measurement()
        self.attributed_hits_4kb = 0
        self.attributed_hits_2mb = 0

    def shootdown_huge_page(self, base_vpn: int) -> None:
        chunk = base_vpn >> 9
        key = (chunk << 1) | 1
        self.l1_mixed.invalidate(key)
        self.l2_mixed.invalidate(key)
        # The perfect predictor tracks the page table: the region is now
        # 4 KB-mapped.
        self._huge_chunks.discard(chunk)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["huge_chunks"] = sorted(self._huge_chunks)
        state["attributed_hits_4kb"] = self.attributed_hits_4kb
        state["attributed_hits_2mb"] = self.attributed_hits_2mb
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._huge_chunks = set(state["huge_chunks"])
        self.attributed_hits_4kb = state["attributed_hits_4kb"]
        self.attributed_hits_2mb = state["attributed_hits_2mb"]


class PredictedMixedHierarchy(MixedTLBHierarchy):
    """Realistic TLB_Pred: a *fallible* page-size predictor.

    The paper's TLB_PP idealises TLB_Pred [41] with a perfect, zero-energy
    predictor and notes that "these results under report its true costs".
    This variant quantifies the gap: a direct-mapped last-size predictor
    (indexed by VPN bits, as in the original proposal) guesses the page
    size to pick the index bits.  A correct guess costs one probe; a
    misprediction costs a second probe of the other size (charged) and,
    when the re-probe hits, the retried lookup is counted as an L1 miss
    for timing (the retry pipelines like an L2 lookup).
    """

    def __init__(self, *args, predictor_entries: int = 512, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if predictor_entries < 1 or predictor_entries & (predictor_entries - 1):
            raise ConfigurationError("predictor_entries must be a power of two")
        self._predictor = [False] * predictor_entries
        self._predictor_mask = predictor_entries - 1
        self.mispredictions = 0

    def access(self, vpn: int) -> None:
        """Translate one reference with a predicted-size first probe."""
        self.accesses += 1
        chunk = vpn >> 9
        actual_huge = chunk in self._huge_chunks
        index = chunk & self._predictor_mask
        predicted_huge = self._predictor[index]
        first_key = ((chunk << 1) | 1) if predicted_huge else (vpn << 1)
        entry = self.l1_mixed.lookup(first_key)
        if entry is None and predicted_huge != actual_huge:
            # Mispredicted index bits: re-probe with the actual size
            # (extra read energy; retry latency counted as an L1 miss).
            self.mispredictions += 1
            second_key = ((chunk << 1) | 1) if actual_huge else (vpn << 1)
            entry = self.l1_mixed.lookup(second_key)
            self._predictor[index] = actual_huge
            if entry is not None:
                self.l1_misses += 1
                if actual_huge:
                    self.attributed_hits_2mb += 1
                else:
                    self.attributed_hits_4kb += 1
                return
        if entry is not None:
            if actual_huge:
                self.attributed_hits_2mb += 1
            else:
                self.attributed_hits_4kb += 1
            return
        # Genuine L1 miss: L2 and walk path, keyed by the actual size.
        self._predictor[index] = actual_huge
        key = ((chunk << 1) | 1) if actual_huge else (vpn << 1)
        self.l1_misses += 1
        l2_entry = self.l2_mixed.lookup(key)
        if l2_entry is not None:
            self.l1_mixed.fill(key, l2_entry)
            return
        self.walk_fill(vpn)

    @property
    def misprediction_rate(self) -> float:
        """Mispredictions per access (for reports)."""
        return self.mispredictions / self.accesses if self.accesses else 0.0

    def reset_measurement(self) -> None:
        super().reset_measurement()
        self.mispredictions = 0

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["predictor"] = list(self._predictor)
        state["mispredictions"] = self.mispredictions
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        require(
            len(state["predictor"]) == len(self._predictor),
            f"predictor snapshot has {len(state['predictor'])} entries, "
            f"expected {len(self._predictor)}",
        )
        self._predictor = list(state["predictor"])
        self.mispredictions = state["mispredictions"]


class FullyAssociativeL1Hierarchy(BaseHierarchy):
    """SPARC/AMD-style organization: one fully-associative mixed L1 TLB.

    Section 4.4: a single fully-associative L1 holds translations of all
    page sizes (one masked CAM search per access), backed by the usual
    4 KB-only L2.  Lite resizes the structure in powers of two through
    ``set_active_units``, clustering LRU distances "as if there were
    ways".
    """

    def __init__(
        self,
        l1_fa: "MixedFullyAssociativeTLB",
        l2_page: SetAssociativeTLB,
        walker: PageWalker,
    ) -> None:
        super().__init__(walker)
        self.l1_fa = l1_fa
        self.l2_page = l2_page
        self.attributed_hits = 0

    def access(self, vpn: int) -> None:
        """Translate one memory reference through the FA hierarchy."""
        self.accesses += 1
        if self.l1_fa.lookup(vpn) is not None:
            self.attributed_hits += 1
            return
        self.l1_misses += 1
        entry = self.l2_page.lookup(vpn)
        if entry is not None:
            self.l1_fa.fill(entry)
            return
        self.l2_misses += 1
        translation = self.walker.walk(vpn)
        self.l1_fa.fill(translation)
        if translation.page_size is SIZE_4KB:
            self.l2_page.fill(vpn, translation)

    def page_structures(self) -> list[TranslationStructure]:
        return [self.l1_fa, self.l2_page]

    def page_hit_attribution(self) -> dict[str, int]:
        return {self.l1_fa.name: self.attributed_hits}

    def reset_measurement(self) -> None:
        super().reset_measurement()
        self.attributed_hits = 0

    def shootdown_huge_page(self, base_vpn: int) -> None:
        entry = self.l1_fa.peek(base_vpn)
        if entry is not None and entry.page_size is SIZE_2MB:
            self.l1_fa.invalidate_covering(base_vpn)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["attributed_hits"] = self.attributed_hits
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.attributed_hits = state["attributed_hits"]
