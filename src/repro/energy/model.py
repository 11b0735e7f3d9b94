"""Dynamic-energy accounting (paper Table 3, energy model).

For every translation structure::

    E = A * E_read + M * E_write

with ``A`` lookups and ``M`` fills, both histogrammed by the active-way
configuration at access time so a way-disabled TLB is charged the energy
of the equivalent smaller structure (Table 2).  Page walks add one cache
read per page-table memory reference; the paper's default assumes every
walk reference hits the L1 data cache, and Figure 3 sweeps that hit ratio
down to 0% (references then hit the L2 cache) — ``walk_l1_hit_ratio``
exposes the sweep.  RMM's background range-table walks are charged the
same way but add no cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import ConfigurationError
from ..tlb.base import TLBStats
from .cacti import L1_CACHE, L2_CACHE_READ_PJ, EnergyParams

#: Component labels used in breakdowns (ordering = display order).
COMPONENTS = (
    "l1_page_tlbs",
    "l1_range_tlb",
    "l2_page_tlb",
    "l2_range_tlb",
    "mmu_cache",
    "page_walk",
    "range_walk",
)


@dataclass(frozen=True, slots=True)
class EnergyBinding:
    """Associates a structure's stats with its energy parameters.

    ``params_for_ways`` maps the number of active ways (or active entries
    for fully-associative structures) to the :class:`EnergyParams` of the
    equivalent structure, per Table 2's way-disabling convention;
    ``full_units`` is the structure's capacity with every way enabled.
    """

    name: str
    component: str
    stats: TLBStats
    params_for_ways: Callable[[int], EnergyParams]
    full_units: int


@dataclass(slots=True)
class EnergyBreakdown:
    """Dynamic energy (pJ) per component plus per-structure detail."""

    by_component: dict[str, float] = field(
        default_factory=lambda: {component: 0.0 for component in COMPONENTS}
    )
    by_structure: dict[str, float] = field(default_factory=dict)

    @property
    def total_pj(self) -> float:
        """Total dynamic energy in pJ."""
        return sum(self.by_component.values())

    @property
    def l1_tlb_pj(self) -> float:
        """Energy of all structures probed on every memory operation."""
        return self.by_component["l1_page_tlbs"] + self.by_component["l1_range_tlb"]

    def fraction(self, component: str) -> float:
        """Share of total energy contributed by one component."""
        total = self.total_pj
        return self.by_component[component] / total if total else 0.0


class EnergyModel:
    """Computes an :class:`EnergyBreakdown` from simulation statistics."""

    def __init__(self, walk_l1_hit_ratio: float = 1.0) -> None:
        if not 0.0 <= walk_l1_hit_ratio <= 1.0:
            raise ConfigurationError("walk_l1_hit_ratio must be in [0, 1]")
        self.walk_l1_hit_ratio = walk_l1_hit_ratio

    @property
    def walk_ref_pj(self) -> float:
        """Energy of one page-table (or range-table) memory reference."""
        ratio = self.walk_l1_hit_ratio
        return ratio * L1_CACHE.read_pj + (1.0 - ratio) * L2_CACHE_READ_PJ

    def structure_energy(self, binding: EnergyBinding) -> float:
        """Apply ``E = A*E_read + M*E_write`` over the way histograms.

        The histograms are summed in sorted-key order: a restored
        checkpoint rebuilds these dicts in serialized order rather than
        chronological insertion order, and float addition is not
        associative — unsorted iteration made a resumed run's energy
        differ from the fresh run's in the last ulp.
        """
        total = 0.0
        for ways, count in sorted(binding.stats.lookups_by_ways.items()):
            total += count * binding.params_for_ways(ways).read_pj
        for ways, count in sorted(binding.stats.fills_by_ways.items()):
            total += count * binding.params_for_ways(ways).write_pj
        return total

    def compute(
        self,
        bindings: list[EnergyBinding],
        page_walk_refs: int = 0,
        range_walk_refs: int = 0,
    ) -> EnergyBreakdown:
        """Total up all structures plus walk memory references."""
        breakdown = EnergyBreakdown()
        for binding in bindings:
            energy = self.structure_energy(binding)
            breakdown.by_component[binding.component] += energy
            breakdown.by_structure[binding.name] = (
                breakdown.by_structure.get(binding.name, 0.0) + energy
            )
        breakdown.by_component["page_walk"] = page_walk_refs * self.walk_ref_pj
        breakdown.by_component["range_walk"] = range_walk_refs * self.walk_ref_pj
        return breakdown
