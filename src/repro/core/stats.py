"""Simulation results: everything a paper experiment reads off one run."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..energy.model import EnergyBreakdown
from ..energy.performance import CycleBreakdown, mpki
from ..tlb.base import TLBStats


@dataclass(frozen=True, slots=True)
class FaultRecord:
    """One access the simulator survived in fault-tolerant mode."""

    index: int  # trace position of the faulting access
    vpn: int
    error: str  # exception class name
    message: str


@dataclass(frozen=True, slots=True)
class TimelineSample:
    """One Figure 4-style window: aggregate L1 MPKI over the window."""

    instructions: int  # cumulative instructions at the window end
    l1_mpki: float


@dataclass(slots=True)
class SimulationResult:
    """Measured outcome of one (workload, configuration) simulation."""

    configuration: str
    workload: str
    accesses: int
    instructions: int
    l1_misses: int
    l2_misses: int
    page_walks: int
    page_walk_refs: int
    range_walk_refs: int
    energy: EnergyBreakdown
    cycles: CycleBreakdown
    structure_stats: dict[str, TLBStats]
    hit_attribution: dict[str, int]
    timeline: list[TimelineSample] = field(default_factory=list)
    lite_intervals: int = 0
    # Fault-tolerant mode: accesses that raised and were skipped (count
    # covers the whole trace incl. fast-forward; records are capped).
    faulted_accesses: int = 0
    fault_records: list[FaultRecord] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any access faulted — treat the numbers as flagged."""
        return self.faulted_accesses > 0

    # ------------------------------------------------------------------
    @property
    def l1_mpki(self) -> float:
        """Aggregate L1 TLB misses per thousand instructions."""
        return mpki(self.l1_misses, self.instructions)

    @property
    def l2_mpki(self) -> float:
        """L2 TLB misses (page walks) per thousand instructions."""
        return mpki(self.l2_misses, self.instructions)

    @property
    def total_energy_pj(self) -> float:
        """Total dynamic address-translation energy."""
        return self.energy.total_pj

    @property
    def energy_per_access_pj(self) -> float:
        """Average dynamic energy per memory operation."""
        return self.energy.total_pj / self.accesses if self.accesses else 0.0

    @property
    def miss_cycles(self) -> int:
        """Cycles spent in TLB misses (Table 3 model)."""
        return self.cycles.total_cycles

    # ------------------------------------------------------------------
    def way_lookup_shares(self, structure: str) -> dict[int, float]:
        """Fraction of lookups at each active-way count (Table 5 left).

        Returns an empty dict if the structure was never looked up.
        """
        stats = self.structure_stats[structure]
        total = sum(stats.lookups_by_ways.values())
        if total == 0:
            return {}
        return {
            ways: count / total
            for ways, count in sorted(stats.lookups_by_ways.items(), reverse=True)
        }

    def hit_shares(self) -> dict[str, float]:
        """Fraction of L1 hits served by each structure (Table 5 right)."""
        total = sum(self.hit_attribution.values())
        if total == 0:
            return {name: 0.0 for name in self.hit_attribution}
        return {
            name: count / total for name, count in self.hit_attribution.items()
        }

    def summary_line(self) -> str:
        """Compact one-line digest for logs and examples."""
        return (
            f"{self.configuration:>9s} | {self.workload:<12s} | "
            f"energy {self.energy_per_access_pj:7.3f} pJ/access | "
            f"L1 MPKI {self.l1_mpki:7.3f} | L2 MPKI {self.l2_mpki:7.3f} | "
            f"miss cycles {self.miss_cycles}"
        )
