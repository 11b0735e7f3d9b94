"""Runtime invariant auditing: a sanitizer mode for the simulator.

The paper's headline numbers are ratios of accumulated counters, so a
single silently-miscounted statistic corrupts a whole figure without any
visible failure.  The :class:`InvariantAuditor` turns the accounting
identities the codebase relies on into executable checks:

* **conservation** — every memory operation is either attributed to a
  serving structure or counted as an L1 miss; L2 misses never exceed L1
  misses; page walks match L2 misses (up to recorded faults);
* **histogram consistency** — the per-way lookup histograms that feed the
  energy model sum to exactly the hit+miss counters;
* **energy closure** — component energies are non-negative and sum to
  ``total_energy_pj``; recomputing the model from the bindings reproduces
  the reported breakdown;
* **structure sanity** — Lite's active-way counts stay inside
  ``[min, ways]`` and remain powers of two; every set-associative LRU
  stack holds unique keys within its active capacity (a permutation of a
  subset of resident keys, never duplicated or overfull).

A failed check raises :class:`repro.errors.InvariantViolation` with the
numbers that went into it.  The auditor is read-only (it only forces a
stats sync, which is idempotent), so enabling it must not change any
result — ``tests/test_robustness.py`` guards that property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import InvariantViolation


@dataclass(slots=True)
class InvariantAuditor:
    """Checks accounting identities during and after a simulation.

    Parameters
    ----------
    tolerance:
        Absolute slack for floating-point identities (energy sums).
    """

    tolerance: float = 1e-6
    checks_run: int = 0
    violations: list[InvariantViolation] = field(default_factory=list)
    raise_on_violation: bool = True

    # ------------------------------------------------------------------
    def _fail(self, invariant: str, message: str, context: dict) -> None:
        violation = InvariantViolation(invariant, message, context)
        self.violations.append(violation)
        if self.raise_on_violation:
            raise violation

    def _check(self, condition: bool, invariant: str, message: str, context: dict) -> None:
        self.checks_run += 1
        if not condition:
            self._fail(invariant, message, context)

    # ------------------------------------------------------------------
    # Live-hierarchy checks (run mid-simulation and at the end)
    # ------------------------------------------------------------------
    def audit_hierarchy(self, hierarchy, lite=None, faulted_accesses: int = 0) -> None:
        """Check a live hierarchy's counters against each other."""
        from ..core.hierarchy import PredictedMixedHierarchy
        from ..tlb.set_assoc import SetAssociativeTLB

        hierarchy.sync_stats()
        accesses = hierarchy.accesses
        l1_misses = hierarchy.l1_misses
        l2_misses = hierarchy.l2_misses
        counts = {
            "accesses": accesses,
            "l1_misses": l1_misses,
            "l2_misses": l2_misses,
        }
        self._check(
            accesses >= 0 and l1_misses >= 0 and l2_misses >= 0,
            "non-negative-counters",
            "hierarchy counters must be non-negative",
            counts,
        )
        self._check(
            l1_misses <= accesses,
            "miss-bound",
            "L1 misses cannot exceed accesses",
            counts,
        )
        self._check(
            l2_misses <= l1_misses,
            "miss-order",
            "L2 misses cannot exceed L1 misses",
            counts,
        )

        attribution = hierarchy.hit_attribution()
        attributed = sum(attribution.values())
        surplus = attributed + l1_misses - accesses
        if isinstance(hierarchy, PredictedMixedHierarchy):
            # A mispredicted-then-hit access is charged both an attribution
            # and an L1 miss (the retry pipelines like an L2 lookup), so
            # the surplus is bounded by the misprediction count.
            self._check(
                0 <= surplus <= hierarchy.mispredictions,
                "hit-attribution",
                "attributed hits + L1 misses must equal accesses "
                "up to mispredicted retries",
                {**counts, "attributed": attributed,
                 "mispredictions": hierarchy.mispredictions},
            )
        else:
            self._check(
                surplus == 0,
                "hit-attribution",
                "attributed hits + L1 misses must equal accesses",
                {**counts, "attributed": attributed, "attribution": attribution},
            )

        walks = hierarchy.walker.stats.walks
        self._check(
            0 <= l2_misses - walks <= faulted_accesses,
            "walk-count",
            "page walks must match L2 misses up to recorded faults",
            {**counts, "page_walks": walks, "faulted_accesses": faulted_accesses},
        )

        for structure in hierarchy.all_structures():
            self._audit_structure_stats(structure.name, structure.stats)
            if isinstance(structure, SetAssociativeTLB):
                self._audit_set_assoc(structure)

        if lite is not None:
            self.audit_lite(lite)

    def _audit_structure_stats(self, name: str, stats) -> None:
        """Histogram totals must match the hit/miss counters."""
        histogram_lookups = sum(stats.lookups_by_ways.values())
        self._check(
            stats.hits >= 0 and stats.misses >= 0,
            "structure-non-negative",
            f"{name}: hit/miss counters must be non-negative",
            {"structure": name, "hits": stats.hits, "misses": stats.misses},
        )
        self._check(
            histogram_lookups == stats.hits + stats.misses,
            "lookup-histogram",
            f"{name}: per-way lookup histogram must sum to hits + misses",
            {
                "structure": name,
                "histogram_lookups": histogram_lookups,
                "hits": stats.hits,
                "misses": stats.misses,
            },
        )
        self._check(
            all(count >= 0 for count in stats.fills_by_ways.values()),
            "fill-histogram",
            f"{name}: per-way fill histogram must be non-negative",
            {"structure": name, "fills": dict(stats.fills_by_ways)},
        )

    def _audit_set_assoc(self, tlb) -> None:
        """Active-way bounds and LRU-stack integrity of one TLB."""
        context = {
            "structure": tlb.name,
            "active_ways": tlb.active_ways,
            "ways": tlb.ways,
        }
        self._check(
            1 <= tlb.active_ways <= tlb.ways,
            "active-ways-range",
            f"{tlb.name}: active ways must stay within [1, ways]",
            context,
        )
        self._check(
            tlb.active_ways & (tlb.active_ways - 1) == 0,
            "active-ways-pow2",
            f"{tlb.name}: active ways must be a power of two",
            context,
        )
        for index in range(tlb.num_sets):
            contents = tlb.set_contents(index)
            if len(contents) > tlb.active_ways:
                self._fail(
                    "lru-capacity",
                    f"{tlb.name}: set {index} exceeds its active capacity",
                    {**context, "set": index, "occupancy": len(contents)},
                )
            if len(set(contents)) != len(contents):
                self._fail(
                    "lru-permutation",
                    f"{tlb.name}: set {index} holds duplicate keys "
                    "(recency stack is not a permutation)",
                    {**context, "set": index, "keys": contents},
                )
        self.checks_run += 1  # the per-set scan counts as one check

    def audit_lite(self, lite) -> None:
        """Lite's monitored TLBs stay inside their legal range."""
        for tlb in lite.tlbs:
            context = {
                "unit": tlb.name,
                "active_units": tlb.active_units,
                "max_units": tlb.max_units,
                "min_ways": lite.params.min_ways,
            }
            self._check(
                lite.params.min_ways <= tlb.active_units <= tlb.max_units,
                "lite-active-range",
                f"{tlb.name}: Lite active units out of [min_ways, capacity]",
                context,
            )
            self._check(
                tlb.active_units & (tlb.active_units - 1) == 0,
                "lite-active-pow2",
                f"{tlb.name}: Lite active units must be a power of two",
                context,
            )

    # ------------------------------------------------------------------
    # Result-level checks (pure functions of a SimulationResult)
    # ------------------------------------------------------------------
    def audit_result(self, result, organization=None, energy_model=None) -> None:
        """Check a finished :class:`repro.core.stats.SimulationResult`.

        With ``organization`` and ``energy_model`` supplied, the energy
        breakdown is recomputed from the structure bindings and compared
        against the reported one (full closure); otherwise only the
        identities internal to the result are checked.
        """
        counts = {
            "configuration": result.configuration,
            "workload": result.workload,
            "accesses": result.accesses,
            "l1_misses": result.l1_misses,
            "l2_misses": result.l2_misses,
            "page_walks": result.page_walks,
        }
        self._check(
            result.accesses > 0,
            "measured-accesses",
            "a result must cover at least one measured access",
            counts,
        )
        self._check(
            0 <= result.l2_misses <= result.l1_misses <= result.accesses,
            "miss-order",
            "misses must satisfy 0 <= L2 <= L1 <= accesses",
            counts,
        )
        faulted = getattr(result, "faulted_accesses", 0)
        self._check(
            0 <= result.l2_misses - result.page_walks <= faulted,
            "walk-count",
            "page walks must match L2 misses up to recorded faults",
            {**counts, "faulted_accesses": faulted},
        )

        attributed = sum(result.hit_attribution.values())
        surplus = attributed + result.l1_misses - result.accesses
        if result.configuration == "TLB_Pred":
            self._check(
                surplus >= 0,
                "hit-attribution",
                "attributed hits + L1 misses must cover all accesses",
                {**counts, "attributed": attributed},
            )
        else:
            self._check(
                surplus == 0,
                "hit-attribution",
                "attributed hits + L1 misses must equal accesses",
                {**counts, "attributed": attributed,
                 "attribution": dict(result.hit_attribution)},
            )

        for name, stats in result.structure_stats.items():
            self._audit_structure_stats(name, stats)

        self._audit_energy(result, organization, energy_model)

        for sample in result.timeline:
            if sample.l1_mpki < 0:
                self._fail(
                    "timeline-mpki",
                    "timeline MPKI samples must be non-negative",
                    {"instructions": sample.instructions, "l1_mpki": sample.l1_mpki},
                )
        self.checks_run += 1

    def _audit_energy(self, result, organization, energy_model) -> None:
        """Energy components are non-negative and close to their totals."""
        breakdown = result.energy
        component_sum = sum(breakdown.by_component.values())
        self._check(
            all(value >= 0 for value in breakdown.by_component.values()),
            "energy-non-negative",
            "every energy component must be non-negative",
            {"by_component": dict(breakdown.by_component)},
        )
        self._check(
            abs(breakdown.total_pj - component_sum) <= self.tolerance,
            "energy-total",
            "energy components must sum to total_energy_pj",
            {"total_pj": breakdown.total_pj, "component_sum": component_sum},
        )
        structure_sum = sum(breakdown.by_structure.values())
        walk_pj = (
            breakdown.by_component.get("page_walk", 0.0)
            + breakdown.by_component.get("range_walk", 0.0)
        )
        self._check(
            abs(structure_sum + walk_pj - component_sum)
            <= self.tolerance * max(1.0, component_sum),
            "energy-structures",
            "per-structure energies plus walk energy must sum to the total",
            {
                "structure_sum": structure_sum,
                "walk_pj": walk_pj,
                "component_sum": component_sum,
            },
        )
        if organization is not None and energy_model is not None:
            recomputed = energy_model.compute(
                organization.bindings,
                page_walk_refs=result.page_walk_refs,
                range_walk_refs=result.range_walk_refs,
            )
            for component, reported in breakdown.by_component.items():
                expected = recomputed.by_component.get(component, 0.0)
                self._check(
                    abs(reported - expected)
                    <= self.tolerance * max(1.0, abs(expected)),
                    "energy-recompute",
                    f"component {component!r} does not match a recomputation "
                    "from the structure bindings",
                    {
                        "component": component,
                        "reported_pj": reported,
                        "recomputed_pj": expected,
                    },
                )
