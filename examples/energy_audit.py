#!/usr/bin/env python3
"""Audit the energy model by hand: rebuild a result's total from parts.

Transparency check for the Table 3 accounting: take one simulation,
pull the raw per-structure access histograms, price every access with
the Table 2 parameters, add the walk references — and match the
simulator's reported total to the picojoule.

Run time: ~10 seconds.
"""

from repro.analysis.experiments import ExperimentSettings, run_workload_config_with_org
from repro.analysis.report import render_table
from repro.energy.model import EnergyModel
from repro.workloads.registry import get_workload


def main() -> None:
    workload = get_workload("cactusADM")
    settings = ExperimentSettings(trace_accesses=100_000)
    result, organization = run_workload_config_with_org(workload, "TLB_Lite", settings)

    print(f"{workload.name} under TLB_Lite: auditing "
          f"{result.total_energy_pj / 1e6:.3f} µJ of dynamic energy\n")

    rows = []
    hand_total = 0.0
    for binding in organization.bindings:
        stats = result.structure_stats[binding.name]
        energy = 0.0
        detail = []
        for ways, count in sorted(stats.lookups_by_ways.items(), reverse=True):
            params = binding.params_for_ways(ways)
            energy += count * params.read_pj
            detail.append(f"{count}r@{ways}w×{params.read_pj}")
        for ways, count in sorted(stats.fills_by_ways.items(), reverse=True):
            params = binding.params_for_ways(ways)
            energy += count * params.write_pj
            detail.append(f"{count}w@{ways}w×{params.write_pj}")
        hand_total += energy
        rows.append([binding.name, energy / 1e6, "; ".join(detail[:3])])
    model = EnergyModel()
    walk_energy = result.page_walk_refs * model.walk_ref_pj
    range_energy = result.range_walk_refs * model.walk_ref_pj
    hand_total += walk_energy + range_energy
    rows.append(["page walks", walk_energy / 1e6, f"{result.page_walk_refs} refs × {model.walk_ref_pj:.1f} pJ"])
    rows.append(["range walks", range_energy / 1e6, f"{result.range_walk_refs} refs"])

    print(render_table(["component", "µJ", "accounting (A·E_read + M·E_write)"], rows))
    print(f"\nhand-computed total: {hand_total / 1e6:.6f} µJ")
    print(f"simulator reported : {result.total_energy_pj / 1e6:.6f} µJ")
    difference = abs(hand_total - result.total_energy_pj)
    print(f"difference         : {difference:.6f} pJ")
    assert difference < 1e-6, "energy accounting mismatch!"
    print("\n✓ every picojoule accounted for by Table 2 × the access histograms")


if __name__ == "__main__":
    main()
