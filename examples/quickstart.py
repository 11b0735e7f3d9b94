#!/usr/bin/env python3
"""Quickstart: simulate one workload under the paper's six configurations.

Runs the mcf model (the paper's most TLB-hostile workload) through every
TLB organization and prints the headline metrics: dynamic address-
translation energy per access, L1/L2 MPKI, and TLB-miss cycles.

Run time: ~20 seconds.
"""

from repro.analysis.experiments import ExperimentSettings, run_workload_config
from repro.analysis.report import render_table
from repro.core.organizations import CONFIG_NAMES
from repro.workloads.registry import get_workload


def main() -> None:
    workload = get_workload("mcf")
    print(f"workload: {workload.name} ({workload.footprint_mb:.0f} MB, "
          f"{workload.description})\n")

    settings = ExperimentSettings(trace_accesses=200_000)
    rows = []
    baseline_energy = None
    for config in CONFIG_NAMES:
        result = run_workload_config(workload, config, settings)
        if baseline_energy is None:
            baseline_energy = result.total_energy_pj
        rows.append(
            [
                config,
                result.energy_per_access_pj,
                result.total_energy_pj / baseline_energy,
                result.l1_mpki,
                result.l2_mpki,
                result.miss_cycles,
            ]
        )
    print(
        render_table(
            ["config", "pJ/access", "energy vs 4KB", "L1 MPKI", "L2 MPKI", "miss cycles"],
            rows,
            title="mcf under the six paper configurations",
        )
    )
    print(
        "\nExpected shape (paper Fig. 10): THP slashes miss cycles; "
        "TLB_Lite recovers energy; RMM kills the walks; RMM_Lite wins both."
    )


if __name__ == "__main__":
    main()
