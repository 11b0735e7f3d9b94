#!/usr/bin/env python3
"""Where does address-translation energy go?  (Paper Section 3.)

Reproduces the Figure 2a analysis on two contrasting workloads:
omnetpp (L1-lookup bound) and mcf (page-walk bound), printing the
per-component dynamic-energy breakdown under 4KB, THP, and RMM, plus the
Figure 3 walk-locality sensitivity.

Run time: ~20 seconds.
"""

from repro.analysis.experiments import ExperimentSettings, run_workload_config
from repro.analysis.report import render_table
from repro.core.params import SimulationParams
from repro.energy.model import COMPONENTS
from repro.workloads.registry import get_workload


def breakdown_table(workload_name: str) -> None:
    workload = get_workload(workload_name)
    settings = ExperimentSettings(trace_accesses=150_000)
    rows = []
    for config in ("4KB", "THP", "RMM"):
        result = run_workload_config(workload, config, settings)
        total = result.total_energy_pj
        rows.append(
            [config, result.energy_per_access_pj]
            + [result.energy.by_component[component] / total for component in COMPONENTS]
        )
    print(
        render_table(
            ["config", "pJ/acc"] + [c.replace("_", " ") for c in COMPONENTS],
            rows,
            title=f"{workload_name} — dynamic energy breakdown (fractions of total)",
        )
    )
    print()


def walk_locality(workload_name: str) -> None:
    workload = get_workload(workload_name)
    rows = []
    base = None
    for ratio in (1.0, 0.5, 0.0):
        settings = ExperimentSettings(
            trace_accesses=150_000,
            sim_params=SimulationParams(walk_l1_hit_ratio=ratio),
        )
        result = run_workload_config(workload, "4KB", settings)
        base = base or result.total_energy_pj
        rows.append([f"{int(ratio * 100)}%", result.total_energy_pj / base])
    print(
        render_table(
            ["walk L1 hit ratio", "energy vs 100%"],
            rows,
            title=f"{workload_name} — Figure 3 walk-locality sensitivity",
        )
    )
    print()


def main() -> None:
    for name in ("omnetpp", "mcf"):
        breakdown_table(name)
    walk_locality("mcf")
    print(
        "omnetpp's energy is L1-TLB lookups; mcf's is page walks — the two\n"
        "sources the paper identifies, attacked by Lite and RMM respectively."
    )


if __name__ == "__main__":
    main()
