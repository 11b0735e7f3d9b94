#!/usr/bin/env python3
"""Mini Figure 10: the paper's headline table, side by side with the paper.

Runs a scaled-down version of the main experiment (two representative
workloads instead of eight, short traces) and prints the measured
normalised energies next to the paper's averages.  The full-size version
is `pytest benchmarks/bench_fig10_main.py --benchmark-only`.

Run time: ~60 seconds.
"""

from repro.analysis.experiments import ExperimentSettings, run_matrix
from repro.analysis.normalize import (
    average_ratio,
    normalized_energy,
    normalized_miss_cycles,
)
from repro.analysis.report import render_table
from repro.core.organizations import CONFIG_NAMES
from repro.workloads.registry import get_workload

#: The paper's Figure 10 averages over the eight TLB-intensive workloads.
PAPER_ENERGY_VS_4KB = {
    "4KB": 1.00,
    "THP": 1.04,
    "TLB_Lite": 0.80,
    "RMM": 0.96,
    "TLB_PP": 0.59,
    "RMM_Lite": 0.30,
}
PAPER_CYCLES_VS_4KB = {
    "4KB": 1.00,
    "THP": 0.17,
    "TLB_Lite": 0.172,
    "RMM": 0.04,
    "TLB_PP": 0.33,
    "RMM_Lite": 0.01,
}


def main() -> None:
    workloads = [get_workload("cactusADM"), get_workload("omnetpp")]
    names = [w.name for w in workloads]
    print("mini Figure 10 over:", ", ".join(names), "\n")

    settings = ExperimentSettings(trace_accesses=150_000)
    results = run_matrix(workloads, CONFIG_NAMES, settings)

    rows = []
    for config in CONFIG_NAMES:
        energy = average_ratio([normalized_energy(results, n, config) for n in names])
        cycles = average_ratio(
            [normalized_miss_cycles(results, n, config) for n in names]
        )
        rows.append(
            [
                config,
                energy,
                PAPER_ENERGY_VS_4KB[config],
                cycles,
                PAPER_CYCLES_VS_4KB[config],
            ]
        )
    print(
        render_table(
            [
                "config",
                "energy (measured)",
                "energy (paper avg)",
                "cycles (measured)",
                "cycles (paper avg)",
            ],
            rows,
            title="normalised to the 4KB configuration",
        )
    )
    print(
        "\nAbsolute values differ (synthetic workloads, two of eight here);\n"
        "the ordering and directions are the reproduced result — see\n"
        "EXPERIMENTS.md for the full-size side-by-side."
    )


if __name__ == "__main__":
    main()
