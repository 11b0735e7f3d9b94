#!/usr/bin/env python3
"""Watch Lite adapt: way counts and MPKI over a phased workload.

Runs the astar model (whose search/expand phases need different L1-4KB
sizes — the paper's Figure 4 motivation) under TLB_Lite, then prints
Lite's decision records — each interval's L1 MPKI, the action and the
way counts Lite left active — and the L1-4KB lookup shares by active way
count.

Run time: ~10 seconds.
"""

from repro.analysis.experiments import ExperimentSettings, run_workload_config_with_org
from repro.core.params import LiteParams
from repro.workloads.registry import get_workload


def main() -> None:
    workload = get_workload("astar")
    settings = ExperimentSettings(trace_accesses=240_000)
    lite_params = LiteParams(
        interval_instructions=settings.scaled_lite_interval(),
        threshold_mode="relative",
        epsilon_relative=0.125,
        reactivate_probability=1 / 64,
    )
    result, org = run_workload_config_with_org(
        workload, "TLB_Lite", settings, lite_params=lite_params
    )

    print(f"{workload.name}: {result.lite_intervals} Lite intervals measured\n")
    print("decisions (every 4th interval, warm-up included):")
    print(
        f"{'instr':>10s} {'L1 MPKI':>8s} {'action':>22s} "
        f"{'4KB ways':>9s} {'2MB ways':>9s}"
    )
    for record in org.lite.history[::4]:
        ways = record.active_units
        print(
            f"{record.instructions_seen:>10,d} {record.actual_mpki:8.2f} "
            f"{record.action:>22s} {ways['L1-4KB']:>9} {ways['L1-2MB']:>9}"
        )

    shares = result.way_lookup_shares("L1-4KB")
    print("\nL1-4KB lookup shares by active ways (Table 5 style):")
    for ways, share in shares.items():
        print(f"  {ways} way(s): {share * 100:5.1f}%")
    print(f"\nenergy: {result.energy_per_access_pj:.2f} pJ/access "
          f"(THP baseline pays the full 10.7 pJ of both L1 TLBs)")


if __name__ == "__main__":
    main()
