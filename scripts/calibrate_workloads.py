#!/usr/bin/env python3
"""Calibration harness for the synthetic workload models.

Prints, per workload and configuration, the statistics the paper's
figures depend on (L1/L2 MPKI, dynamic energy per access, energy and
miss-cycle ratios vs 4KB, Lite way shares, hit attribution) so workload
parameters can be tuned against the paper's reported behaviour.

Usage::

    python scripts/calibrate_workloads.py [workload ...] [--accesses N]
        [--configs 4KB,THP,...]
"""

from __future__ import annotations

import argparse
import time

from repro.analysis.experiments import ExperimentSettings, run_workload_config
from repro.analysis.report import render_table
from repro.core.organizations import CONFIG_NAMES
from repro.workloads.registry import get_workload, tlb_intensive_workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workloads", nargs="*", help="workload names (default: TLB-intensive set)")
    parser.add_argument("--accesses", type=int, default=300_000)
    parser.add_argument("--configs", default=",".join(CONFIG_NAMES))
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    workloads = (
        [get_workload(name) for name in args.workloads]
        if args.workloads
        else tlb_intensive_workloads()
    )
    configs = args.configs.split(",")
    settings = ExperimentSettings(trace_accesses=args.accesses, seed=args.seed)

    for workload in workloads:
        rows = []
        baseline = None
        start = time.time()
        details = []
        for config in configs:
            result = run_workload_config(workload, config, settings)
            if config == "4KB":
                baseline = result
            energy_ratio = (
                result.total_energy_pj / baseline.total_energy_pj if baseline else float("nan")
            )
            cycle_ratio = (
                result.miss_cycles / baseline.miss_cycles
                if baseline and baseline.miss_cycles
                else float("nan")
            )
            walk_frac = result.energy.fraction("page_walk")
            l1_frac = (
                result.energy.by_component["l1_page_tlbs"]
                + result.energy.by_component["l1_range_tlb"]
            ) / result.total_energy_pj
            rows.append(
                [
                    config,
                    result.l1_mpki,
                    result.l2_mpki,
                    result.energy_per_access_pj,
                    energy_ratio,
                    cycle_ratio,
                    l1_frac,
                    walk_frac,
                ]
            )
            if config in ("TLB_Lite", "RMM_Lite"):
                shares_4k = result.way_lookup_shares("L1-4KB")
                shares_2m = result.way_lookup_shares("L1-2MB") if config == "TLB_Lite" else {}
                hits = result.hit_shares()
                details.append(
                    f"  {config}: 4KB ways {fmt_shares(shares_4k)}"
                    + (f" | 2MB ways {fmt_shares(shares_2m)}" if shares_2m else "")
                    + f" | hit shares {fmt_hits(hits)}"
                )
        print(
            render_table(
                ["config", "L1 MPKI", "L2 MPKI", "pJ/acc", "E/4KB", "cyc/4KB", "L1 frac", "walk frac"],
                rows,
                title=f"== {workload.name} ({workload.footprint_mb:.0f} MB) "
                f"[{time.time() - start:.1f}s]",
            )
        )
        for line in details:
            print(line)
        print()


def fmt_shares(shares: dict[int, float]) -> str:
    return "/".join(f"{ways}w:{share * 100:.0f}%" for ways, share in shares.items())


def fmt_hits(hits: dict[str, float]) -> str:
    return " ".join(f"{name}:{share * 100:.0f}%" for name, share in hits.items() if share > 0.0005)


if __name__ == "__main__":
    main()
