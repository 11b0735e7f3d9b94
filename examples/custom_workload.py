#!/usr/bin/env python3
"""Build your own workload model and sweep it across configurations.

Shows the workload API end to end: declare VMAs, compose an access
pattern from the primitives, and run the configuration sweep.  The toy
program below is a hash-join: a build-side hash table probed randomly,
a streamed probe-side relation, and a hot stack.

Run time: ~15 seconds.
"""

from repro.analysis.experiments import ExperimentSettings, run_workload_config
from repro.analysis.report import render_table
from repro.core.organizations import CONFIG_NAMES
from repro.workloads.base import VMASpec, Workload
from repro.workloads.patterns import (
    Mixture,
    SequentialScan,
    StridedSet,
    UniformRandom,
    Zipf,
)


def hash_join_pattern(regions):
    hash_table = regions["hash_table"]
    probe_relation = regions["probe_relation"]
    stack = regions["stack"]
    return Mixture(
        [
            # Hot: join loop state on the stack.
            (Zipf(stack.subregion(0, 24), alpha=1.1, burst=4), 0.45),
            # Warm: bucket headers -- small at 4 KB grain, spread over
            # many huge pages (defeats the L1-2MB TLB, not the L2).
            (StridedSet(hash_table, num_pages=256, stride_pages=93, burst=3), 0.10),
            # Cold-ish: random bucket probes over the whole table.
            (UniformRandom(hash_table, burst=2), 0.15),
            # Streaming: the probe-side relation.
            (SequentialScan(probe_relation, stride_pages=1, burst=16), 0.30),
        ]
    )


def main() -> None:
    workload = Workload(
        name="hashjoin",
        suite="custom",
        vma_specs=[
            VMASpec("hash_table", 400),  # MB
            VMASpec("probe_relation", 220),
            VMASpec("stack", 4, thp_eligible=False),
        ],
        pattern_factory=hash_join_pattern,
        instructions_per_access=2.6,
        description="hash join: random build-side probes + streamed probe side",
    )
    print(f"{workload.name}: {workload.footprint_mb:.0f} MB across "
          f"{len(workload.vma_specs)} VMAs\n")

    settings = ExperimentSettings(trace_accesses=150_000)
    rows = []
    base = None
    for config in CONFIG_NAMES:
        result = run_workload_config(workload, config, settings)
        base = base or result.total_energy_pj
        rows.append(
            [
                config,
                result.energy_per_access_pj,
                result.total_energy_pj / base,
                result.l1_mpki,
                result.l2_mpki,
            ]
        )
    print(
        render_table(
            ["config", "pJ/access", "vs 4KB", "L1 MPKI", "L2 MPKI"],
            rows,
            title="hash join across the paper's configurations",
        )
    )


if __name__ == "__main__":
    main()
