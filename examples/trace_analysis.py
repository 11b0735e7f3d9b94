#!/usr/bin/env python3
"""Analyze a reference trace before simulating it.

Exports a workload's trace to the on-disk format, reloads it, computes
the reuse-distance statistics that determine TLB behaviour (Mattson's
stack property gives hit ratios for every capacity from one pass), and
replays the trace through a configuration.  This is the adoption path
for users with their own traces.

Run time: ~15 seconds.
"""

import tempfile
from pathlib import Path

from repro.analysis.report import render_table
from repro.analysis.tracestats import (
    footprint_curve,
    hit_ratio_curve,
    reuse_distance_histogram,
    summarize_trace,
)
from repro.core.organizations import build_organization, paging_policy_for
from repro.core.simulator import Simulator
from repro.mem.physical import PhysicalMemory
from repro.workloads.registry import get_workload
from repro.workloads.tracefile import (
    export_workload_trace,
    load_trace,
    workload_from_metadata,
)


def main() -> None:
    workload = get_workload("omnetpp")
    with tempfile.TemporaryDirectory() as tmp:
        stem = Path(tmp) / "omnetpp"
        print(f"exporting {workload.name} trace to {stem}.npy/.json ...")
        export_workload_trace(workload, 120_000, stem, seed=9)
        trace, metadata = load_trace(stem)

        print("\n== trace statistics ==")
        summary = summarize_trace(trace)
        print(summary.render())

        histogram = reuse_distance_histogram(trace)
        curve = hit_ratio_curve(histogram, [16, 32, 64, 128, 512, 2048])
        print(
            render_table(
                ["LRU entries", "predicted hit ratio"],
                [[entries, ratio] for entries, ratio in curve.items()],
                title="fully-associative LRU hit-ratio curve (Mattson)",
            )
        )
        print("footprint per 10th of the trace (distinct pages):")
        print(" ", footprint_curve(trace, windows=10))

        print("\n== replaying the saved trace under THP ==")
        loaded = workload_from_metadata(metadata)
        process = loaded.build_process(
            paging_policy_for("THP"), PhysicalMemory(8 << 30, seed=1)
        )
        organization = build_organization("THP", process)
        simulator = Simulator(
            organization, workload_name=metadata.workload,
            instructions_per_access=metadata.instructions_per_access,
        )
        result = simulator.run(trace)
        print(result.summary_line())
        print(
            f"\nnote: the 64-entry prediction ({curve[64]:.3f}) is for a fully-"
            "associative LRU cache;\nthe simulated 4-way L1-4KB TLB plus the "
            "L1-2MB TLB land in the same regime."
        )


if __name__ == "__main__":
    main()
