"""Figure 4: L1 TLB MPKI over time with fixed smaller L1-4KB TLBs.

Four configurations per workload, as in the paper:

* Base — 4 KB pages only (the Section 3 "4KB" configuration),
* 64   — THP with the stock 64-entry 4-way L1-4KB TLB,
* 32   — THP with a 32-entry 2-way L1-4KB TLB,
* 16   — THP with a 16-entry direct-mapped L1-4KB TLB.

The windowed aggregate-L1-MPKI series shows (i) most workloads tolerate
smaller L1-4KB TLBs once huge pages serve the bulk of translations, and
(ii) no single size is best for all workloads or all phases — the
motivation for Lite's dynamic resizing.
"""

from dataclasses import replace

from conftest import BENCH_ACCESSES, emit

from repro.analysis.experiments import ExperimentSettings, run_workload_config
from repro.analysis.report import render_series, render_table
from repro.core.params import HierarchyParams, SetAssocParams, SimulationParams
from repro.workloads.registry import tlb_intensive_workloads

SETTINGS = ExperimentSettings(
    trace_accesses=max(BENCH_ACCESSES // 2, 100_000),
    sim_params=SimulationParams(timeline_windows=20),
)

VARIANTS = {
    "Base": ("4KB", HierarchyParams()),
    "64": ("THP", HierarchyParams()),
    "32": ("THP", replace(HierarchyParams(), l1_4kb=SetAssocParams(32, 2))),
    "16": ("THP", replace(HierarchyParams(), l1_4kb=SetAssocParams(16, 1))),
}


def run_all():
    series = {}
    for workload in tlb_intensive_workloads():
        for label, (config, params) in VARIANTS.items():
            result = run_workload_config(
                workload, config, SETTINGS, hierarchy_params=params
            )
            series[(workload.name, label)] = result
    return series


def test_fig04_timeline(benchmark):
    series = benchmark.pedantic(run_all, rounds=1, iterations=1)

    blocks = []
    summary_rows = []
    for workload in tlb_intensive_workloads():
        name = workload.name
        lines = [f"-- {name} --"]
        for label in VARIANTS:
            result = series[(name, label)]
            points = [
                (f"{sample.instructions // 1000}k", sample.l1_mpki)
                for sample in result.timeline[::2]
            ]
            lines.append(render_series(f"  {label:>4s}", points, float_format="{:.2f}"))
        blocks.append("\n".join(lines))
        summary_rows.append(
            [name] + [series[(name, label)].l1_mpki for label in VARIANTS]
        )
    table = render_table(
        ["workload"] + list(VARIANTS),
        summary_rows,
        title="Figure 4 (summary) — mean aggregate L1 MPKI per configuration",
    )
    emit("fig04_fixed_sizes", table + "\n\n" + "\n\n".join(blocks))

    # Shapes: huge pages make every THP variant far better than Base, and
    # shrinking the L1-4KB TLB monotonically (weakly) increases MPKI.
    for workload in tlb_intensive_workloads():
        name = workload.name
        base = series[(name, "Base")].l1_mpki
        full = series[(name, "64")].l1_mpki
        assert full < base, name
        assert series[(name, "16")].l1_mpki >= full * 0.95, name

    # "No single configuration is optimal": the extra MPKI that the 16-entry
    # TLB costs over 64 entries varies strongly across workloads.
    penalties = {
        name.name: series[(name.name, "16")].l1_mpki - series[(name.name, "64")].l1_mpki
        for name in tlb_intensive_workloads()
    }
    assert max(penalties.values()) > 4 * max(min(penalties.values()), 0.05)
