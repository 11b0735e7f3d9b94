#!/usr/bin/env python3
"""RMM under the hood: eager paging, the range table, and range TLBs.

Builds a process with eager paging, inspects the redundant mappings the
OS substrate creates (page tables *and* range translations), then drives
a pointer-chasing stream through RMM and RMM_Lite to show where the
translations get served.

Run time: ~15 seconds.
"""

from repro.analysis.experiments import ExperimentSettings, run_workload_config
from repro.mem.paging import EagerPaging
from repro.mem.physical import PhysicalMemory
from repro.mem.process import Process
from repro.workloads.registry import get_workload


def inspect_substrate() -> None:
    print("== OS substrate: eager paging creates redundant mappings ==")
    process = Process(PhysicalMemory(4 << 30, seed=1), EagerPaging("thp"))
    heap = process.mmap_bytes(300 << 20, name="heap")
    stack = process.mmap_bytes(8 << 20, name="stack", thp_eligible=False)
    print(process.describe())
    for vma in (heap, stack):
        rng = process.range_table.lookup(vma.start_vpn)
        print(
            f"  {vma.name}: VMA [{vma.start_vpn:#x}, {vma.end_vpn:#x}) -> "
            f"range offset {rng.offset:+#x} covering {rng.num_pages} pages"
        )
    histogram = process.page_size_histogram()
    print(f"  redundant page tables: {histogram}")
    # The range and the page table always agree -- that is RMM's
    # "redundant" invariant.
    probe = heap.start_vpn + 12_345
    assert process.translate(probe) == process.range_table.lookup(probe).translate(probe)
    print(f"  page-table and range translation agree at vpn {probe:#x}\n")


def compare_configs() -> None:
    print("== mcf: where do translations get served? ==")
    workload = get_workload("mcf")
    settings = ExperimentSettings(trace_accesses=150_000)
    for config in ("THP", "RMM", "RMM_Lite"):
        result = run_workload_config(workload, config, settings)
        walks = result.page_walks
        range_walks = result.range_walk_refs
        shares = ", ".join(
            f"{name}: {share * 100:.0f}%"
            for name, share in result.hit_shares().items()
            if share > 0.005
        )
        print(
            f"  {config:>8s}: L1 MPKI {result.l1_mpki:6.2f} | walks {walks:6d} | "
            f"range-walk refs {range_walks:5d} | L1 hits: {shares}"
        )
    print(
        "\nRMM eliminates the page walks (L2-range hits); RMM_Lite's 4-entry\n"
        "L1-range TLB then absorbs the L1 misses as well (paper Section 4.3)."
    )


if __name__ == "__main__":
    inspect_substrate()
    compare_configs()
