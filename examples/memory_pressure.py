#!/usr/bin/env python3
"""Memory pressure: the OS breaks huge pages and Lite reacts.

Paper Section 4.2.2 motivates Lite's degradation response with exactly
this: "Lite activates all ways in the L1 TLBs when their performance
degrades, e.g., ... the operating system breaks huge pages to 4 KB pages
to respond to memory pressure."

This scenario runs a THP-backed workload under TLB_Lite, demotes 90 % of
its huge pages mid-run (with the TLB shootdowns), and shows the MPKI
spike plus Lite's reaction in the interval history.

Run time: ~10 seconds.
"""

import numpy as np

from repro import PhysicalMemory, Process, TransparentHugePaging
from repro.core.organizations import build_tlb_lite
from repro.core.params import LiteParams
from repro.core.simulator import Simulator
from repro.mmu.translation import PAGES_PER_2MB, PageSize


def main() -> None:
    process = Process(PhysicalMemory(2 << 30, seed=1), TransparentHugePaging())
    heap = process.mmap(PAGES_PER_2MB * 24, name="heap")

    rng = np.random.default_rng(4)
    pages = heap.start_vpn + rng.integers(heap.num_pages, size=40_000)
    trace = np.repeat(pages, 3)[:120_000].astype(np.int64)

    org = build_tlb_lite(
        process,
        lite_params=LiteParams(interval_instructions=9_000, reactivate_probability=0.0),
    )

    def memory_pressure(_organization):
        broken = process.break_huge_pages(0.9, seed=7)
        for chunk in range(24):
            base = heap.start_vpn + chunk * PAGES_PER_2MB
            if process.leaf_for(base).page_size is PageSize.SIZE_4KB:
                org.hierarchy.shootdown_huge_page(base)
        print(f"  !! memory pressure: kernel demoted {broken} huge pages "
              "(TLB shootdowns sent)")

    sim = Simulator(org, instructions_per_access=3.0)
    print("running with huge-page breakdown at access 66,000 ...")
    warmup = 12_000
    result = sim.run(trace, fast_forward_accesses=warmup, events=[(66_000, memory_pressure)])

    print("\nwindowed L1 MPKI (breakdown hits mid-run):")
    for sample in result.timeline[::5]:
        bar = "#" * min(int(sample.l1_mpki * 2), 60)
        # The warm-up is four whole intervals, so a record's instructions_seen
        # is its trace position; the last record by the window's end set its ways.
        elapsed = warmup * 3 + sample.instructions
        ways = [
            record.active_units["L1-4KB"]
            for record in org.lite.history
            if record.instructions_seen <= elapsed
        ][-1]
        print(f"  {sample.instructions:>8,d} | {sample.l1_mpki:6.2f} {bar:<60s} 4KB-ways={ways}")

    actions = [record.action for record in org.lite.history]
    print(f"\nLite actions: {actions.count('decide')} decide, "
          f"{actions.count('degradation-reactivate')} degradation-reactivate")
    print("After the spike Lite re-enables all ways, then re-settles once the "
          "4 KB working set stabilises.")


if __name__ == "__main__":
    main()
