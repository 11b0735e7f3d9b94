#!/usr/bin/env python3
"""Two processes time-sharing one core's TLBs.

Sweeps the scheduling quantum with untagged TLBs (flush on every switch)
and with PCID-tagged entries, under THP and RMM_Lite.  Shows the
extension result: range translations make context switches cheap — one
range walk refills a whole VMA, where paging re-walks every hot page.

Run time: ~30 seconds.
"""

from repro.analysis.report import render_table
from repro.core.multiprocess import TimeSharingConfig, run_time_shared
from repro.workloads.registry import get_workload


def main() -> None:
    workloads = [get_workload("astar"), get_workload("mummer")]
    print("co-scheduling:", " + ".join(w.name for w in workloads), "\n")

    rows = []
    for config in ("THP", "RMM_Lite"):
        for quantum in (50_000, 10_000, 2_000):
            for pcid in (True, False):
                sharing = TimeSharingConfig(
                    quantum_accesses=quantum,
                    accesses_per_process=60_000,
                    pcid=pcid,
                )
                result = run_time_shared(workloads, config, sharing)
                rows.append(
                    [
                        config,
                        f"{quantum // 1000}k",
                        "PCID" if pcid else "flush",
                        result.l2_mpki,
                        result.miss_cycles,
                        result.energy_per_access_pj,
                    ]
                )
    print(
        render_table(
            ["config", "quantum", "switch", "L2 MPKI", "miss cycles", "pJ/access"],
            rows,
            title="context-switch cost vs scheduling quantum",
        )
    )
    print(
        "\nFlushing hurts THP badly at small quanta (every hot page re-walks);\n"
        "RMM_Lite refills each address space with a couple of range walks, so\n"
        "its advantage grows with the switch rate."
    )


if __name__ == "__main__":
    main()
