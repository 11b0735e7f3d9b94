#!/usr/bin/env python3
"""Chaos drill for the process-isolated sweep supervisor.

Runs the same small (workload × configuration) matrix three times:

1. an unfaulted serial reference run (``workers=1``);
2. a chaos run under ``--workers 2`` where every cell's first attempt
   is SIGKILLed at a random drain-loop boundary, interrupted further by
   stopping after the crash-retry storm settles;
3. a ``--resume`` of the chaos journal.

It then asserts the resumed chaos journal's order-independent digest
matches the reference run's — i.e. random worker kills plus a resume
cycle change *nothing* about the science.  Exit 0 on success, 1 on any
mismatch.  CI runs this as the ``chaos`` job.

With ``--metrics-out PATH`` the chaos and resume runs also collect
worker telemetry (``metrics=True``), which doubles as an inertness
check — the digests are compared against a metrics-free reference run —
and the merged metrics sidecar is copied to ``PATH`` as a CI artifact.

Usage::

    PYTHONPATH=src python scripts/chaos_drill.py [--accesses N]
        [--workers N] [--kill-prob P] [--seed S] [--metrics-out PATH]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.analysis.experiments import ExperimentSettings
from repro.resilience.faults import ChaosPolicy
from repro.resilience.sweep import SweepJournal, run_resilient_sweep
from repro.workloads.registry import get_workload

CONFIGS = ("4KB", "THP", "TLB_Lite", "RMM_Lite")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="povray")
    parser.add_argument("--accesses", type=int, default=20_000)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--kill-prob", type=float, default=0.35)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--metrics-out", type=Path, default=None)
    args = parser.parse_args()
    metrics = args.metrics_out is not None

    workload = get_workload(args.workload)
    settings = ExperimentSettings(trace_accesses=args.accesses)
    chaos = ChaosPolicy(kill_probability=args.kill_prob, seed=args.seed)

    with tempfile.TemporaryDirectory(prefix="chaos-drill-") as tmp:
        reference = Path(tmp) / "reference.jsonl"
        chaotic = Path(tmp) / "chaotic.jsonl"

        print(f"[1/3] reference serial sweep ({args.workload}, "
              f"{len(CONFIGS)} configs, {args.accesses} accesses)")
        ref_report = run_resilient_sweep(
            [workload], CONFIGS, settings,
            journal_path=reference, workers=1,
        )
        print(f"      {ref_report.summary()}")

        print(f"[2/3] chaos sweep: --workers {args.workers}, first attempts "
              f"SIGKILLed with p={args.kill_prob}")
        chaos_report = run_resilient_sweep(
            [workload], CONFIGS, settings,
            journal_path=chaotic, workers=args.workers,
            chaos=chaos, backoff_s=0.0, metrics=metrics,
        )
        crashes = sum(cell.attempts - 1 for cell in chaos_report.cells)
        print(f"      {chaos_report.summary()} ({crashes} worker crash(es))")

        print("[3/3] resume of the chaos journal")
        resumed = run_resilient_sweep(
            [workload], CONFIGS, settings,
            journal_path=chaotic, workers=args.workers, resume=True,
            metrics=metrics,
        )
        print(f"      {resumed.summary()}")

        ref_digest = SweepJournal(reference).digest()
        chaos_digest = SweepJournal(chaotic).digest()
        print(f"reference digest: {ref_digest}")
        print(f"chaos digest:     {chaos_digest}")
        if chaos_digest != ref_digest:
            print("FAIL: chaos journal diverged from the reference run",
                  file=sys.stderr)
            return 1
        if resumed.completed_count != len(CONFIGS):
            print("FAIL: resume did not replay every cell", file=sys.stderr)
            return 1
        if metrics:
            from repro.observability.hooks import metrics_sidecar_path

            sidecar = metrics_sidecar_path(chaotic)
            if not sidecar.exists():
                print("FAIL: metrics sidecar was not written", file=sys.stderr)
                return 1
            args.metrics_out.write_text(sidecar.read_text())
            print(f"metrics sidecar copied to {args.metrics_out}")
        print("OK: worker kills + resume are invisible in the results")
        return 0


if __name__ == "__main__":
    sys.exit(main())
