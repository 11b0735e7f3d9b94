#!/usr/bin/env python3
"""Measure the repo benchmark end to end and record it in ``BENCH_e2e.json``.

Runs ``e2ebench/harness.py`` once for each workload that ``BENCHMARK.json``
declares, with seed 42 and ``--seconds 20``, then once more per workload
with ``--trace 1``, and reads each run's final JSON line.  The output
file holds one entry per commit: the commit hash, the seed, each
workload's end-to-end metrics under ``workloads``, and the per-layer
metrics of its traced pass under ``layers``.  A rerun at the same commit
replaces that commit's entry; other entries keep their place.

``--checkout`` measures another checkout of the repository (a clone or
worktree of an earlier commit) with its own harness and sources, while
the entry still goes to this repository's file.

Usage::

    python3 scripts/bench_e2e.py [--checkout PATH] [--output BENCH_e2e.json]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SEED = 42
SECONDS = 20


def commit_of(checkout: Path) -> str:
    return subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=checkout,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


def workload_names(checkout: Path) -> list[str]:
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return [workload["name"] for workload in spec["workloads"]]


def run_harness(
    checkout: Path, workload: str, seed: int, seconds: float, trace: bool = False
) -> dict:
    """One harness run, per-layer when ``trace``; returns its final JSON line."""
    command = [
        sys.executable, "e2ebench/harness.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    completed = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload}: harness exited {completed.returncode}\n"
            f"{completed.stdout}{completed.stderr}"
        )
    return json.loads(lines[-1])


def measure(
    checkout: Path, seed: int, seconds: float, trace: bool = False
) -> dict[str, dict[str, float]]:
    """Each workload's metrics, as ``{metric: value}``: end to end, or
    per layer from one traced pass when ``trace``."""
    results = {}
    for workload in workload_names(checkout):
        outcome = run_harness(checkout, workload, seed, seconds, trace)
        if not outcome["correct"]:
            raise RuntimeError(f"{workload}: {outcome['failed']} cells failed")
        results[workload] = {
            name: metric["value"] for name, metric in outcome["metrics"].items()
        }
        print(f"{workload}: " + ", ".join(f"{k} {v:.4g}" for k, v in results[workload].items()))
    return results


def merge_entry(entries: list[dict], entry: dict) -> list[dict]:
    """``entries`` with ``entry`` in place of its commit's entry, or appended."""
    if any(old["commit"] == entry["commit"] for old in entries):
        return [entry if old["commit"] == entry["commit"] else old for old in entries]
    return entries + [entry]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=REPO_ROOT)
    parser.add_argument("--output", type=Path, default=REPO_ROOT / "BENCH_e2e.json")
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    entry = {
        "commit": commit_of(checkout),
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": measure(checkout, SEED, SECONDS),
        "layers": measure(checkout, SEED, SECONDS, trace=True),
    }
    payload = {
        "generated_by": "scripts/bench_e2e.py",
        "command": f"python3 e2ebench/harness.py --workload W --seed {SEED} --seconds {SECONDS}",
        "entries": [],
    }
    if args.output.exists():
        payload = json.loads(args.output.read_text())
    payload["entries"] = merge_entry(payload["entries"], entry)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output} ({entry['commit'][:7]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
