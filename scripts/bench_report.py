#!/usr/bin/env python3
"""Measure simulator throughput and write ``BENCH_throughput.json``.

Runs the same (trace × configuration × engine) matrix as
``benchmarks/bench_throughput.py`` — without the pytest-benchmark
harness, so it can run anywhere — and records per-cell accesses/second
plus the fast/reference speedup per (trace, configuration).  The JSON
artifact is the before/after evidence behind ``docs/performance.md``.

Each round builds a fresh cell per engine and drains the two back to
back, alternating which engine goes first, so a round's fast/reference
ratio compares drains a moment apart.  A speedup is the median of those
per-round ratios; a row's rate is the median across rounds, with the
slowest and fastest round beside it.

Usage::

    PYTHONPATH=src python scripts/bench_report.py
        [--accesses N] [--rounds K] [--output BENCH_throughput.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_throughput import CONFIGS, TRACES, bench_workload, drain, prepare_cell  # noqa: E402

from repro.core.fastpath import ENGINES  # noqa: E402


def current_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def measure(workload, config: str, accesses: int, rounds: int) -> dict[str, list[float]]:
    """Accesses/second per engine and round for one cell: each round
    drains both engines back to back on fresh builds, alternating which
    goes first."""
    rates: dict[str, list[float]] = {engine: [] for engine in ENGINES}
    for round_index in range(rounds):
        order = ENGINES if round_index % 2 == 0 else ENGINES[::-1]
        prepared = {engine: prepare_cell(workload, config, engine, accesses) for engine in order}
        for engine in order:
            start = time.perf_counter()
            result = drain(prepared.pop(engine))
            elapsed = time.perf_counter() - start
            assert result.accesses == accesses
            rates[engine].append(accesses / elapsed)
    return rates


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=60_000)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_throughput.json"
    )
    args = parser.parse_args()

    rows = []
    speedups: dict[str, dict[str, float]] = {}
    for trace_name in TRACES:
        workload = bench_workload(trace_name)
        speedups[trace_name] = {}
        for config in CONFIGS:
            rates = measure(workload, config, args.accesses, args.rounds)
            for engine in ENGINES:
                rate = statistics.median(rates[engine])
                rows.append(
                    {
                        "trace": trace_name,
                        "config": config,
                        "engine": engine,
                        "accesses_per_second": round(rate),
                        "min_accesses_per_second": round(min(rates[engine])),
                        "max_accesses_per_second": round(max(rates[engine])),
                    }
                )
                print(f"{trace_name:8s} {config:9s} {engine:9s} {rate:>12,.0f} acc/s")
            ratios = [fast / ref for fast, ref in zip(rates["fast"], rates["reference"])]
            speedups[trace_name][config] = round(statistics.median(ratios), 2)
            print(f"{trace_name:8s} {config:9s} speedup   {speedups[trace_name][config]:>11.2f}x")

    payload = {
        "commit": current_commit(),
        "accesses": args.accesses,
        "rounds": args.rounds,
        "generated_by": "scripts/bench_report.py",
        "rows": rows,
        "speedups": speedups,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
