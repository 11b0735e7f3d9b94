#!/usr/bin/env python3
"""Time the figure suite bench by bench and record it in ``BENCH_figures.json``.

Runs ``pytest benchmarks/ --benchmark-only -q --durations=0`` in each
given checkout, alternating between the checkouts for ``--rounds``
rounds, and reads each bench's seconds (setup, call and teardown summed)
from pytest's durations report.  The output file holds one entry per
commit: the commit hash and, for each run, the suite's wall time, each
bench's seconds, and the sha256 of each ``benchmarks/results/*.txt``
table the run wrote, so two entries' rendered outputs compare by hash.
A run that wrote ``fig10_main.txt`` also records the ``average`` row of
both Fig. 10 blocks (``fig10_average``: dynamic energy and TLB-miss
cycles per configuration, normalised to 4KB, as printed), the numbers
EXPERIMENTS.md's headline tables quote, and a run that wrote
``table05_ways.txt`` records Table 5's ``average`` row
(``table05_average``: its printed headers and values as two lists,
since the headers repeat ``2w`` and ``1w``).
A rerun at a commit replaces that commit's entry
(``bench_e2e.merge_entry``); other entries keep their place.

Each checkout runs its own ``benchmarks/`` against its own ``src/``, so
a clone of an earlier commit measures that commit.

Usage::

    python3 scripts/bench_figures.py [--checkout PATH ...] [--rounds 2]
        [--output BENCH_figures.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from bench_e2e import REPO_ROOT, commit_of, merge_entry

COMMAND = ["pytest", "benchmarks/", "--benchmark-only", "-q", "--durations=0"]
RESULTS = Path("benchmarks") / "results"
#: The Fig. 10 table, whose two blocks (energy, then TLB-miss cycles)
#: each end in an ``average`` row.
FIG10 = "fig10_main.txt"
#: Table 5: one block, ending in an ``average`` row.
TABLE5 = "table05_ways.txt"
#: One line of the durations report: ``12.34s call     path::test``.
DURATION = re.compile(r"^([0-9.]+)s (?:setup|call|teardown)\s+(\S+)$")


def parse_durations(output: str) -> dict[str, float]:
    """Seconds per bench (pytest node id), summed over its phases."""
    benches: dict[str, float] = {}
    for line in output.splitlines():
        match = DURATION.match(line.strip())
        if match:
            seconds, node = match.groups()
            benches[node] = benches.get(node, 0.0) + float(seconds)
    return {node: round(seconds, 2) for node, seconds in benches.items()}


def average_rows(text: str) -> list[tuple[list[str], list[float]]]:
    """Each ``average`` row of the tables in ``text``, with its table's
    headers; the ``workload`` column is dropped from both."""
    rows = []
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if cells[0] == "workload":
            headers = cells[1:]
        elif cells[0] == "average":
            rows.append((headers, [float(cell) for cell in cells[1:]]))
    return rows


def fig10_averages(text: str) -> dict[str, dict[str, float]]:
    """The ``average`` row of each Fig. 10 block, keyed by configuration."""
    rows = average_rows(text)
    if len(rows) != 2:
        raise ValueError(f"{FIG10} holds {len(rows)} average rows, expected 2")
    return {block: dict(zip(*row)) for block, row in zip(("energy", "cycles"), rows)}


def table5_average(text: str) -> dict[str, list]:
    """Table 5's ``average`` row: the printed headers and the values."""
    rows = average_rows(text)
    if len(rows) != 1:
        raise ValueError(f"{TABLE5} holds {len(rows)} average rows, expected 1")
    headers, values = rows[0]
    return {"headers": headers, "values": values}


def rendered_outputs(checkout: Path) -> dict[Path, int]:
    """Modification time (ns) of each rendered table in ``checkout``."""
    return {path: path.stat().st_mtime_ns for path in (checkout / RESULTS).glob("*.txt")}


def run_suite(checkout: Path) -> dict:
    """One run of the figure suite in ``checkout``: total and per-bench
    seconds, the sha256 of each rendered table the run wrote, and the
    Fig. 10 and Table 5 averages when it wrote those tables."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    before = rendered_outputs(checkout)
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", *COMMAND], cwd=checkout, env=env, capture_output=True, text=True
    )
    total = time.perf_counter() - started
    if completed.returncode != 0:
        raise RuntimeError(
            f"{checkout}: pytest exited {completed.returncode}\n"
            f"{completed.stdout[-4000:]}{completed.stderr[-4000:]}"
        )
    outputs = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path, mtime in sorted(rendered_outputs(checkout).items())
        if before.get(path) != mtime
    }
    run = {
        "total_s": round(total, 2),
        "benches": parse_durations(completed.stdout),
        "outputs": outputs,
    }
    if FIG10 in outputs:
        run["fig10_average"] = fig10_averages((checkout / RESULTS / FIG10).read_text())
    if TABLE5 in outputs:
        run["table05_average"] = table5_average((checkout / RESULTS / TABLE5).read_text())
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--checkout", type=Path, action="append",
        help="checkout to measure; repeat to alternate (default: this repository)",
    )
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--output", type=Path, default=REPO_ROOT / "BENCH_figures.json")
    args = parser.parse_args(argv)

    checkouts = [path.resolve() for path in args.checkout or [REPO_ROOT]]
    runs: dict[Path, list[dict]] = {checkout: [] for checkout in checkouts}
    for round_index in range(args.rounds):
        for checkout in checkouts:
            run = run_suite(checkout)
            runs[checkout].append(run)
            print(f"round {round_index + 1}: {checkout} {run['total_s']:.1f} s", flush=True)

    payload = {
        "generated_by": "scripts/bench_figures.py",
        "command": " ".join(COMMAND),
        "entries": [],
    }
    if args.output.exists():
        payload = json.loads(args.output.read_text())
    for checkout in checkouts:
        entry = {"commit": commit_of(checkout), "runs": runs[checkout]}
        payload["entries"] = merge_entry(payload["entries"], entry)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
