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
EXPERIMENTS.md's headline tables quote, a run that wrote
``table05_ways.txt`` records Table 5's ``average`` row
(``table05_average``: its printed headers and values as two lists,
since the headers repeat ``2w`` and ``1w``), and a run that wrote
``fig12_other_workloads.txt`` records the ``average`` row of both
Fig. 12 blocks (``fig12_average``: the TLB_Lite/THP and RMM_Lite/THP
ratios for SPEC 2006 and PARSEC; that row's memory cell is blank and
its MPKI cell reads ``nan``, so only the ratio cells are kept).
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
#: Fig. 12: a SPEC 2006 block, then a PARSEC block, each ending in an
#: ``average`` row.
FIG12 = "fig12_other_workloads.txt"
FIG12_SUITES = ("SPEC 2006", "PARSEC")
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


def average_rows(text: str, name: str, count: int) -> list[tuple[list[str], list[str]]]:
    """The ``count`` ``average`` rows of the tables in ``text`` (the table
    file ``name``), each with its table's headers, as printed; the
    ``workload`` column is dropped from both."""
    rows = []
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if cells[0] == "workload":
            headers = cells[1:]
        elif cells[0] == "average":
            rows.append((headers, cells[1:]))
    if len(rows) != count:
        raise ValueError(f"{name} holds {len(rows)} average rows, expected {count}")
    return rows


def fig10_averages(text: str) -> dict[str, dict[str, float]]:
    """The ``average`` row of each Fig. 10 block, keyed by configuration."""
    return {
        block: {header: float(cell) for header, cell in zip(*row)}
        for block, row in zip(("energy", "cycles"), average_rows(text, FIG10, 2))
    }


def table5_average(text: str) -> dict[str, list]:
    """Table 5's ``average`` row: the printed headers and the values."""
    [(headers, cells)] = average_rows(text, TABLE5, 1)
    return {"headers": headers, "values": [float(cell) for cell in cells]}


def fig12_averages(text: str) -> dict[str, dict[str, float]]:
    """The ratio cells of each Fig. 12 block's ``average`` row, by suite."""
    return {
        suite: {
            header: float(cell) for header, cell in zip(*row) if header.endswith("/THP")
        }
        for suite, row in zip(FIG12_SUITES, average_rows(text, FIG12, 2))
    }


def rendered_outputs(checkout: Path) -> dict[Path, int]:
    """Modification time (ns) of each rendered table in ``checkout``."""
    return {path: path.stat().st_mtime_ns for path in (checkout / RESULTS).glob("*.txt")}


def run_suite(checkout: Path) -> dict:
    """One run of the figure suite in ``checkout``: total and per-bench
    seconds, the sha256 of each rendered table the run wrote, and the
    Fig. 10, Table 5 and Fig. 12 averages when it wrote those tables."""
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
    if FIG12 in outputs:
        run["fig12_average"] = fig12_averages((checkout / RESULTS / FIG12).read_text())
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
