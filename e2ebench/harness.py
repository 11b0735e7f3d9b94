#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the reproduction.

Four workloads, each a fixed list of simulation cells driven from this
one process (``checkpointed-sweep`` adds exactly one supervised worker
at a time):

* ``paper-matrix`` — the 8 TLB-intensive workloads x 6 paper configs,
  reference engine, through ``prepare_run`` -> ``PreparedRun.run``;
* ``drain-short-streak`` — omnetpp x 6 configs x both engines;
* ``drain-long-streak`` — a burst-8 Zipf stream x 6 configs, fast engine;
* ``checkpointed-sweep`` — ``run_resilient_sweep`` over mcf + omnetpp,
  stopped after 6 cells (``max_cells``) and resumed, with snapshots,
  journal and metrics sidecar.

A run repeats whole passes of one workload while another pass fits in
``--seconds`` (always at least one) and reports the median pass.  Every
cell's result row is checked: accounting identities on any seed, the
committed golden digests (``golden.json``) where the seed has them, and
engine agreement where both engines run.  ``--trace 1`` runs one pass
untraced and one instrumented pass, and reports the per-layer metrics
instead of the end-to-end ones.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when
any cell failed.

Usage::

    python3 e2ebench/harness.py [--workload NAME] [--seed 42]
        [--seconds S] [--trace 0|1] [--write-golden]

Without ``--workload`` every workload runs, each in a fresh interpreter,
one after another.  Metric names, units and bounds live in
``BENCHMARK.json``; see ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = (SRC / "repro").resolve()
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
#: Scratch space for sweep journals and snapshots, inside the checkout.
WORK_DIR = ROOT / ".bench_build" / "e2ebench"

if not (PACKAGE / "__init__.py").is_file():
    sys.exit(f"e2ebench: no repro sources at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != PACKAGE:
    sys.exit(f"e2ebench: imported repro from {repro.__file__}, not {SRC}")

from repro.analysis import experiments  # noqa: E402
from repro.analysis.experiments import ExperimentSettings, PreparedRun, prepare_run  # noqa: E402
from repro.analysis.normalize import average_ratio, normalized_energy  # noqa: E402
from repro.core.organizations import CONFIG_NAMES  # noqa: E402
from repro.mmu.page_table import PageTable  # noqa: E402
from repro.resilience import checkpoint  # noqa: E402
from repro.resilience.sweep import SweepJournal, result_row, run_resilient_sweep  # noqa: E402
from repro.workloads.base import VMASpec, Workload  # noqa: E402
from repro.workloads.patterns import Zipf  # noqa: E402
from repro.workloads.registry import get_workload, tlb_intensive_workloads  # noqa: E402

#: Figure 10's average dynamic energy relative to THP, from the paper.
PAPER_FIG10_ENERGY_VS_THP = {
    "TLB_Lite": 0.77,
    "RMM": 0.92,
    "TLB_PP": 0.57,
    "RMM_Lite": 0.29,
}

#: The interrupted sweep call runs this many cells before it stops.
SWEEP_KILL_AFTER = 6
SWEEP_CHECKPOINT_EVERY = 16

#: A fixed pure-Python loop, timed between cells.  On a shared VM the
#: host's speed drifts by ~20% over minutes, evenly across interpreter,
#: page-table and disk work.  This loop drifts with it: over 10 minutes
#: on a 2-vCPU Xeon VM, its ratio to a simulated cell held within 1%
#: while both moved 21%.  Timings are scaled by it to a reference host
#: speed.
CALIBRATION_LOOPS = 40_000
#: The loop's typical duration on the 2-vCPU Xeon VM the bounds were set on.
REFERENCE_CALIBRATION_S = 0.005


def calibrate() -> float:
    """Seconds the calibration loop takes on this host right now."""
    table: dict[int, int] = {}
    started = perf_counter()
    for i in range(CALIBRATION_LOOPS):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return perf_counter() - started


def stream_workload() -> Workload:
    """Long-streak workload: 512 hot pages, burst-8 Zipf.

    The same definition as ``benchmarks/bench_throughput.py``'s
    ``stream_workload``, kept here so the benchmark does not import a
    pytest module that may be retired.
    """
    return Workload(
        "stream",
        "BENCH",
        [VMASpec("stream", 2)],  # 2 MiB = 512 pages
        lambda regions: Zipf(regions["stream"], alpha=1.0, burst=8),
        instructions_per_access=get_workload("omnetpp").instructions_per_access,
        description="spatial-locality regime: long same-page runs",
    )


@dataclass(frozen=True)
class BenchWorkload:
    """One benchmark workload: which cells a pass runs, and how."""

    name: str
    traces: Callable[[], list[Workload]]
    engines: tuple[str, ...]
    accesses: int
    sweep: bool = False


#: The drain workloads use short passes (~3 s on a 2-vCPU Xeon VM) so a
#: run holds several and reports their median; the host's speed drifts
#: by 10-50% over seconds.  paper-matrix is one ~25 s pass, sized so its
#: traced run (cProfile slows the reference drain ~3x) stays near 90 s.
WORKLOADS = {
    spec.name: spec
    for spec in (
        BenchWorkload("paper-matrix", tlb_intensive_workloads, ("reference",), 200_000),
        BenchWorkload(
            "drain-short-streak",
            lambda: [get_workload("omnetpp")],
            ("reference", "fast"),
            250_000,
        ),
        BenchWorkload("drain-long-streak", lambda: [stream_workload()], ("fast",), 2_000_000),
        BenchWorkload(
            "checkpointed-sweep",
            lambda: [get_workload("mcf"), get_workload("omnetpp")],
            ("reference",),  # sweeps run on_fault="record": the reference loop
            300_000,
            sweep=True,
        ),
    )
}


# ----------------------------------------------------------------------
# Instrumentation, installed from outside the library
# ----------------------------------------------------------------------
@contextlib.contextmanager
def patched(owner, name: str, make):
    """Replace ``owner.name`` with ``make(original)`` inside the block."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def cell_details(prepared: PreparedRun, result) -> dict:
    """Counts for the per-layer report, read off a finished cell."""
    trace = prepared.trace
    return {
        "trace_accesses": len(trace),
        "runs": 1 + int(np.count_nonzero(trace[1:] != trace[:-1])),
        "pages_mapped_4k": prepared.process.page_table.mapped_bytes >> 12,
        "accesses": result.accesses,
        "instructions": result.instructions,
        "l1_misses": result.l1_misses,
        "l2_misses": result.l2_misses,
        "page_walks": result.page_walks,
        "page_walk_refs": result.page_walk_refs,
        "lite_intervals": result.lite_intervals,
    }


class LayerProbe:
    """Per-layer instrumentation of one traced pass.

    cProfile runs only inside ``PreparedRun.run``, so self times describe
    the drain and the checkpoint hook it calls, not the process build.
    Setup stages and the journal are timed by wrappers around the public
    functions that do them; ``PageTable.map`` calls and snapshot files
    are counted.  Counting a map call costs ~0.2 us, which lands in
    ``mem.build_s``.
    """

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()
        self.seconds = dict.fromkeys(
            ("workloads.trace_s", "mem.build_s", "organizations.build_s", "resilience.journal_s"),
            0.0,
        )
        self.map_calls = 0
        self.snapshots = 0
        self.snapshot_bytes = 0
        self.cells: list[dict] = []

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for owner, name, make in (
                (Workload, "trace", self._timed("workloads.trace_s")),
                (Workload, "build_process", self._timed("mem.build_s")),
                (experiments, "build_organization", self._timed("organizations.build_s")),
                (SweepJournal, "append", self._timed("resilience.journal_s")),
                (SweepJournal, "load_state", self._timed("resilience.journal_s")),
                (PageTable, "map", self._counted_map),
                (checkpoint, "write_snapshot", self._counted_snapshot),
                (PreparedRun, "run", self._profiled_run),
            ):
                stack.enter_context(patched(owner, name, make))
            yield

    def _timed(self, stage: str):
        def make(original):
            def timed(*args, **kwargs):
                started = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.seconds[stage] += perf_counter() - started

            return timed

        return make

    def _counted_map(self, original):
        def counted(page_table, translation):
            self.map_calls += 1
            return original(page_table, translation)

        return counted

    def _counted_snapshot(self, original):
        def counted(path, state, meta=None):
            written = original(path, state, meta)
            self.snapshots += 1
            self.snapshot_bytes += Path(written).stat().st_size
            return written

        return counted

    def _profiled_run(self, original):
        def profiled(prepared, *args, **kwargs):
            with self.profiler:
                result = original(prepared, *args, **kwargs)
            self.cells.append(cell_details(prepared, result))
            return result

        return profiled


def _installed(probe: LayerProbe | None):
    return probe.installed() if probe is not None else contextlib.nullcontext()


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
@dataclass
class CellTiming:
    """Host time of one simulated cell; ``accesses`` includes fast-forward."""

    key: str
    setup_s: float
    sim_s: float
    accesses: int


@dataclass
class Pass:
    """Everything one pass over a workload's cells produced."""

    wall_s: float = 0.0
    cpu_self_s: float = 0.0
    cpu_children_s: float = 0.0
    #: ``trace|config|engine`` -> result row, or ``None`` if the cell failed.
    rows: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    timings: list = field(default_factory=list)
    journal_digest: str | None = None
    #: Calibration loop times taken in this process between cells; they
    #: are left out of ``wall_s``.
    calibration: list = field(default_factory=list)
    #: Calibration loop times taken in sweep workers after each cell.
    worker_calibration: list = field(default_factory=list)

    @property
    def host_scale(self) -> float:
        """Factor that turns this pass's host seconds into reference seconds."""
        return REFERENCE_CALIBRATION_S / statistics.fmean(
            self.calibration + self.worker_calibration
        )

    @property
    def setup_s(self) -> float:
        return sum(t.setup_s for t in self.timings)

    @property
    def sim_s(self) -> float:
        return sum(t.sim_s for t in self.timings)

    @property
    def accesses(self) -> int:
        return sum(t.accesses for t in self.timings)


def cell_key(trace: str, config: str, engine: str) -> str:
    return f"{trace}|{config}|{engine}"


def _cpu_times() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def run_pass(
    workload: BenchWorkload, seed: int, accesses: int, probe: LayerProbe | None = None
) -> Pass:
    """Run every cell of ``workload`` once, instrumented if ``probe`` is set."""
    cpu_before = _cpu_times()
    started = perf_counter()
    run = _sweep_pass if workload.sweep else _drain_pass
    result = run(workload, ExperimentSettings(trace_accesses=accesses, seed=seed), probe)
    calibrating = sum(result.calibration)
    result.wall_s = perf_counter() - started - calibrating
    cpu_after = _cpu_times()
    result.cpu_self_s = cpu_after[0] - cpu_before[0] - calibrating
    result.cpu_children_s = cpu_after[1] - cpu_before[1]
    return result


def _drain_pass(workload: BenchWorkload, settings: ExperimentSettings, probe) -> Pass:
    result = Pass()
    cells = [
        (trace, config, engine)
        for trace in workload.traces()
        for config in CONFIG_NAMES
        for engine in workload.engines
    ]
    with _installed(probe):
        for trace, config, engine in cells:
            key = cell_key(trace.name, config, engine)
            result.calibration.append(calibrate())
            try:
                started = perf_counter()
                prepared = prepare_run(trace, config, settings, engine=engine)
                prepared_at = perf_counter()
                simulated = prepared.run()
                finished = perf_counter()
            except Exception as exc:  # noqa: BLE001 — a failed cell is counted, not fatal
                result.rows[key] = None
                result.errors[key] = f"{type(exc).__name__}: {exc}"
                continue
            result.rows[key] = result_row(simulated)
            result.timings.append(
                CellTiming(key, prepared_at - started, finished - prepared_at, len(prepared.trace))
            )
            del prepared, simulated  # free the page table before the next build
    result.calibration.append(calibrate())
    return result


def _logged_runs(path: Path):
    """Append each ``PreparedRun.run``'s time and accesses to ``path``.

    The sweep runs its cells inside the library, in a forked worker when
    supervised; the class attribute reaches both, and the file carries
    the records back across the fork.  Each record also carries a
    calibration sample taken where the cell ran.
    """

    def make(original):
        def logged(prepared, *args, **kwargs):
            started = perf_counter()
            result = original(prepared, *args, **kwargs)
            record = {
                "key": cell_key(
                    prepared.workload.name, prepared.config_name, prepared.simulator.engine
                ),
                "sim_s": perf_counter() - started,
                "accesses": len(prepared.trace),
                "calibration": calibrate(),
            }
            with open(path, "a") as handle:
                handle.write(json.dumps(record) + "\n")
            return result

        return logged

    return patched(PreparedRun, "run", make)


def _sweep_pass(workload: BenchWorkload, settings: ExperimentSettings, probe) -> Pass:
    """Stop-and-resume sweep: supervised untraced, in process when traced.

    The parent cannot profile a worker process, so the traced pass runs
    the cells in process (``workers=None``).  A cell's setup time is its
    wall time, worker start included, less its ``PreparedRun.run`` time
    and the calibration sample taken after it.
    """
    result = Pass()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="sweep-", dir=WORK_DIR))
    try:
        journal = work / "sweep.jsonl"
        runs_log = work / "runs.jsonl"
        common = dict(
            settings=settings,
            journal_path=journal,
            checkpoint_every=SWEEP_CHECKPOINT_EVERY,
            metrics=True,
            workers=None if probe is not None else 1,
            # Called in this process after each cell, before the next starts.
            progress=lambda _cell: result.calibration.append(calibrate()),
        )
        result.calibration.append(calibrate())
        with _logged_runs(runs_log), _installed(probe):
            first = run_resilient_sweep(
                workload.traces(), CONFIG_NAMES, max_cells=SWEEP_KILL_AFTER, **common
            )
            second = run_resilient_sweep(workload.traces(), CONFIG_NAMES, resume=True, **common)
        result.journal_digest = SweepJournal(journal).digest()
        records = [json.loads(line) for line in runs_log.read_text().splitlines()]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs_by_key: dict[str, list[dict]] = {}
    for record in records:
        runs_by_key.setdefault(record["key"], []).append(record)
        result.worker_calibration.append(record["calibration"])
    engine = workload.engines[0]
    for cell in first.cells + second.cells:
        if cell.status != "ok":  # resumed cells ran in the first call
            continue
        key = cell_key(cell.workload, cell.configuration, engine)
        runs = runs_by_key.get(key, [])
        sim_s = sum(record["sim_s"] for record in runs)
        calibrating = sum(record["calibration"] for record in runs)
        result.timings.append(
            CellTiming(
                key,
                cell.seconds - sim_s - calibrating,
                sim_s,
                sum(record["accesses"] for record in runs),
            )
        )
    for cell in second.cells:
        key = cell_key(cell.workload, cell.configuration, engine)
        if cell.completed:
            result.rows[key] = cell.row
        else:
            result.rows[key] = None
            result.errors[key] = f"status {cell.status}: {cell.error}"
    return result


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def row_digest(row: dict) -> str:
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


def row_violation(row: dict, trace_accesses: int, instructions_per_access: float) -> str | None:
    """First accounting identity a result row breaks, or ``None``."""
    settings = ExperimentSettings(trace_accesses=trace_accesses)
    measured = trace_accesses - int(trace_accesses * settings.sim_params.fast_forward_fraction)
    checks = (
        (row["accesses"] == measured, f"accesses {row['accesses']} != {measured}"),
        (
            row["instructions"] == round(measured * instructions_per_access),
            "instructions != accesses x instructions-per-access",
        ),
        (
            0 <= row["l2_misses"] <= row["l1_misses"] <= row["accesses"],
            "misses break 0 <= L2 <= L1 <= accesses",
        ),
        (row["page_walks"] == row["l2_misses"], "page walks != L2 misses"),
        (row["faulted_accesses"] == 0, "faulted accesses"),
        (
            math.isfinite(row["total_energy_pj"]) and row["total_energy_pj"] > 0,
            "energy is not a positive number",
        ),
    )
    return next((message for holds, message in checks if not holds), None)


def check_pass(
    workload: BenchWorkload, result: Pass, accesses: int, golden: dict | None
) -> dict[str, str]:
    """Failing cells of one pass, ``key -> reason``.

    ``golden`` is this workload's entry for this seed and size, if any.
    """
    failures = dict(result.errors)
    ipa = {trace.name: trace.instructions_per_access for trace in workload.traces()}
    for key, row in result.rows.items():
        if row is None:
            continue
        trace, config, _engine = key.split("|")
        problem = row_violation(row, accesses, ipa[trace])
        expected = golden["cells"].get(key) if golden is not None else None
        if problem is None and golden is not None and expected != row_digest(row):
            problem = f"digest {row_digest(row)[:12]} != golden {str(expected)[:12]}"
        first_engine = result.rows.get(cell_key(trace, config, workload.engines[0]))
        if problem is None and first_engine is not None and first_engine != row:
            problem = f"engines disagree on {trace}|{config}"
        if problem is not None:
            failures[key] = problem
    if golden is not None and golden.get("journal", result.journal_digest) != result.journal_digest:
        failures.setdefault("journal", "sweep journal digest != golden")
    return failures


def load_golden(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def golden_entry(golden: dict, workload: str, seed: int, accesses: int) -> dict | None:
    entry = golden.get(str(seed), {}).get(workload)
    if entry is None or entry["accesses"] != accesses:
        return None
    return entry


def write_golden(path: Path, workload: str, seed: int, accesses: int, result: Pass) -> None:
    golden = load_golden(path)
    entry = {
        "accesses": accesses,
        "cells": {key: row_digest(row) for key, row in sorted(result.rows.items())},
    }
    if result.journal_digest is not None:
        entry["journal"] = result.journal_digest
    golden.setdefault(str(seed), {})[workload] = entry
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def fig10_energy_err(rows: list[dict]) -> float:
    """Mean |measured - paper| of Fig. 10's average energy vs THP."""
    results = {(row["workload"], row["configuration"]): SimpleNamespace(**row) for row in rows}
    names = sorted({name for name, _config in results})
    average = {
        config: average_ratio([normalized_energy(results, name, config) for name in names])
        for config in ("THP", *PAPER_FIG10_ENERGY_VS_THP)
    }
    return statistics.fmean(
        abs(average[config] / average["THP"] - paper)
        for config, paper in PAPER_FIG10_ENERGY_VS_THP.items()
    )


def engine_rows(workload: BenchWorkload, result: Pass) -> list[dict]:
    """The rows of the workload's first engine (engines agree row for row)."""
    suffix = "|" + workload.engines[0]
    return [row for key, row in result.rows.items() if key.endswith(suffix)]


def peak_rss_mb() -> float:
    """Max resident set of this interpreter and of its largest child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is KiB on Linux


def end_to_end_metrics(passes: list[Pass], host_time: bool = False) -> dict[str, float]:
    """Median over passes, in reference seconds (or raw host seconds)."""

    def median(metric) -> float:
        return statistics.median(
            metric(p) * (1.0 if host_time else p.host_scale) for p in passes
        )

    return {
        "wall_s": median(lambda p: p.wall_s),
        "setup_s": median(lambda p: p.setup_s),
        "sim_s": median(lambda p: p.sim_s),
        "accesses_per_s": 1 / median(lambda p: p.sim_s / p.accesses),
        "peak_rss_mb": peak_rss_mb(),
    }


#: Stages inside ``PreparedRun.run``, by (file under src/repro, function).
PROFILED_STAGES = {
    ("mmu/walker.py", "walk"): "mmu.walk_s",
    ("core/lite.py", "end_interval"): "lite.end_interval_s",
    ("energy/model.py", "compute"): "energy.compute_s",
    ("resilience/checkpoint.py", "__call__"): "resilience.checkpoint_s",
}
SELF_TIME_LAYERS = (
    "tlb.set_assoc", "tlb.other", "hierarchy", "fastpath", "mmu", "lite", "observability",
)


def package_path(filename: str) -> str | None:
    """A profiled file's path under src/repro, ``<string>`` kept as is."""
    if filename == "<string>":
        return filename
    try:
        return Path(filename).resolve().relative_to(PACKAGE).as_posix()
    except ValueError:  # C builtins ("~"), the stdlib, numpy, this harness
        return None


def layer_of(source: str | None, function: str) -> str:
    """Which layer a profiled function's self time belongs to."""
    if source == "<string>":
        # The fast engine exec-compiles its drains as ``drain``; other
        # exec-generated code (dataclass methods) is nobody's layer.
        return "fastpath" if function == "drain" else "other"
    if source is None:
        return "other"
    if source == "tlb/set_assoc.py":
        return "tlb.set_assoc"
    if source.startswith("tlb/"):
        return "tlb.other"
    if source.startswith(("mmu/", "observability/")):
        return source.split("/")[0]
    return {
        "core/hierarchy.py": "hierarchy",
        "core/fastpath.py": "fastpath",
        "core/lite.py": "lite",
        "core/counters.py": "lite",
    }.get(source, "other")


def per_layer_metrics(
    workload: BenchWorkload, untraced: Pass, traced: Pass, probe: LayerProbe
) -> dict[str, float]:
    probe.profiler.create_stats()
    metrics = dict(probe.seconds)
    metrics.update(dict.fromkeys(PROFILED_STAGES.values(), 0.0))
    metrics.update(dict.fromkeys((f"{layer}.self_s" for layer in SELF_TIME_LAYERS), 0.0))
    for (filename, _line, function), (_cc, _nc, tt, ct, _callers) in probe.profiler.stats.items():
        source = package_path(filename)
        stage = PROFILED_STAGES.get((source, function))
        if stage is not None:
            metrics[stage] += ct
        layer = layer_of(source, function)
        if layer in SELF_TIME_LAYERS:
            metrics[f"{layer}.self_s"] += tt

    total = {name: sum(cell[name] for cell in probe.cells) for name in probe.cells[0]}
    metrics["workloads.mean_run_length"] = total["trace_accesses"] / total["runs"]
    metrics["fastpath.coalesced_share"] = 1 - total["runs"] / total["trace_accesses"]
    metrics["mem.map_calls"] = probe.map_calls
    metrics["mem.pages_mapped_4k"] = total["pages_mapped_4k"]
    metrics["mem.build_us_per_map"] = metrics["mem.build_s"] / max(probe.map_calls, 1) * 1e6
    metrics["tlb.l1_mpki"] = total["l1_misses"] * 1000 / total["instructions"]
    metrics["tlb.l2_mpki"] = total["l2_misses"] * 1000 / total["instructions"]
    metrics["tlb.l1_hit_ratio"] = 1 - total["l1_misses"] / total["accesses"]
    metrics["mmu.walks"] = total["page_walks"]
    metrics["mmu.refs_per_walk"] = total["page_walk_refs"] / max(total["page_walks"], 1)
    metrics["lite.intervals"] = total["lite_intervals"]
    metrics["resilience.snapshots"] = probe.snapshots
    metrics["resilience.snapshot_mb"] = probe.snapshot_bytes / 2**20

    # Host times that cProfile would distort come from the untraced pass.
    metrics["simulator.run_s"] = untraced.sim_s
    for engine in ("reference", "fast"):
        for config in CONFIG_NAMES:
            cells = [t for t in untraced.timings if t.key.endswith(f"|{config}|{engine}")]
            accesses = sum(t.accesses for t in cells)
            metrics[f"simulator.ns_per_access.{engine}.{config}"] = (
                sum(t.sim_s for t in cells) / accesses * 1e9 if accesses else 0.0
            )
    metrics["resilience.parent_cpu_s"] = untraced.cpu_self_s
    metrics["resilience.child_cpu_s"] = untraced.cpu_children_s
    metrics["resilience.wait_s"] = untraced.wall_s - untraced.cpu_self_s - untraced.cpu_children_s
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    metrics["analysis.fig10_energy_err"] = fig10_energy_err(engine_rows(workload, traced))
    return metrics


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def measure(
    workload: BenchWorkload,
    seed: int,
    seconds: float,
    trace: bool,
    accesses: int,
    golden: dict | None,
) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and report lines."""
    passes = []
    started = perf_counter()
    while True:
        passes.append(run_pass(workload, seed, accesses))
        if trace or perf_counter() - started + passes[-1].wall_s > seconds:
            break
    lines = [f"{workload.name}: seed {seed}, {accesses} accesses, {len(passes)} untraced pass(es)"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        probe = LayerProbe()
        passes.append(run_pass(workload, seed, accesses, probe))
        values = per_layer_metrics(workload, passes[0], passes[1], probe)
        catalog = spec["per_layer"]
    else:
        values = end_to_end_metrics(passes)
        catalog = spec["end_to_end"]
        host = end_to_end_metrics(passes, host_time=True)
        lines.append(
            "host seconds, unscaled: "
            + ", ".join(f"{name} {host[name]:.4g}" for name in ("wall_s", "setup_s", "sim_s"))
            + f"; host scale {statistics.median(p.host_scale for p in passes):.4f}"
        )

    attempted = failed = 0
    for result in passes:
        failures = check_pass(workload, result, accesses, golden)
        attempted += len(result.rows)
        failed += min(len(failures), len(result.rows))
        lines += [f"FAILED {key}: {reason}" for key, reason in sorted(failures.items())]
    lines.append(
        f"cells: {attempted} attempted, {failed} failed "
        f"(error_rate {failed / attempted:.4f}); golden digests "
        + ("checked" if golden is not None else f"not recorded for seed {seed}")
    )
    if failed == 0:
        lines.append(f"fig10_energy_err {fig10_energy_err(engine_rows(workload, passes[0])):.6f}")
    metrics = {item["name"]: {"value": values[item["name"]], "unit": item["unit"]} for item in catalog}
    lines += [f"{name:44s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    outcome = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return outcome, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="repeat passes while another fits in this budget (default: one pass)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from an extra instrumented pass",
    )
    parser.add_argument(
        "--write-golden", action="store_true",
        help="record this seed's result digests in golden.json",
    )
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.write_golden:
            command.append("--write-golden")
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv=None, *, accesses: int | None = None, golden_path: Path = GOLDEN_PATH) -> int:
    """CLI entry point; ``accesses`` overrides the workload's trace length."""
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    workload = WORKLOADS[args.workload]
    accesses = accesses or workload.accesses
    if args.write_golden:
        result = run_pass(workload, args.seed, accesses)
        failures = check_pass(workload, result, accesses, golden=None)
        for key, reason in sorted(failures.items()):
            print(f"FAILED {key}: {reason}")
        if failures:
            return 1
        write_golden(golden_path, workload.name, args.seed, accesses, result)
        print(f"{workload.name}: seed {args.seed} golden digests written to {golden_path}")
        return 0
    golden = golden_entry(load_golden(golden_path), workload.name, args.seed, accesses)
    outcome, lines = measure(workload, args.seed, args.seconds, bool(args.trace), accesses, golden)
    print("\n".join(lines))
    print(json.dumps(outcome), flush=True)
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
