"""Resilient sweep runner: checkpointed, isolated, resumable matrices.

The paper's figures come from (workload × configuration) sweeps that can
run for hours at full scale; a crash in cell 47 of 60 must not cost the
previous 46.  :func:`run_resilient_sweep` is the one driver of every
sweep.  It hardens :func:`repro.analysis.experiments.run_matrix` with:

* **per-cell isolation** — one cell's exception never kills the sweep;
  the cell is marked failed and the matrix continues;
* **retry with backoff** — a failed attempt gets ``retries`` further
  attempts with exponential backoff, ahead of every other queued cell;
* **crash quarantine** — a cell whose worker process keeps dying is
  journaled as quarantined and skipped by every later resume;
* **a JSON checkpoint journal** — every completed cell is appended (and
  fsynced) to a JSON-lines journal keyed by a fingerprint of the matrix,
  so an interrupted sweep resumes exactly where it stopped;
* **partial-result reporting** — the report distinguishes ``ok``,
  ``resumed`` (loaded from the journal), ``failed``, ``timeout``,
  ``skipped`` and the other outcomes instead of silently dropping cells.

Each attempt at a cell is one call of :func:`run_cell`, made by one of
two executors over the same queue: this process (``workers=None``), or
supervised worker processes (``workers=N``,
:mod:`repro.resilience.supervisor`), which add hard timeouts,
heartbeats, memory budgets and chaos injection.  An executor only
reports a :class:`CellOutcome` per attempt; the journal, the retry and
quarantine policy and the metrics sidecar live here, once.

Determinism contract: a resumed sweep produces byte-identical result rows
to an uninterrupted one, because rows for already-completed cells are
replayed verbatim from the journal and fresh cells are seeded exactly as
the original run would have seeded them.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from ..analysis.experiments import ExperimentSettings, prepare_run
from ..core.organizations import CONFIG_NAMES
from ..errors import CheckpointError, QuarantinedCellError, SweepError
from ..ioutils import atomic_write_json, atomic_write_text
from ..workloads.base import Workload
from .auditor import InvariantAuditor
from .checkpoint import SimulationCheckpointer, claim_snapshot, restore_simulation

#: Journal schema version.  v2 adds ``{"kind": "quarantined", ...}`` rows
#: (poison cells the supervisor gave up on); v1 journals had no ``kind``
#: discriminator, so mis-parsing them silently would surface quarantine
#: rows as missing cells — loading rejects any other version outright.
JOURNAL_VERSION = 2


def result_row(result) -> dict:
    """Stable JSON-serializable row for one finished cell.

    Only derived scalars — floats serialize via ``repr`` (shortest
    round-trip form), so identical simulations yield identical bytes.
    """
    return {
        "workload": result.workload,
        "configuration": result.configuration,
        "accesses": result.accesses,
        "instructions": result.instructions,
        "l1_misses": result.l1_misses,
        "l2_misses": result.l2_misses,
        "page_walks": result.page_walks,
        "total_energy_pj": result.total_energy_pj,
        "energy_per_access_pj": result.energy_per_access_pj,
        "l1_mpki": result.l1_mpki,
        "l2_mpki": result.l2_mpki,
        "miss_cycles": result.miss_cycles,
        "faulted_accesses": result.faulted_accesses,
    }


def _fingerprint(
    workload_names: list[str],
    config_names: tuple[str, ...],
    settings: ExperimentSettings,
) -> dict:
    return {
        "workloads": list(workload_names),
        "configurations": list(config_names),
        "trace_accesses": settings.trace_accesses,
        "seed": settings.seed,
        "thp_coverage": settings.thp_coverage,
        "physical_bytes": settings.physical_bytes,
    }


def _cell_key(workload_name: str, config_name: str) -> str:
    return f"{workload_name}|{config_name}"


@dataclass(slots=True)
class JournalState:
    """Everything a resume needs from a journal: rows and quarantines."""

    completed: dict[str, dict] = field(default_factory=dict)
    quarantined: dict[str, dict] = field(default_factory=dict)


class SweepJournal:
    """Append-only JSON-lines checkpoint of completed sweep cells.

    Line 1 is a header with the matrix fingerprint; each further line is
    either a completed cell ``{"key": ..., "row": {...}}`` or a poison
    cell ``{"kind": "quarantined", "key": ..., "crashes": N, "error":
    ...}``.  Appends are flushed and fsynced so a kill loses at most the
    cell in flight; a torn trailing line (partial write) is tolerated and
    ignored on load.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def start(self, fingerprint: dict) -> None:
        """Atomically (re)create the journal with a fresh header.

        Atomic replace, not truncate-then-write: a kill between truncation
        and the header write would otherwise leave an empty journal that a
        later ``--resume`` rejects as corrupt.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps(
            {"journal_version": JOURNAL_VERSION, "fingerprint": fingerprint},
            sort_keys=True,
        )
        atomic_write_text(self.path, header + "\n")

    def load_state(self, fingerprint: dict | None) -> JournalState:
        """Full journal state (completed + quarantined cells).

        Validates the schema version and — unless ``fingerprint`` is
        ``None`` — that the journal belongs to the requested matrix.
        """
        if not self.exists():
            raise SweepError(f"no journal to resume at {self.path}")
        state = JournalState()
        with open(self.path) as handle:
            lines = handle.read().splitlines()
        if not lines:
            raise SweepError(f"journal {self.path} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise SweepError(f"journal {self.path} has a corrupt header") from exc
        version = header.get("journal_version")
        if version != JOURNAL_VERSION:
            # Old journals must fail loudly, not mis-parse: a v1 reader
            # would surface v2 quarantine rows as silently missing cells
            # (and vice versa), corrupting a resumed sweep's accounting.
            raise SweepError(
                f"journal {self.path} uses schema version {version!r}; this "
                f"build reads only version {JOURNAL_VERSION}. Old journals "
                "cannot carry quarantine rows — re-run the sweep without "
                "--resume (or finish it with the build that wrote it)."
            )
        if fingerprint is not None and header.get("fingerprint") != fingerprint:
            raise SweepError(
                f"journal {self.path} was written for a different matrix; "
                "refusing to resume (delete it or match the original settings)"
            )
        for number, line in enumerate(lines[1:], start=2):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A torn final line is the expected signature of a mid-write
                # kill; garbage anywhere costs only that cell (it re-runs).
                warnings.warn(
                    f"journal {self.path} line {number} is truncated or "
                    "corrupt; ignoring it (the cell will be re-run)",
                    stacklevel=2,
                )
                continue
            if record.get("kind") == "quarantined" and "key" in record:
                state.quarantined[record["key"]] = {
                    "crashes": record.get("crashes", 0),
                    "error": record.get("error"),
                }
            elif "key" in record and "row" in record:
                state.completed[record["key"]] = record["row"]
        return state

    def append(self, key: str, row: dict) -> None:
        self._append_record({"key": key, "row": row})

    def append_quarantine(self, key: str, crashes: int, error: str) -> None:
        """Journal a poison cell so ``--resume`` skips it."""
        self._append_record(
            {"kind": "quarantined", "key": key, "crashes": crashes, "error": error}
        )

    def _append_record(self, record: dict) -> None:
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def digest(self) -> str:
        """Order-independent sha256 over the journal's completed rows.

        Two sweeps of the same matrix agree on this digest iff they
        produced identical result rows, regardless of the completion
        order their worker schedules happened to journal them in — the
        comparison the chaos CI job makes between a kill-riddled parallel
        sweep and an unfaulted serial one.
        """
        state = self.load_state(fingerprint=None)
        canonical = json.dumps(sorted(state.completed.items()), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


class CrashLedger:
    """Crash tallies for in-flight cells, persisted beside the journal.

    Lives *outside* the journal on purpose: the journal's byte-identity
    contract (a resumed sweep's journal equals an uninterrupted run's)
    must hold even when transient crashes forced retries, so per-attempt
    crash records cannot go into the journal itself.  Only the terminal
    quarantine decision does.  The ledger survives restarts so a poison
    cell's crash count keeps accumulating across ``--resume`` cycles
    instead of resetting and dodging quarantine forever.
    """

    def __init__(self, journal_path=None) -> None:
        #: ``None`` (no journal) keeps the tallies in memory only.
        self.path = (
            Path(str(journal_path) + ".crashes.json")
            if journal_path is not None
            else None
        )
        self._counts: dict[str, int] = {}

    def load(self) -> None:
        if self.path is None or not self.path.exists():
            self._counts = {}
            return
        try:
            self._counts = {
                str(key): int(value)
                for key, value in json.loads(self.path.read_text()).items()
            }
        except (OSError, ValueError) as exc:
            warnings.warn(
                f"crash ledger {self.path} is unreadable ({exc}); "
                "crash counts restart from zero",
                stacklevel=2,
            )
            self._counts = {}

    def count(self, key: str) -> int:
        return self._counts.get(key, 0)

    def bump(self, key: str) -> int:
        """Record one crash; returns the new tally (persisted atomically)."""
        self._counts[key] = self._counts.get(key, 0) + 1
        if self.path is not None:
            atomic_write_json(self.path, self._counts)
        return self._counts[key]

    def reset(self) -> None:
        self._counts = {}
        if self.path is not None and self.path.exists():
            self.path.unlink()


@dataclass(slots=True)
class SweepCell:
    """Outcome of one (workload, configuration) cell."""

    workload: str
    configuration: str
    #: ok | resumed | failed | skipped — plus, from worker processes:
    #: timeout (SIGKILLed over its wall-clock or heartbeat budget), oom
    #: (memory budget breached), quarantined (poison cell journaled and
    #: skipped), interrupted (graceful shutdown drained this cell
    #: mid-trace; it resumes next run).
    status: str
    row: dict | None = None
    error: str | None = None
    attempts: int = 0
    seconds: float = 0.0
    #: Final observability snapshot (``metrics=True`` sweeps only).  For a
    #: worker that crashed or timed out this is its last heartbeat's
    #: cumulative snapshot — best-effort, never authoritative.
    metrics: dict | None = None

    @property
    def completed(self) -> bool:
        return self.status in ("ok", "resumed")


@dataclass(slots=True)
class SweepReport:
    """Every cell of one sweep, completed or not."""

    cells: list[SweepCell] = field(default_factory=list)
    interrupted: bool = False
    #: Aggregated metrics document ({"cells": ..., "totals": ...}) when
    #: the sweep ran with ``metrics=True``; mirrored to the
    #: ``<journal>.metrics.json`` sidecar when a journal is in use.
    metrics: dict | None = None

    def rows(self) -> list[dict]:
        return [cell.row for cell in self.cells if cell.completed]

    def cell(self, workload: str, configuration: str) -> SweepCell | None:
        for cell in self.cells:
            if cell.workload == workload and cell.configuration == configuration:
                return cell
        return None

    @property
    def completed_count(self) -> int:
        return sum(1 for cell in self.cells if cell.completed)

    @property
    def failed_cells(self) -> list[SweepCell]:
        return [
            cell
            for cell in self.cells
            if cell.status in ("failed", "timeout", "oom", "quarantined")
        ]

    def summary(self) -> str:
        counts: dict[str, int] = {}
        for cell in self.cells:
            counts[cell.status] = counts.get(cell.status, 0) + 1
        return ", ".join(f"{status}: {count}" for status, count in sorted(counts.items()))


def _cell_checkpoint_path(journal_path: Path, key: str) -> Path:
    """Snapshot file for one in-flight cell, derived from the journal path."""
    safe_key = key.replace("|", "--").replace(os.sep, "_")
    return journal_path.with_name(f"{journal_path.name}.{safe_key}.ckpt")


# ----------------------------------------------------------------------
# One attempt at one cell
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellOptions:
    """How every cell of one sweep runs; plain data, so workers get it too."""

    settings: ExperimentSettings
    audit: bool = False
    metrics: bool = False
    checkpoint_every: int | None = None


@dataclass(slots=True)
class CellOutcome:
    """What one attempt at a cell came to, as an executor reports it.

    ``status`` is ``ok``; ``failed`` (an exception, retried while
    ``retries`` allows); ``crash`` (the worker died without reporting,
    retried until quarantine); or a final ``oom``, ``timeout`` or
    ``interrupted``.
    """

    status: str
    row: dict | None = None
    error: str | None = None
    metrics: dict | None = None
    #: Wall time of the attempt; for a worker, launch to reap.
    seconds: float = 0.0


def run_cell(
    workload: Workload,
    config_name: str,
    options: CellOptions,
    *,
    checkpoint_path: Path | None = None,
    restore: bool = False,
    on_boundary=None,
    hook_factory=None,
) -> tuple[dict, dict | None]:
    """One attempt at one cell; returns ``(result row, metrics or None)``.

    Builds the cell, restores its snapshot when ``restore`` is set and
    :func:`~repro.resilience.checkpoint.claim_snapshot` finds a usable
    one, attaches a :class:`SimulationCheckpointer` when there is a
    snapshot path or an ``on_boundary`` callback (``hook_factory`` gets
    it before the run), and runs.  A snapshot that reads but does not
    restore is deleted and the cell is built again from scratch: the
    failed restore may already have re-fired events into the first
    build or loaded part of its state.
    Exceptions propagate; the driver decides what they mean.
    """
    observability = None
    if options.metrics:
        from ..observability import Observability

        observability = Observability()

    def build():
        return prepare_run(
            workload,
            config_name,
            options.settings,
            auditor=InvariantAuditor() if options.audit else None,
            on_fault="record",
            observability=observability,
        )

    prepared = build()
    resume_state = None
    state = claim_snapshot(checkpoint_path) if restore and checkpoint_path else None
    if state is not None:
        try:
            resume_state = restore_simulation(prepared, state)
        except CheckpointError as exc:
            warnings.warn(
                f"snapshot {checkpoint_path} failed to restore ({exc}); "
                "starting the cell from access 0",
                stacklevel=2,
            )
            checkpoint_path.unlink(missing_ok=True)
            prepared = build()
    hook = None
    if checkpoint_path is not None or on_boundary is not None:
        hook = SimulationCheckpointer(
            prepared.simulator,
            prepared.process,
            path=checkpoint_path,
            checkpoint_every=options.checkpoint_every or 1,
            meta={"workload": workload.name, "configuration": config_name},
            on_boundary=on_boundary,
            observability=observability,
        )
        if hook_factory is not None:
            hook_factory(hook)
    result = prepared.run(checkpoint_hook=hook, resume_state=resume_state)
    snapshot = observability.snapshot() if observability is not None else None
    return result_row(result), snapshot


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _PendingCell:
    """One cell waiting for its next attempt."""

    workload: Workload
    configuration: str
    key: str
    checkpoint_path: Path | None
    #: The snapshot rule of both executors: a cell may restore its
    #: snapshot only when the sweep loaded a journal, or on a retry.
    restore: bool
    attempt: int = 0
    failures: int = 0  # ``failed`` outcomes so far, against ``retries``
    not_before: float = 0.0
    backoff_s: float = 0.0


def run_resilient_sweep(
    workloads,
    config_names: tuple[str, ...] = CONFIG_NAMES,
    settings: ExperimentSettings | None = None,
    journal_path=None,
    resume: bool = False,
    retries: int = 1,
    backoff_s: float = 0.05,
    cell_timeout_s: float | None = None,
    audit: bool = False,
    max_cells: int | None = None,
    progress=None,
    checkpoint_every: int | None = None,
    checkpoint_hook_factory=None,
    workers: int | None = None,
    quarantine_after: int = 3,
    heartbeat_timeout_s: float | None = None,
    memory_limit_mb: int | None = None,
    chaos=None,
    metrics: bool = False,
) -> SweepReport:
    """Run the (workload × configuration) matrix with full hardening.

    Parameters beyond the matrix itself:

    ``journal_path`` / ``resume``
        Enable the checkpoint journal; with ``resume`` the journal's
        completed cells are replayed instead of re-simulated.
    ``retries`` / ``backoff_s``
        Extra attempts per failing cell with exponential backoff (any
        exception counts; ``timeout`` and ``oom`` are final).
    ``audit``
        Attach a fresh :class:`InvariantAuditor` to every cell.
    ``max_cells``
        Run at most this many cells (test hook that simulates a
        mid-matrix kill; the rest are reported as ``skipped``).
    ``progress``
        Optional callable invoked in this process with each finished
        :class:`SweepCell`.
    ``checkpoint_every``
        Snapshot the in-flight cell's full simulation state every N
        interval boundaries (see :mod:`repro.resilience.checkpoint`),
        next to the journal.  A cell restores its snapshot mid-trace only
        when a journal was loaded (``resume``) or on a retry.  A fresh
        sweep first deletes every leftover snapshot, and a snapshot is
        deleted once its cell is journaled.  Requires a ``journal_path``.
    ``checkpoint_hook_factory``
        Test hook for ``workers=None``: ``factory(checkpointer)`` is
        called with each cell's :class:`SimulationCheckpointer` before
        the run starts (e.g. to set ``abort_after`` and simulate a
        mid-cell kill).
    ``workers``
        ``None`` (default) runs every attempt in this process.  An
        integer N ≥ 1 runs each attempt in one of N supervised worker
        processes (:mod:`repro.resilience.supervisor`), which rebuild
        their workload from the registry by name.  ``workers=1``
        journals byte-identically to ``workers=None``; more workers
        journal in completion order (compare with
        :meth:`SweepJournal.digest`).
    ``cell_timeout_s`` / ``heartbeat_timeout_s`` / ``memory_limit_mb`` / ``chaos``
        A wall-clock budget per attempt, a budget for heartbeat silence
        (hang detection), an address-space budget, and a
        :class:`repro.resilience.faults.ChaosPolicy` injected into the
        workers.  They need worker processes: with ``workers=None``
        each raises :class:`SweepError`.  So does a ``cell_timeout_s`` or
        ``memory_limit_mb`` that is not positive, and a
        ``heartbeat_timeout_s`` at or below two supervisor poll
        intervals (0.1 s).
    ``quarantine_after``
        A cell whose worker dies without reporting this many times —
        tallied across ``--resume`` cycles in a :class:`CrashLedger` —
        is journaled as quarantined and skipped thereafter.
    ``metrics``
        Run every cell with an :class:`repro.observability.Observability`
        hub and aggregate the per-cell snapshots onto ``report.metrics``
        (and, with a journal, into the ``<journal>.metrics.json``
        sidecar).  The journal itself stays byte-identical to a
        metrics-off sweep — telemetry never enters result rows.
    """
    if workers is None:
        for name, value in (
            ("cell_timeout_s", cell_timeout_s),
            ("heartbeat_timeout_s", heartbeat_timeout_s),
            ("memory_limit_mb", memory_limit_mb),
            ("chaos", chaos),
        ):
            if value is not None:
                raise SweepError(
                    f"{name} needs worker processes; pass workers=N "
                    "(CLI: --workers N with N >= 1)"
                )
    elif workers < 1:
        raise SweepError(f"workers must be >= 1, got {workers}")
    elif checkpoint_hook_factory is not None:
        raise SweepError(
            "checkpoint_hook_factory is an in-process test hook; it "
            "cannot cross the worker process boundary (use chaos=... "
            "or workers=None)"
        )
    else:
        from .supervisor import check_budgets

        check_budgets(cell_timeout_s, heartbeat_timeout_s, memory_limit_mb)
    if quarantine_after < 1:
        raise SweepError(f"quarantine_after must be >= 1, got {quarantine_after}")
    if journal_path is None and resume:
        raise SweepError("--resume requires a journal path")
    if journal_path is None and checkpoint_every is not None:
        raise SweepError("checkpoint_every requires a journal path")

    settings = settings or ExperimentSettings()
    workloads = list(workloads)
    fingerprint = _fingerprint([w.name for w in workloads], config_names, settings)
    journal = SweepJournal(journal_path) if journal_path is not None else None
    ledger = CrashLedger(journal.path if journal is not None else None)
    loaded = resume and journal is not None and journal.exists()
    if loaded:
        journal_state = journal.load_state(fingerprint)
        ledger.load()
    else:
        journal_state = JournalState()
        if journal is not None:
            journal.start(fingerprint)
        ledger.reset()

    report = SweepReport()
    cells: dict[str, SweepCell] = {}
    pending: list[_PendingCell] = []
    for workload in workloads:
        for config_name in config_names:
            key = _cell_key(workload.name, config_name)
            cell = SweepCell(
                workload=workload.name, configuration=config_name, status="skipped"
            )
            report.cells.append(cell)
            cells[key] = cell
            snapshot = (
                _cell_checkpoint_path(journal.path, key)
                if checkpoint_every is not None
                else None
            )
            if snapshot is not None and (not loaded or key in journal_state.completed):
                # A fresh sweep must never restore an earlier experiment's
                # snapshot, and a journaled cell no longer needs its own.
                snapshot.unlink(missing_ok=True)
            if key in journal_state.quarantined:
                info = journal_state.quarantined[key]
                cell.status = "quarantined"
                cell.error = info.get("error")
                cell.attempts = info.get("crashes", 0)
            elif key in journal_state.completed:
                cell.status = "resumed"
                cell.row = journal_state.completed[key]
            elif max_cells is not None and len(pending) >= max_cells:
                report.interrupted = True  # the cell stays "skipped"
                continue
            else:
                pending.append(
                    _PendingCell(
                        workload,
                        config_name,
                        key,
                        snapshot,
                        restore=loaded,
                        backoff_s=backoff_s,
                    )
                )
                continue
            if progress is not None:
                progress(cell)

    def settle(slot: _PendingCell, outcome: CellOutcome) -> None:
        """The outcome policy: journal, retry, quarantine, report."""
        cell = cells[slot.key]
        cell.attempts = slot.attempt + 1
        cell.seconds += outcome.seconds
        cell.error = outcome.error
        if outcome.metrics is not None:
            cell.metrics = outcome.metrics
        status = outcome.status
        if status == "failed" and slot.failures < retries:
            slot.failures += 1
            _requeue(pending, slot)
            return
        if status == "crash":
            crashes = ledger.bump(slot.key)
            if crashes < quarantine_after:
                _requeue(pending, slot)
                return
            status = "quarantined"
            cell.error = str(
                QuarantinedCellError(
                    f"cell {slot.key} quarantined after {crashes} worker "
                    f"crashes (last: {outcome.error})"
                )
            )
            if journal is not None:
                journal.append_quarantine(slot.key, crashes, cell.error)
        elif status == "ok":
            cell.row = outcome.row
            if journal is not None:
                journal.append(slot.key, cell.row)
        if status in ("ok", "quarantined") and slot.checkpoint_path is not None:
            slot.checkpoint_path.unlink(missing_ok=True)  # resume point superseded
        cell.status = status
        if progress is not None:
            progress(cell)

    options = CellOptions(
        settings=settings, audit=audit, metrics=metrics, checkpoint_every=checkpoint_every
    )
    if workers is None:
        _run_in_process(pending, settle, options, checkpoint_hook_factory)
    else:
        from .supervisor import run_worker_pool

        if run_worker_pool(
            pending,
            settle,
            options,
            workers=workers,
            cell_timeout_s=cell_timeout_s,
            heartbeat_timeout_s=heartbeat_timeout_s,
            memory_limit_mb=memory_limit_mb,
            chaos=chaos,
        ):
            report.interrupted = True
    if not report.interrupted:
        ledger.reset()  # sweep finished; no crash history to carry forward
    if metrics:
        from ..observability import (
            aggregate_cell_metrics,
            metrics_sidecar_path,
            write_metrics_sidecar,
        )

        fresh = {
            key: cell.metrics for key, cell in cells.items() if cell.metrics is not None
        }
        existing = metrics_sidecar_path(journal.path) if loaded else None
        report.metrics = aggregate_cell_metrics(fresh, existing)
        if journal is not None:
            write_metrics_sidecar(journal.path, report.metrics)
    return report


def _requeue(pending: list[_PendingCell], slot: _PendingCell) -> None:
    """Queue a cell's next attempt at the *front*, after its backoff.

    Front, not back: with one attempt at a time the journal keeps matrix
    order, so ``workers=1`` journals byte-identically to ``workers=None``.
    A retry may restore the snapshot the last attempt left behind.
    """
    slot.attempt += 1
    slot.restore = True
    slot.not_before = time.monotonic() + slot.backoff_s
    slot.backoff_s *= 2
    pending.insert(0, slot)


def _run_in_process(
    pending: list[_PendingCell], settle, options: CellOptions, hook_factory
) -> None:
    """The ``workers=None`` executor: every attempt here, in queue order."""
    while pending:
        slot = pending.pop(0)
        wait = slot.not_before - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        started = time.perf_counter()
        try:
            row, snapshot = run_cell(
                slot.workload,
                slot.configuration,
                options,
                checkpoint_path=slot.checkpoint_path,
                restore=slot.restore,
                hook_factory=hook_factory,
            )
            outcome = CellOutcome("ok", row=row, metrics=snapshot)
        except Exception as exc:  # noqa: BLE001 — per-cell isolation
            outcome = CellOutcome("failed", error=f"{type(exc).__name__}: {exc}")
        outcome.seconds = time.perf_counter() - started
        settle(slot, outcome)
