"""Process-isolated execution of sweep cells: workers, heartbeats, signals.

:func:`repro.resilience.sweep.run_resilient_sweep` hands its queue of
pending cells to :func:`run_worker_pool` when ``workers=N``.  Every
attempt then runs :func:`repro.resilience.sweep.run_cell` in its own OS
process, which buys what an attempt in the driver's process cannot have:

* **N parallel workers** (``workers``; 1 dispatches strictly in queue
  order, so its journal is byte-identical to an in-process run's);
* **hard SIGKILL timeouts** — a cell over its wall-clock budget is
  killed, not abandoned, actually reclaiming the core;
* **heartbeats** — workers pump a heartbeat pipe at drain-loop
  boundaries (the same boundaries the checkpoint hook fires at), at most
  one beat per supervisor poll interval, so a hang is detected as soon
  as the beat stops, before the timeout expires;
* **memory budgets** — ``resource.setrlimit`` address-space caps (the
  enforceable proxy for an RSS budget; Linux does not enforce
  ``RLIMIT_RSS``) turn a runaway cell into a structured ``oom`` status
  instead of a machine-wide OOM incident;
* **crash detection** — a worker that dies without reporting (SIGKILL,
  segfault, OOM killer) becomes a ``crash`` outcome instead of taking
  the sweep down;
* **graceful shutdown** — SIGINT/SIGTERM stops dispatch, SIGTERMs the
  in-flight workers, which drain to the next boundary, flush a mid-cell
  snapshot, and report ``interrupted``;
* **chaos** — a :class:`repro.resilience.faults.ChaosPolicy` strikes
  inside the workers to drill all of the above;
* **one trace per workload** — the first attempt at a workload saves its
  reference stream in the pool's private directory and later attempts
  load it, so a pool generates each trace once.

The pool decides nothing about journals, retries or quarantine: each
reaped attempt goes back to the driver as one
:class:`repro.resilience.sweep.CellOutcome`, and the driver may put the
cell back at the front of the queue.
"""

from __future__ import annotations

import multiprocessing
import shutil
import signal
import tempfile
import time
import warnings
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from pathlib import Path

from ..errors import MemoryBudgetError, SweepError, WorkerCrashError
from .faults import ChaosPolicy
from .sweep import CellOptions, CellOutcome, _cell_key, run_cell

#: Supervisor poll cadence — bounds how stale heartbeat/deadline checks
#: can be.  Small enough that hang detection adds negligible latency,
#: large enough that a mostly-idle supervisor costs ~nothing.  A worker
#: sends at most one heartbeat per interval, since the supervisor reads
#: them no more often: a beat can be up to two intervals old when read.
_POLL_INTERVAL_S = 0.05

#: How long a worker that already sent its result may take to exit
#: before the supervisor kills it anyway.
_EXIT_GRACE_S = 5.0

#: After SIGINT/SIGTERM, how long drained workers get to flush their
#: snapshots and exit before they are SIGKILLed.
_GRACEFUL_TIMEOUT_S = 30.0


class _GracefulExit(Exception):
    """Raised inside a worker at the first boundary after SIGTERM."""


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerTask:
    """Everything one worker needs, as picklable data.

    The workload travels by registry name, so the task survives any
    multiprocessing start method (``fork`` and ``spawn`` alike) and can
    be logged verbatim when debugging a quarantined cell.  ``trace_dir``
    is the pool's private directory of traces, one ``<workload>.npy``
    per workload.
    """

    workload: str
    configuration: str
    attempt: int
    options: CellOptions
    trace_dir: Path
    checkpoint_path: Path | None = None
    restore: bool = False
    memory_limit_mb: int | None = None
    chaos: dict | None = None


def _apply_memory_limit(limit_mb: int | None) -> None:
    """Cap this process's address space (the enforceable RSS proxy).

    Linux accepts but does not enforce ``RLIMIT_RSS``, so the budget is
    applied to ``RLIMIT_AS``: any allocation pushing the worker past the
    cap fails with :class:`MemoryError`, which the worker marshals into
    the structured ``oom`` status.  Best-effort on platforms without
    ``resource`` (Windows) — the supervisor still works, budgets don't.
    """
    if limit_mb is None:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover — POSIX-only guard
        warnings.warn(
            "resource.setrlimit is unavailable on this platform; "
            "memory_limit_mb is not enforced",
            stacklevel=2,
        )
        return
    limit = int(limit_mb) << 20
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OSError) as exc:  # pragma: no cover — kernel policy
        warnings.warn(f"cannot apply memory budget ({exc})", stacklevel=2)


def _worker_main(task: WorkerTask, result_conn, heartbeat_conn) -> None:
    """Entry point of one worker process: simulate one cell, report once.

    The worker owns its own signal disposition: SIGINT is ignored (a
    terminal Ctrl-C belongs to the supervisor, which orchestrates the
    drain), SIGTERM requests a graceful exit honoured at the next
    drain-loop boundary — after flushing a mid-cell snapshot when
    checkpointing is on, so the interrupted cell resumes mid-trace.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    shutdown = {"requested": False}

    def _on_sigterm(_signum, _frame) -> None:
        shutdown["requested"] = True

    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        row, metrics = _simulate_cell(task, heartbeat_conn, shutdown)
        result_conn.send({"status": "ok", "row": row, "metrics": metrics})
    except _GracefulExit as exc:
        result_conn.send({"status": "interrupted", "error": str(exc)})
    except MemoryError as exc:
        # The budget breach itself, or a chaos-simulated one.  Allocation
        # headroom exists again once the failed frame unwinds, so this
        # structured report is reliable in practice.
        budget = (
            f"{task.memory_limit_mb} MB"
            if task.memory_limit_mb is not None
            else "chaos-injected"
        )
        error = MemoryBudgetError(f"memory budget exhausted ({budget}): {exc}")
        result_conn.send({"status": "oom", "error": f"{type(error).__name__}: {error}"})
    except BaseException as exc:  # noqa: BLE001 — marshalled to supervisor
        result_conn.send(
            {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}
        )
    finally:
        result_conn.close()
        heartbeat_conn.close()


def _simulate_cell(task: WorkerTask, heartbeat_conn, shutdown: dict) -> tuple:
    """Run :func:`run_cell` inside the worker, pumping heartbeats.

    A boundary sends a heartbeat only once ``_POLL_INTERVAL_S`` has
    passed since the last one (or since the worker started, as the
    supervisor counts its launch as the first beat): each send is a pipe
    write that wakes the supervisor, which reads beats no more often
    than that.  Chaos strikes and the SIGTERM check run at every
    boundary.
    """
    # Imported here so a spawn-start worker pays for the registry, not
    # the supervisor's loop.
    from ..workloads.base import load_or_generate_trace
    from ..workloads.registry import get_workload

    _apply_memory_limit(task.memory_limit_mb)
    workload = get_workload(task.workload)
    settings = task.options.settings
    # The first attempt at a workload saves its trace for the pool; later
    # ones load it into the slot that prepare_run reads.
    load_or_generate_trace(
        workload,
        settings.trace_accesses,
        settings.seed,
        task.trace_dir / f"{task.workload}.npy",
    )
    chaos = ChaosPolicy.from_json(task.chaos) if task.chaos else None
    chaos_rng = (
        chaos.rng(_cell_key(task.workload, task.configuration), task.attempt)
        if chaos
        else None
    )
    checkpointers: list = []
    last_beat = time.monotonic()

    def on_boundary(loop_state: dict) -> None:
        nonlocal last_beat
        checkpointer = checkpointers[0]
        now = time.monotonic()
        if now - last_beat >= _POLL_INTERVAL_S:
            last_beat = now
            beat = {"boundary": loop_state["boundary"], "ts": now}
            if checkpointer.observability is not None:
                # Cumulative snapshot: if the worker crashes later, the
                # supervisor keeps the last beat's metrics as best-effort.
                beat["metrics"] = checkpointer.observability.snapshot()
            try:
                heartbeat_conn.send(beat)
            except (BrokenPipeError, OSError):
                pass  # supervisor died; finish the cell, the result send will tell
        if chaos is not None:
            chaos.strike(chaos_rng, loop_state["boundary"], task.attempt)
        if shutdown["requested"]:
            checkpointer.snapshot_now(loop_state)
            raise _GracefulExit(
                f"SIGTERM honoured at boundary {loop_state['boundary']}"
            )

    # The checkpointer doubles as the heartbeat pump: with no snapshot
    # path it writes nothing but still fires on_boundary at every
    # drain-loop boundary.
    return run_cell(
        workload,
        task.configuration,
        task.options,
        checkpoint_path=task.checkpoint_path,
        restore=task.restore,
        on_boundary=on_boundary,
        hook_factory=checkpointers.append,
    )


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _Inflight:
    """One live worker and everything needed to supervise it."""

    process: object
    slot: object  # the driver's pending cell
    result_recv: object
    heartbeat_recv: object
    started: float
    deadline: float | None
    last_heartbeat: float
    result: dict | None = None
    killed_for: str | None = None  # "timeout" | "hang" | "shutdown"
    result_seen_at: float | None = None
    last_metrics: dict | None = None  # cumulative snapshot off the heartbeat


class _ShutdownState:
    """Mutable flag set by the supervisor's SIGINT/SIGTERM handlers."""

    def __init__(self) -> None:
        self.requested = False
        self.signalled = False
        self.deadline: float | None = None
        self.signum: int | None = None

    def handler(self, signum, _frame) -> None:
        self.requested = True
        self.signum = signum


def check_budgets(
    cell_timeout_s: float | None,
    heartbeat_timeout_s: float | None,
    memory_limit_mb: int | None,
) -> None:
    """Raise :class:`SweepError` for a budget no worker could meet.

    A budget that is not positive would SIGKILL every worker at its
    first poll and report each cell as a final ``timeout``.  A heartbeat
    budget must exceed two poll intervals: a worker beats at most once
    per interval and the supervisor reads once per interval, so a live
    worker's last beat can be that old when read.
    """
    for name, value in (("cell_timeout_s", cell_timeout_s), ("memory_limit_mb", memory_limit_mb)):
        if value is not None and value <= 0:
            raise SweepError(f"{name} must be positive, got {value}")
    if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 2 * _POLL_INTERVAL_S:
        raise SweepError(
            f"heartbeat_timeout_s must exceed {2 * _POLL_INTERVAL_S} s (two "
            f"supervisor poll intervals), got {heartbeat_timeout_s}"
        )


def _mp_context():
    """Fork where the platform has it (cheap, inherits imports); else default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_worker_pool(
    pending: list,
    settle,
    options: CellOptions,
    *,
    workers: int,
    cell_timeout_s: float | None = None,
    heartbeat_timeout_s: float | None = None,
    memory_limit_mb: int | None = None,
    chaos: ChaosPolicy | None = None,
) -> bool:
    """Run the driver's queue of cells in worker processes.

    ``pending`` is the driver's queue and ``settle`` its outcome policy:
    every reaped attempt is passed to ``settle(cell, outcome)``, which
    may put the cell back at the front of ``pending``.  Runs until the
    queue and the pool are empty, or until a SIGINT/SIGTERM has drained
    the in-flight workers; returns whether such a signal stopped it.
    The budgets and ``chaos`` are the driver's parameters of the same
    names.

    The pool owns a private temporary directory of traces for its
    lifetime: each workload's first attempt writes its trace there and
    every later attempt loads it (``load_or_generate_trace``).  The
    directory is removed on every way out of this function.
    """
    chaos_spec = chaos.to_json() if chaos is not None else None
    ctx = _mp_context()
    trace_dir = Path(tempfile.mkdtemp(prefix="repro-traces-"))
    shutdown = _ShutdownState()
    previous_handlers = _install_handlers(shutdown)
    inflight: dict[int, _Inflight] = {}
    try:
        while pending or inflight:
            now = time.monotonic()
            if shutdown.requested and not shutdown.signalled:
                # Stop dispatching; ask live workers to drain gracefully.
                for entry in inflight.values():
                    entry.killed_for = "shutdown"
                    entry.process.terminate()  # SIGTERM → drain at boundary
                shutdown.signalled = True
                shutdown.deadline = now + _GRACEFUL_TIMEOUT_S
            while not shutdown.requested and len(inflight) < workers:
                slot = _next_ready(pending, now, strict_order=workers == 1)
                if slot is None:
                    break
                pending.remove(slot)
                task = WorkerTask(
                    workload=slot.workload.name,
                    configuration=slot.configuration,
                    attempt=slot.attempt,
                    options=options,
                    trace_dir=trace_dir,
                    checkpoint_path=slot.checkpoint_path,
                    restore=slot.restore,
                    memory_limit_mb=memory_limit_mb,
                    chaos=chaos_spec,
                )
                entry = _launch(ctx, slot, task, cell_timeout_s)
                inflight[entry.process.pid] = entry
            _poll(inflight)
            now = time.monotonic()
            for pid, entry in list(inflight.items()):
                verdict = _judge(
                    entry,
                    now,
                    heartbeat_timeout_s=heartbeat_timeout_s,
                    shutdown_deadline=shutdown.deadline,
                )
                if verdict is None:
                    continue
                # Stamped after the reap, which _judge may have waited for.
                reaped = time.monotonic()
                del inflight[pid]
                entry.result_recv.close()
                entry.heartbeat_recv.close()
                settle(entry.slot, _outcome(entry, verdict, reaped))
            if shutdown.requested and not inflight:
                break
    finally:
        _restore_handlers(previous_handlers)
        for entry in inflight.values():  # pragma: no cover — safety net
            entry.process.kill()
            entry.process.join()
        shutil.rmtree(trace_dir, ignore_errors=True)
    return shutdown.requested


# ----------------------------------------------------------------------
# Supervisor loop helpers
# ----------------------------------------------------------------------
def _install_handlers(shutdown: _ShutdownState) -> dict:
    """SIGINT/SIGTERM → graceful drain; no-op off the main thread."""
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, shutdown.handler)
        except ValueError:  # not the main thread — caller keeps its handling
            pass
    return previous


def _restore_handlers(previous: dict) -> None:
    for signum, handler in previous.items():
        if handler is None:
            continue  # installed from C: getsignal/Python can't restore it
        signal.signal(signum, handler)


def _next_ready(pending: list, now: float, strict_order: bool):
    """Next dispatchable cell, or ``None``.

    ``strict_order`` (``workers == 1``) is head-of-line blocking: a cell
    waiting out its retry backoff must not be overtaken, or the journal's
    append order — and with it byte-identity to a serial run — is lost.
    With parallel workers the journal is completion-ordered anyway, so
    the first *ready* cell wins.
    """
    for slot in pending:
        if slot.not_before <= now:
            return slot
        if strict_order:
            return None
    return None


def _launch(ctx, slot, task: WorkerTask, cell_timeout_s) -> _Inflight:
    result_recv, result_send = ctx.Pipe(duplex=False)
    heartbeat_recv, heartbeat_send = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_worker_main,
        args=(task, result_send, heartbeat_send),
        daemon=True,
        name=f"sweep-worker-{slot.key}-a{slot.attempt}",
    )
    process.start()
    # The parent must not hold the child's send handles: with them open,
    # recv() could never see EOF and kill detection would be lazier.
    result_send.close()
    heartbeat_send.close()
    now = time.monotonic()
    return _Inflight(
        process=process,
        slot=slot,
        result_recv=result_recv,
        heartbeat_recv=heartbeat_recv,
        started=now,
        deadline=now + cell_timeout_s if cell_timeout_s is not None else None,
        last_heartbeat=now,
    )


def _poll(inflight: dict[int, _Inflight]) -> None:
    """Block briefly for activity; drain heartbeats and result messages."""
    conns = []
    for entry in inflight.values():
        conns.append(entry.result_recv)
        conns.append(entry.heartbeat_recv)
    if not conns:
        # Nothing in flight (everything pending sits in backoff): sleep
        # the poll quantum instead of spinning until `not_before`.
        time.sleep(_POLL_INTERVAL_S)
        return
    try:
        mp_connection.wait(conns, timeout=_POLL_INTERVAL_S)
    except OSError:  # pragma: no cover — racing a closing pipe
        pass
    now = time.monotonic()
    for entry in inflight.values():
        try:
            while entry.heartbeat_recv.poll():
                beat = entry.heartbeat_recv.recv()
                entry.last_heartbeat = now
                if isinstance(beat, dict) and "metrics" in beat:
                    entry.last_metrics = beat["metrics"]
        except (EOFError, OSError):
            pass  # worker side closed; liveness is judged elsewhere
        if entry.result is None:
            try:
                if entry.result_recv.poll():
                    entry.result = entry.result_recv.recv()
                    entry.result_seen_at = now
            except (EOFError, OSError):
                pass  # died mid-send: treated as a crash by _judge


def _judge(
    entry: _Inflight,
    now: float,
    *,
    heartbeat_timeout_s,
    shutdown_deadline,
) -> str | None:
    """Decide whether an in-flight worker is finished, and how.

    Returns ``None`` (still running) or one of ``"result"``, ``"crash"``,
    ``"timeout"``, ``"hang"``, ``"shutdown-kill"``.

    A worker that has reported has closed its pipes, so every poll returns
    at once until the worker can be reaped; waiting here for its exit, one
    poll interval at most, keeps the supervisor from spinning meanwhile.
    """
    if entry.result is not None:
        entry.process.join(_POLL_INTERVAL_S)
        if entry.process.is_alive():
            if now - entry.result_seen_at < _EXIT_GRACE_S:
                return None  # result in hand; give the worker a moment to exit
            entry.process.kill()
            entry.process.join()
        return "result"
    alive = entry.process.is_alive()
    if not alive:
        entry.process.join()
        # One last look: the result may have landed between polls.
        try:
            if entry.result_recv.poll():
                entry.result = entry.result_recv.recv()
                return "result"
        except (EOFError, OSError):
            pass
        if entry.killed_for == "shutdown":
            return "shutdown-kill"
        return "crash"
    if shutdown_deadline is not None and now > shutdown_deadline:
        entry.process.kill()
        entry.process.join()
        return "shutdown-kill"
    if entry.deadline is not None and now > entry.deadline:
        entry.killed_for = "timeout"
        entry.process.kill()  # SIGKILL: the core is actually reclaimed
        entry.process.join()
        return "timeout"
    if (
        heartbeat_timeout_s is not None
        and now - entry.last_heartbeat > heartbeat_timeout_s
    ):
        entry.killed_for = "hang"
        entry.process.kill()
        entry.process.join()
        return "hang"
    return None


def _outcome(entry: _Inflight, verdict: str, now: float) -> CellOutcome:
    """Translate one reaped worker's fate into the driver's outcome."""
    slot = entry.slot
    outcome = CellOutcome(
        "crash", metrics=entry.last_metrics, seconds=now - entry.started
    )
    if verdict == "result":
        outcome.status = entry.result["status"]
        outcome.error = entry.result.get("error")
        if outcome.status == "ok":
            outcome.row = entry.result["row"]
            outcome.metrics = entry.result["metrics"]
    elif verdict in ("timeout", "hang"):
        budget = "wall-clock budget" if verdict == "timeout" else "heartbeat"
        outcome.status = "timeout"
        outcome.error = (
            f"worker SIGKILLed: {budget} exceeded "
            f"(attempt {slot.attempt + 1}); a hung cell would hang again, "
            "not retried"
        )
    elif verdict == "shutdown-kill":
        outcome.status = "interrupted"
        outcome.error = "worker did not drain before the shutdown deadline"
    else:  # "crash"
        outcome.error = str(
            WorkerCrashError(
                f"worker for {slot.key} died without reporting a result "
                f"(exitcode {entry.process.exitcode}, attempt {slot.attempt + 1})"
            )
        )
    return outcome
