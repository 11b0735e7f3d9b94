"""Tests for the worker-process executor of the sweep driver.

Covers the acceptance bar of the supervision work: a worker SIGKILLed
mid-cell is retried and the finished journal is byte-identical to an
unfaulted serial run, memory-budget breaches surface as the structured
``oom`` status, poison cells are quarantined and skipped on resume,
graceful SIGTERM leaves a resumable journal, hung workers are reclaimed
by heartbeat staleness, and old journal schema versions are rejected
loudly.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.analysis.experiments import ExperimentSettings
from repro.errors import SweepError
from repro.resilience import supervisor
from repro.resilience.faults import ChaosPolicy
from repro.resilience.sweep import CellOptions, SweepJournal, run_resilient_sweep
from repro.workloads import base
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

SETTINGS = ExperimentSettings(trace_accesses=6_000, seed=5)


@pytest.fixture
def pool_tempdir(tmp_path, monkeypatch):
    """An empty temporary directory, where each worker pool makes its own."""
    scratch = tmp_path / "tempdir"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    return scratch


class TestSupervisedSweep:
    CONFIGS = ("4KB", "THP")

    def test_serial_supervised_matches_in_process(self, tmp_path):
        """workers=1 journals byte-identically to the in-process runner."""
        workload = get_workload("povray")
        in_process = tmp_path / "inproc.jsonl"
        supervised = tmp_path / "super.jsonl"
        run_resilient_sweep(
            [workload], self.CONFIGS, SETTINGS, journal_path=in_process,
        )
        report = run_resilient_sweep(
            [workload], self.CONFIGS, SETTINGS,
            journal_path=supervised, workers=1,
        )
        assert report.completed_count == len(self.CONFIGS)
        assert supervised.read_bytes() == in_process.read_bytes()

    def test_sigkill_mid_cell_is_retried_to_identical_journal(self, tmp_path):
        """A worker SIGKILLed mid-cell re-runs; rows match the clean run."""
        workload = get_workload("povray")
        clean = tmp_path / "clean.jsonl"
        run_resilient_sweep(
            [workload], self.CONFIGS, SETTINGS, journal_path=clean, workers=1,
        )
        chaotic = tmp_path / "chaotic.jsonl"
        chaos = ChaosPolicy(kill_probability=1.0, seed=7)  # kill attempt 0
        report = run_resilient_sweep(
            [workload], self.CONFIGS, SETTINGS,
            journal_path=chaotic, workers=1, chaos=chaos, backoff_s=0.0,
        )
        assert [cell.status for cell in report.cells] == ["ok", "ok"]
        assert [cell.attempts for cell in report.cells] == [2, 2]
        assert chaotic.read_bytes() == clean.read_bytes()

    def test_parallel_digest_matches_serial(self, tmp_path):
        """workers=2 journals in completion order but the rows agree."""
        workload = get_workload("povray")
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run_resilient_sweep(
            [workload], self.CONFIGS, SETTINGS, journal_path=serial, workers=1,
        )
        report = run_resilient_sweep(
            [workload], self.CONFIGS, SETTINGS, journal_path=parallel, workers=2,
        )
        assert report.completed_count == len(self.CONFIGS)
        assert SweepJournal(parallel).digest() == SweepJournal(serial).digest()

    def test_memory_breach_is_structured_oom(self):
        """A MemoryError inside the worker becomes status 'oom', no retry."""
        workload = get_workload("povray")
        chaos = ChaosPolicy(oom_at_boundary=1)
        report = run_resilient_sweep(
            [workload], ("THP",), SETTINGS, workers=1, chaos=chaos,
        )
        cell = report.cell("povray", "THP")
        assert cell.status == "oom"
        assert cell.attempts == 1  # budget breaches are fatal, not flaky
        assert "memory budget" in cell.error

    def test_poison_cell_is_quarantined_and_skipped_on_resume(self, tmp_path):
        """Repeated crashes journal the cell as quarantined; resume skips it."""
        workload = get_workload("povray")
        journal = tmp_path / "poison.jsonl"
        chaos = ChaosPolicy(
            kill_probability=1.0, max_strikes_per_cell=99, seed=3,
        )  # every attempt dies
        report = run_resilient_sweep(
            [workload], ("4KB",), SETTINGS,
            journal_path=journal, workers=1, chaos=chaos,
            quarantine_after=2, backoff_s=0.0,
        )
        cell = report.cell("povray", "4KB")
        assert cell.status == "quarantined"
        assert "2 worker crashes" in cell.error
        rows = [json.loads(line) for line in journal.read_text().splitlines()]
        assert any(row.get("kind") == "quarantined" for row in rows[1:])

        resumed = run_resilient_sweep(
            [workload], ("4KB",), SETTINGS,
            journal_path=journal, workers=1, resume=True,
        )
        cell = resumed.cell("povray", "4KB")
        assert cell.status == "quarantined"
        assert cell.attempts == 2  # crash tally replayed from the journal
        assert cell.seconds == 0.0  # never re-dispatched

    def test_sigterm_mid_sweep_leaves_resumable_journal(self, tmp_path, pool_tempdir):
        """Graceful shutdown drains workers; resume completes byte-identically."""
        workload = get_workload("povray")
        configs = ("4KB", "THP", "TLB_Lite")
        clean = tmp_path / "clean.jsonl"
        run_resilient_sweep(
            [workload], configs, SETTINGS, journal_path=clean, workers=1,
        )

        journal = tmp_path / "interrupted.jsonl"
        fired = []

        def interrupt_after_first(cell):
            if not fired:
                fired.append(cell)
                signal.raise_signal(signal.SIGTERM)

        report = run_resilient_sweep(
            [workload], configs, SETTINGS,
            journal_path=journal, workers=1, progress=interrupt_after_first,
        )
        assert report.interrupted
        assert report.completed_count < len(configs)
        assert list(pool_tempdir.iterdir()) == []  # the drain removed the traces

        resumed = run_resilient_sweep(
            [workload], configs, SETTINGS,
            journal_path=journal, workers=1, resume=True,
        )
        assert not resumed.interrupted
        assert resumed.completed_count == len(configs)
        assert journal.read_bytes() == clean.read_bytes()
        assert list(pool_tempdir.iterdir()) == []

    def test_hung_worker_is_reclaimed_by_heartbeat(self):
        """A worker that stops heartbeating is SIGKILLed, not waited on."""
        workload = get_workload("povray")
        chaos = ChaosPolicy(hang_at_boundary=1, hang_seconds=600.0)
        report = run_resilient_sweep(
            [workload], ("THP",), SETTINGS,
            workers=1, chaos=chaos, heartbeat_timeout_s=0.5,
        )
        cell = report.cell("povray", "THP")
        assert cell.status == "timeout"
        assert "heartbeat" in cell.error

    def test_hard_timeout_sigkills_worker(self):
        """The wall-clock budget SIGKILLs the worker, and only once."""
        workload = get_workload("povray")
        # About 0.7 s of work in a worker, several times the budget: a
        # result that lands before the first poll past the deadline is
        # kept, so a cell only just over budget would finish "ok".
        slow = ExperimentSettings(trace_accesses=1_200_000, seed=5)
        report = run_resilient_sweep(
            [workload], ("THP",), slow, workers=1, cell_timeout_s=0.2,
        )
        cell = report.cell("povray", "THP")
        assert cell.status == "timeout"
        assert "wall-clock" in cell.error
        assert cell.attempts == 1  # a hung cell would hang again: not retried

    def test_old_journal_schema_version_is_rejected(self, tmp_path):
        """A v1 journal fails loudly instead of mis-parsing quarantine rows."""
        workload = get_workload("povray")
        journal = tmp_path / "old.jsonl"
        run_resilient_sweep(
            [workload], ("4KB",), SETTINGS, journal_path=journal, workers=1,
        )
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        header["journal_version"] = 1
        lines[0] = json.dumps(header, sort_keys=True)
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(SweepError, match="schema version 1"):
            run_resilient_sweep(
                [workload], ("4KB",), SETTINGS,
                journal_path=journal, workers=1, resume=True,
            )


class TestPoolTraces:
    """A worker pool generates each workload's trace once, in one worker."""

    WORKLOADS = ("povray", "swaptions")
    CONFIGS = ("4KB", "THP")
    SETTINGS = ExperimentSettings(trace_accesses=20_000, seed=5)

    def _log_generations(self, tmp_path, monkeypatch):
        """Append each workload name to a file when its trace is generated.

        Forked workers inherit the wrapper, so the file counts them all.
        """
        log = tmp_path / "generations.log"
        log.touch()
        generate = Workload.trace

        def logged(workload, num_accesses, seed=0):
            latest = base._latest_trace
            trace = generate(workload, num_accesses, seed=seed)
            if latest is None or trace is not latest[3]:
                with open(log, "a") as handle:
                    handle.write(workload.name + "\n")
            return trace

        monkeypatch.setattr(Workload, "trace", logged)
        monkeypatch.setattr(base, "_latest_trace", None)
        return log

    def _workloads(self):
        return [get_workload(name) for name in self.WORKLOADS]

    def test_each_trace_is_generated_once(self, tmp_path, monkeypatch, pool_tempdir):
        log = self._log_generations(tmp_path, monkeypatch)
        files_seen = []
        supervised = tmp_path / "supervised.jsonl"
        report = run_resilient_sweep(
            self._workloads(), self.CONFIGS, self.SETTINGS,
            journal_path=supervised, workers=1,
            progress=lambda _cell: files_seen.append(
                sorted(path.name for path in pool_tempdir.glob("repro-traces-*/*"))
            ),
        )
        assert report.completed_count == 4
        assert log.read_text().split() == list(self.WORKLOADS)
        assert files_seen == [
            ["povray.npy"], ["povray.npy"],
            ["povray.npy", "swaptions.npy"], ["povray.npy", "swaptions.npy"],
        ]
        assert list(pool_tempdir.iterdir()) == []

        in_process = tmp_path / "in_process.jsonl"
        run_resilient_sweep(
            self._workloads(), self.CONFIGS, self.SETTINGS, journal_path=in_process,
        )
        assert supervised.read_bytes() == in_process.read_bytes()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_workers_match_the_serial_digest(self, tmp_path, pool_tempdir, workers):
        """With four workers every first attempt runs at once, so both
        workers of each workload generate its trace and race to write it."""
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run_resilient_sweep(
            self._workloads(), self.CONFIGS, self.SETTINGS, journal_path=serial,
        )
        report = run_resilient_sweep(
            self._workloads(), self.CONFIGS, self.SETTINGS,
            journal_path=parallel, workers=workers,
        )
        assert report.completed_count == 4
        assert SweepJournal(parallel).digest() == SweepJournal(serial).digest()
        assert list(pool_tempdir.iterdir()) == []

    def test_traces_are_removed_when_settle_raises(self, pool_tempdir):
        pools = []

        def fail(_cell):
            pools.extend(pool_tempdir.iterdir())
            raise RuntimeError("progress callback failed")

        with pytest.raises(RuntimeError, match="progress callback failed"):
            run_resilient_sweep(
                self._workloads(), self.CONFIGS, self.SETTINGS,
                workers=1, progress=fail,
            )
        assert len(pools) == 1 and pools[0].name.startswith("repro-traces-")
        assert list(pool_tempdir.iterdir()) == []


class TestReapAfterResult:
    """A worker that has reported is waited for, not polled in a spin."""

    def test_judge_rarely_finds_a_reported_worker_alive(self, monkeypatch):
        judge = supervisor._judge
        spins = []

        def counting(entry, now, **budgets):
            verdict = judge(entry, now, **budgets)
            if verdict is None and entry.result is not None:
                spins.append(entry.slot.key)
            return verdict

        monkeypatch.setattr(supervisor, "_judge", counting)
        configs = ("4KB", "THP", "TLB_Lite")
        report = run_resilient_sweep(
            [get_workload("povray")], configs,
            ExperimentSettings(trace_accesses=20_000, seed=5), workers=1,
        )
        assert report.completed_count == len(configs)
        assert all(cell.seconds > 0 for cell in report.cells)
        assert len(spins) < 5 * len(configs)


class _StubProcess:
    """A worker process that exits when joined, or only once killed."""

    def __init__(self, exits_when_joined: bool) -> None:
        self.exits_when_joined = exits_when_joined
        self.alive = True
        self.calls: list[str] = []

    def join(self, timeout=None) -> None:
        self.calls.append("join")
        if self.exits_when_joined:
            self.alive = False

    def is_alive(self) -> bool:
        return self.alive

    def kill(self) -> None:
        self.calls.append("kill")
        self.alive = False


class _SilentConnection:
    """A result pipe with nothing in it."""

    def poll(self) -> bool:
        return False


class TestJudgeDeadline:
    """``cell_timeout_s`` holds to within one 0.05 s supervisor poll."""

    NOW = 100.0

    def _entry(self, process, result=None) -> supervisor._Inflight:
        return supervisor._Inflight(
            process=process,
            slot=None,
            result_recv=_SilentConnection(),
            heartbeat_recv=_SilentConnection(),
            started=self.NOW - 1.0,
            deadline=self.NOW - 0.5,
            last_heartbeat=self.NOW,
            result=result,
            result_seen_at=None if result is None else self.NOW - 0.01,
        )

    def _judge(self, entry):
        return supervisor._judge(
            entry, self.NOW, heartbeat_timeout_s=None, shutdown_deadline=None
        )

    def test_result_read_before_the_deadline_check_is_kept(self):
        """The cell finished, so its row is valid however late it is judged."""
        process = _StubProcess(exits_when_joined=True)
        entry = self._entry(process, result={"status": "ok"})
        assert self._judge(entry) == "result"
        assert process.calls == ["join"]
        assert entry.killed_for is None

    def test_no_result_past_the_deadline_is_killed(self):
        process = _StubProcess(exits_when_joined=False)
        entry = self._entry(process)
        assert self._judge(entry) == "timeout"
        assert process.calls == ["kill", "join"]
        assert entry.killed_for == "timeout"


class TestWarmWorkers:
    """A forked worker imports nothing its parent has not imported."""

    SCRIPT = """
import sys

from repro.analysis.experiments import ExperimentSettings
from repro.resilience import supervisor
from repro.resilience.sweep import run_resilient_sweep
from repro.workloads.registry import get_workload

journal, growth = sys.argv[1:]
simulate = supervisor._simulate_cell


def recording(task, heartbeat_conn, shutdown):
    before = set(sys.modules)
    try:
        return simulate(task, heartbeat_conn, shutdown)
    finally:
        with open(growth, "w") as handle:
            handle.write("\\n".join(sorted(set(sys.modules) - before)))


supervisor._simulate_cell = recording  # the fork inherits the wrapper
report = run_resilient_sweep(
    [get_workload("povray")], ("RMM_Lite",),
    ExperimentSettings(trace_accesses=5_000, seed=5),
    journal_path=journal, workers=1, metrics=True, checkpoint_every=4,
)
assert report.completed_count == 1, report
"""

    def test_worker_imports_no_module(self, tmp_path):
        """Runs in a fresh interpreter: this one has imported far more
        than a sweep's parent process does, numpy.random included."""
        growth = tmp_path / "growth.txt"
        subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "sweep.jsonl"), str(growth)],
            check=True,
            cwd=tmp_path,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(supervisor.__file__).parents[2]),
                "PYTHONDONTWRITEBYTECODE": "1",
            },
        )
        assert growth.read_text().split() == []


class TestBudgetValidation:
    """A budget no worker can meet is a usage error, not a dead sweep.

    Before these checks, each value below SIGKILLed every worker at its
    first poll and reported every cell as a final ``timeout``.
    """

    TINY = ExperimentSettings(trace_accesses=4_000, seed=5)

    def _sweep(self, tmp_path, **budget):
        journal = tmp_path / "sweep.jsonl"
        with pytest.raises(SweepError, match=next(iter(budget))):
            run_resilient_sweep(
                [get_workload("povray")], ("4KB",), self.TINY,
                journal_path=journal, workers=1, **budget,
            )
        assert not journal.exists()  # refused before anything ran

    @pytest.mark.parametrize("seconds", [0, -1])
    def test_non_positive_cell_timeout_rejected(self, tmp_path, seconds):
        self._sweep(tmp_path, cell_timeout_s=seconds)

    @pytest.mark.parametrize("megabytes", [0, -5])
    def test_non_positive_memory_limit_rejected(self, tmp_path, megabytes):
        self._sweep(tmp_path, memory_limit_mb=megabytes)

    @pytest.mark.parametrize("seconds", [0, -5, 2 * supervisor._POLL_INTERVAL_S])
    def test_heartbeat_timeout_within_two_polls_rejected(self, tmp_path, seconds):
        self._sweep(tmp_path, heartbeat_timeout_s=seconds)


class _RecordingConnection:
    """A heartbeat pipe that keeps what the worker sends."""

    def __init__(self) -> None:
        self.beats: list[dict] = []

    def send(self, beat) -> None:
        self.beats.append(beat)


class _SteppingClock:
    """``time.monotonic`` that advances a fixed step on every read."""

    def __init__(self, step: float) -> None:
        self.step = step
        self.now = 100.0

    def monotonic(self) -> float:
        self.now += self.step
        return self.now


class TestHeartbeatSpacing:
    """A worker beats at most once per supervisor poll interval."""

    STEP = 0.02  # one clock read per boundary: a beat every third boundary

    def _run(self, monkeypatch, tmp_path, shutdown=None, chaos=None):
        clock = _SteppingClock(self.STEP)
        monkeypatch.setattr(supervisor, "time", clock)
        boundaries: list[int] = []
        real_strike = ChaosPolicy.strike

        def counting_strike(policy, rng, boundary, attempt):
            boundaries.append(boundary)
            real_strike(policy, rng, boundary, attempt)

        monkeypatch.setattr(ChaosPolicy, "strike", counting_strike)
        task = supervisor.WorkerTask(
            workload="povray",
            configuration="TLB_Lite",
            attempt=0,
            options=CellOptions(SETTINGS),
            trace_dir=tmp_path,
            chaos=(chaos or ChaosPolicy()).to_json(),
        )
        connection = _RecordingConnection()
        supervisor._simulate_cell(task, connection, shutdown or {"requested": False})
        return connection.beats, boundaries

    def test_beats_are_one_poll_interval_apart(self, monkeypatch, tmp_path):
        beats, boundaries = self._run(monkeypatch, tmp_path)
        assert len(boundaries) > 30  # every boundary still consults chaos
        assert beats, "a long cell must still beat"
        assert len(beats) <= len(boundaries) // 2
        times = [beat["ts"] for beat in beats]
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert min(gaps) >= supervisor._POLL_INTERVAL_S
        # The first beat waits one interval from the worker's start too.
        assert beats[0]["boundary"] == boundaries[2]
        assert [beat["boundary"] for beat in beats] == boundaries[2::3][: len(beats)]

    def test_sigterm_honoured_at_a_boundary_without_a_beat(self, monkeypatch, tmp_path):
        with pytest.raises(supervisor._GracefulExit, match="boundary"):
            self._run(monkeypatch, tmp_path, shutdown={"requested": True})

    def test_chaos_strikes_at_a_boundary_without_a_beat(self, monkeypatch, tmp_path):
        with pytest.raises(MemoryError, match="boundary 1"):
            self._run(monkeypatch, tmp_path, chaos=ChaosPolicy(oom_at_boundary=1))
