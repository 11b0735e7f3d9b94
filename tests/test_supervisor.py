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
import signal

import pytest

from repro.analysis.experiments import ExperimentSettings
from repro.errors import SweepError
from repro.resilience import ChaosPolicy, SweepJournal, run_resilient_sweep
from repro.workloads.registry import get_workload

SETTINGS = ExperimentSettings(trace_accesses=6_000, seed=5)


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

    def test_sigterm_mid_sweep_leaves_resumable_journal(self, tmp_path):
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

        resumed = run_resilient_sweep(
            [workload], configs, SETTINGS,
            journal_path=journal, workers=1, resume=True,
        )
        assert not resumed.interrupted
        assert resumed.completed_count == len(configs)
        assert journal.read_bytes() == clean.read_bytes()

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
        slow = ExperimentSettings(trace_accesses=400_000, seed=5)
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
