"""Tests for the robustness subsystem: errors, faults, auditor, sweeps.

Covers the acceptance bar of the resilience work: fault-injected cells
finish under audit without raising (with flagged stats), a sweep killed
mid-matrix resumes to byte-identical rows, and a corrupted counter is
caught by the invariant auditor.
"""

import json

import numpy as np
import pytest

from repro.analysis.experiments import (
    ExperimentSettings,
    prepare_run,
    run_workload_config,
    run_workload_config_with_org,
)
from repro.core.organizations import build_organization, paging_policy_for
from repro.core.simulator import Simulator
from repro.errors import (
    InvariantViolation,
    SettingsError,
    SweepError,
    TraceError,
    TraceIOError,
    UnknownConfigError,
    UnknownWorkloadError,
    did_you_mean,
)
from repro.mmu.page_table import PageFault, PageTable, VPN_LIMIT
from repro.mmu.translation import PageSize, Translation
from repro.resilience import (
    TRACE_FAULTS,
    ChaosPolicy,
    InvariantAuditor,
    adversarial_events,
    inject_duplicate_bursts,
    inject_negative_vpns,
    inject_out_of_range,
    run_resilient_sweep,
    truncate_trace,
)
from repro.resilience.sweep import SweepJournal
from repro.workloads.registry import get_workload

SETTINGS = ExperimentSettings(trace_accesses=6_000, seed=5)

#: The fault matrix: every trace fault and OS-event storm runs on these
#: workloads under these configurations.
FAULT_WORKLOADS = ("povray", "swaptions")
FAULT_CONFIGS = ("THP", "TLB_Lite", "RMM_Lite")

#: Sweep settings that only a worker process can honour.
PROCESS_ONLY_SETTINGS = {
    "cell_timeout_s": 1.0,
    "heartbeat_timeout_s": 1.0,
    "memory_limit_mb": 1024,
    "chaos": ChaosPolicy(kill_probability=0.5),
}


# ----------------------------------------------------------------------
# Error taxonomy + settings validation
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_did_you_mean(self):
        assert did_you_mean("mfc", ["mcf", "omnetpp"]) == ["mcf"]
        assert did_you_mean("zzzz", ["mcf"]) == []

    def test_unknown_workload_is_keyerror_with_suggestions(self):
        with pytest.raises(KeyError) as excinfo:
            get_workload("povwray")
        assert isinstance(excinfo.value, UnknownWorkloadError)
        assert "povray" in str(excinfo.value)
        assert "did you mean" in str(excinfo.value)

    def test_unknown_config_is_keyerror(self):
        with pytest.raises(KeyError) as excinfo:
            paging_policy_for("THPP")
        assert isinstance(excinfo.value, UnknownConfigError)
        assert "THP" in str(excinfo.value)

    def test_settings_validation(self):
        with pytest.raises(SettingsError):
            ExperimentSettings(trace_accesses=0)
        with pytest.raises(SettingsError):
            ExperimentSettings(trace_accesses=-5)
        with pytest.raises(SettingsError):
            ExperimentSettings(physical_bytes=0)
        with pytest.raises(SettingsError):
            ExperimentSettings(trace_accesses=True)
        with pytest.raises(SettingsError):
            ExperimentSettings(physical_bytes=True)
        with pytest.raises(SettingsError):
            ExperimentSettings(thp_coverage=float("nan"))
        with pytest.raises(SettingsError):
            ExperimentSettings(thp_coverage=1.5)
        with pytest.raises(SettingsError):
            ExperimentSettings(thp_coverage=float("inf"))
        assert ExperimentSettings(thp_coverage=0.0).thp_coverage == 0.0


# ----------------------------------------------------------------------
# Page-table bounds (regression found by fault injection)
# ----------------------------------------------------------------------
class TestPageTableBounds:
    def test_out_of_range_vpn_faults_instead_of_aliasing(self):
        table = PageTable()
        table.map(Translation(0x100, 0x1, PageSize.SIZE_4KB))
        # Beyond the 36-bit page-number space: must miss, not wrap to 0x100.
        assert table.lookup(VPN_LIMIT + 0x100) is None
        assert table.lookup(-1) is None
        with pytest.raises(PageFault):
            table.walk(VPN_LIMIT + 0x100)

    def test_out_of_range_map_rejected(self):
        table = PageTable()
        with pytest.raises(ValueError):
            table.map(Translation(VPN_LIMIT, 0x1, PageSize.SIZE_4KB))


# ----------------------------------------------------------------------
# Trace perturbations + fault-tolerant simulation
# ----------------------------------------------------------------------
class TestTracePerturbations:
    def test_perturbations_shapes(self):
        trace = np.arange(1_000, dtype=np.int64)
        oor = inject_out_of_range(trace, fraction=0.05, seed=1)
        assert (oor >= VPN_LIMIT).sum() >= 1
        neg = inject_negative_vpns(trace, fraction=0.05, seed=1)
        assert (neg < 0).sum() >= 1
        assert len(truncate_trace(trace, keep_fraction=0.25)) == 250
        burst = inject_duplicate_bursts(trace, bursts=2, burst_length=64, seed=1)
        assert len(burst) == len(trace)
        # The original trace is never mutated in place.
        assert np.array_equal(trace, np.arange(1_000, dtype=np.int64))

    def test_simulator_records_faults_instead_of_crashing(self):
        workload = get_workload("povray")
        prepared = prepare_run(workload, "THP", SETTINGS, on_fault="record")
        prepared.trace = inject_negative_vpns(prepared.trace, fraction=0.02, seed=3)
        result = prepared.run()
        assert result.degraded
        assert result.faulted_accesses > 0
        assert result.fault_records
        assert result.fault_records[0].error == "PageFault"

    def test_strict_mode_still_raises(self):
        workload = get_workload("povray")
        prepared = prepare_run(workload, "THP", SETTINGS, on_fault="raise")
        prepared.trace = inject_negative_vpns(prepared.trace, fraction=0.02, seed=3)
        with pytest.raises(PageFault):
            prepared.run()

    def test_clean_run_is_not_degraded(self):
        result = run_workload_config(
            get_workload("povray"), "THP", SETTINGS, on_fault="record"
        )
        assert not result.degraded
        assert result.fault_records == []


class TestFaultCampaigns:
    @pytest.mark.parametrize("workload_name", FAULT_WORKLOADS)
    def test_campaign_survives_with_flagged_stats(self, workload_name):
        """The acceptance bar: every (trace fault × configuration) cell
        runs audited in tolerant mode without raising, and exactly the
        faults that produce unmappable VPNs flag the result degraded."""
        workload = get_workload(workload_name)
        for config_name in FAULT_CONFIGS:
            for fault_name, inject in TRACE_FAULTS.items():
                auditor = InvariantAuditor()
                prepared = prepare_run(
                    workload, config_name, SETTINGS, auditor=auditor, on_fault="record"
                )
                prepared.trace = inject(prepared.trace, seed=0)
                result = prepared.run()
                cell = f"{fault_name} x {config_name}"
                assert auditor.checks_run > 0 and not auditor.violations, cell
                assert result.degraded == (fault_name in ("out_of_range", "negative")), cell

    @pytest.mark.parametrize("config_name", FAULT_CONFIGS)
    @pytest.mark.parametrize("workload_name", FAULT_WORKLOADS)
    def test_adversarial_events_run_under_audit(self, workload_name, config_name):
        workload = get_workload(workload_name)
        auditor = InvariantAuditor()
        prepared = prepare_run(
            workload, config_name, SETTINGS, auditor=auditor, on_fault="record"
        )
        prepared.events = adversarial_events(
            prepared.process, len(prepared.trace), shootdowns=4,
            demotion_storms=2, seed=9,
        )
        result = prepared.run()
        assert result.accesses > 0
        assert auditor.checks_run > 0
        assert not auditor.violations


# ----------------------------------------------------------------------
# Invariant auditor
# ----------------------------------------------------------------------
class TestAuditor:
    def test_clean_run_passes_all_checks(self):
        auditor = InvariantAuditor()
        run_workload_config(
            get_workload("povray"), "RMM_Lite", SETTINGS, auditor=auditor
        )
        assert auditor.checks_run > 100
        assert not auditor.violations

    def test_corrupted_counter_is_caught(self):
        """A deliberately corrupted stats counter raises InvariantViolation."""
        result = run_workload_config(get_workload("povray"), "THP", SETTINGS)
        result.l1_misses += 100  # silent corruption
        with pytest.raises(InvariantViolation) as excinfo:
            InvariantAuditor().audit_result(result)
        assert excinfo.value.invariant == "hit-attribution"
        assert excinfo.value.context["l1_misses"] == result.l1_misses

    def test_corrupted_energy_component_is_caught(self):
        result, organization = run_workload_config_with_org(
            get_workload("povray"), "THP", SETTINGS
        )
        result.energy.by_structure["L1-4KB"] *= 2  # desync structure vs component
        with pytest.raises(InvariantViolation) as excinfo:
            InvariantAuditor().audit_result(result)
        assert excinfo.value.invariant.startswith("energy")

    def test_corrupted_live_hierarchy_is_caught(self):
        workload = get_workload("povray")
        prepared = prepare_run(workload, "TLB_Lite", SETTINGS)
        prepared.run()
        hierarchy = prepared.organization.hierarchy
        hierarchy.l2_misses = hierarchy.l1_misses + 7  # impossible ordering
        with pytest.raises(InvariantViolation):
            InvariantAuditor().audit_hierarchy(hierarchy, prepared.organization.lite)

    def test_lite_out_of_range_is_caught(self):
        workload = get_workload("povray")
        prepared = prepare_run(workload, "TLB_Lite", SETTINGS)
        prepared.run()
        lite = prepared.organization.lite
        lite.tlbs[0].active_ways = 3  # not a power of two
        with pytest.raises(InvariantViolation):
            InvariantAuditor().audit_lite(lite)

    def test_collecting_mode_records_instead_of_raising(self):
        result = run_workload_config(get_workload("povray"), "THP", SETTINGS)
        result.l1_misses += 1
        auditor = InvariantAuditor(raise_on_violation=False)
        auditor.audit_result(result)
        assert auditor.violations
        assert all(isinstance(v, InvariantViolation) for v in auditor.violations)


# ----------------------------------------------------------------------
# Resilient sweep runner
# ----------------------------------------------------------------------
class TestResilientSweep:
    CONFIGS = ("4KB", "THP", "TLB_Lite", "RMM_Lite")

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path):
        """Journal resume reproduces an uninterrupted sweep byte for byte."""
        workload = get_workload("povray")
        full = run_resilient_sweep(
            [workload], self.CONFIGS, SETTINGS,
            journal_path=tmp_path / "full.jsonl",
        )
        assert full.completed_count == len(self.CONFIGS)

        journal = tmp_path / "killed.jsonl"
        partial = run_resilient_sweep(
            [workload], self.CONFIGS, SETTINGS,
            journal_path=journal, max_cells=2,
        )
        assert partial.interrupted
        assert partial.completed_count == 2
        assert {c.status for c in partial.cells} == {"ok", "skipped"}

        resumed = run_resilient_sweep(
            [workload], self.CONFIGS, SETTINGS,
            journal_path=journal, resume=True,
        )
        statuses = [cell.status for cell in resumed.cells]
        assert statuses == ["resumed", "resumed", "ok", "ok"]
        full_bytes = json.dumps(full.rows(), sort_keys=True)
        resumed_bytes = json.dumps(resumed.rows(), sort_keys=True)
        assert full_bytes == resumed_bytes

    def test_journal_fingerprint_mismatch_rejected(self, tmp_path):
        workload = get_workload("povray")
        journal = tmp_path / "j.jsonl"
        run_resilient_sweep(
            [workload], ("4KB",), SETTINGS, journal_path=journal, max_cells=1
        )
        other = ExperimentSettings(trace_accesses=6_000, seed=6)
        with pytest.raises(SweepError):
            run_resilient_sweep(
                [workload], ("4KB",), other, journal_path=journal, resume=True
            )

    def test_torn_journal_line_is_tolerated(self, tmp_path):
        workload = get_workload("povray")
        journal = tmp_path / "torn.jsonl"
        run_resilient_sweep(
            [workload], ("4KB", "THP"), SETTINGS, journal_path=journal, max_cells=1
        )
        with open(journal, "a") as handle:
            handle.write('{"key": "povray|THP", "row": {"trunc')  # mid-write kill
        with pytest.warns(UserWarning, match="truncated or corrupt"):
            resumed = run_resilient_sweep(
                [workload], ("4KB", "THP"), SETTINGS, journal_path=journal, resume=True
            )
        assert [cell.status for cell in resumed.cells] == ["resumed", "ok"]

    def test_failing_cell_is_isolated_and_reported(self):
        workload = get_workload("povray")
        report = run_resilient_sweep(
            [workload], ("4KB", "NoSuchConfig", "THP"), SETTINGS,
            retries=1, backoff_s=0.0,
        )
        statuses = {cell.configuration: cell.status for cell in report.cells}
        assert statuses == {"4KB": "ok", "NoSuchConfig": "failed", "THP": "ok"}
        failed = report.cell("povray", "NoSuchConfig")
        assert failed.attempts == 2  # retried once with backoff
        assert "UnknownConfigError" in failed.error
        assert report.summary() == "failed: 1, ok: 2"

    @pytest.mark.parametrize("setting", sorted(PROCESS_ONLY_SETTINGS))
    def test_process_only_settings_rejected_in_process(self, setting, tmp_path):
        """Budgets and chaos need a worker process; in process they are refused."""
        journal = tmp_path / "j.jsonl"
        with pytest.raises(SweepError, match=setting):
            run_resilient_sweep(
                [get_workload("povray")], ("THP",), SETTINGS,
                journal_path=journal, **{setting: PROCESS_ONLY_SETTINGS[setting]},
            )
        assert not journal.exists()  # refused before anything ran

    def test_audited_sweep_matches_unaudited(self):
        workload = get_workload("povray")
        plain = run_resilient_sweep([workload], ("THP",), SETTINGS)
        audited = run_resilient_sweep([workload], ("THP",), SETTINGS, audit=True)
        assert plain.rows() == audited.rows()


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestResilienceCLI:
    def test_sweep_journal_and_resume(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        journal = tmp_path / "cli.jsonl"
        assert main([
            "sweep", "povray", "--accesses", "5000",
            "--journal", str(journal),
        ]) == 0
        capsys.readouterr()
        assert journal.exists()
        assert main([
            "sweep", "povray", "--accesses", "5000",
            "--journal", str(journal), "--resume",
        ]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        assert "energy vs 4KB" in out

    def test_in_process_sweep_rejects_cell_timeout(self, capsys):
        from repro.__main__ import main

        code = main(["sweep", "povray", "--workers", "0", "--cell-timeout", "1"])
        assert code == 2
        assert "cell_timeout_s needs worker processes" in capsys.readouterr().err

    def test_audit_subcommand(self, capsys):
        from repro.__main__ import main

        assert main(["audit", "povray", "--accesses", "5000",
                     "--configs", "THP", "RMM_Lite"]) == 0
        out = capsys.readouterr().out
        assert "invariant checks" in out

    def test_run_audit_flag(self, capsys):
        from repro.__main__ import main

        assert main(["run", "povray", "--accesses", "5000", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "auditor:" in out
