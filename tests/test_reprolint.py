"""reprolint framework tests: rules, suppressions, baseline, CLI, repo health.

The fixtures under ``tests/lint_fixtures/`` are never imported — they are
source material for the AST pass, one file of known violations per rule.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.lint.baseline import Baseline
from repro.lint.engine import (
    LintConfigError,
    PassManager,
    iter_python_files,
    lint_paths,
)
from repro.lint.findings import Finding, Severity
from repro.lint.rules import default_rules

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
FIXTURES = TESTS_DIR / "lint_fixtures"

#: rule id -> (fixture file, minimum expected findings of that rule)
RULE_FIXTURES = {
    "RL001": ("rl001_determinism.py", 12),
    "RL002": ("rl002_taxonomy.py", 4),
    "RL003": ("rl003_hot_path.py", 8),
    "RL004": ("rl004_stats.py", 2),
    "RL005": ("rl005_pow2.py", 2),
    "RL006": ("rl006_mutable_default.py", 3),
    "RL007": ("rl007_checkpoint.py", 5),
    "RL008": ("rl008_interproc.py", 3),
    "RL009": ("rl009_process.py", 5),
    "RL010": ("rl010_chaining.py", 2),
}


def lint_file(path: Path, root: Path | None = None) -> list[Finding]:
    return lint_paths([path], root=root or REPO_ROOT)


# ---------------------------------------------------------------------------
# Per-rule fixtures
# ---------------------------------------------------------------------------


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_fixture_violations_detected(self, rule_id):
        fixture, expected = RULE_FIXTURES[rule_id]
        findings = lint_file(FIXTURES / fixture)
        matching = [f for f in findings if f.rule == rule_id]
        assert len(matching) >= expected, [f.render() for f in findings]

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_fixture_findings_carry_locations(self, rule_id):
        fixture, _ = RULE_FIXTURES[rule_id]
        for finding in lint_file(FIXTURES / fixture):
            assert finding.line >= 1
            assert finding.path.endswith(fixture)
            assert finding.message
            assert finding.hint

    def test_blessed_idioms_stay_clean(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text(
            "import random\n"
            "from repro.errors import SimulationError\n"
            "\n"
            "def run(seed: int, values=None):\n"
            "    rng = random.Random(seed)\n"
            "    if values is None:\n"
            "        raise SimulationError('no values')\n"
            "    return rng.sample(values, 1)\n"
        )
        assert lint_file(clean, root=tmp_path) == []

    def test_rl003_only_fires_on_hot_methods(self):
        findings = lint_file(FIXTURES / "rl003_hot_path.py")
        assert not any("cold_report" in f.message for f in findings)

    def test_rl003_flags_telemetry_in_hot_methods(self):
        findings = lint_file(FIXTURES / "rl003_hot_path.py")
        telemetry = [f for f in findings if "telemetry" in f.message]
        assert len(telemetry) == 2
        assert any("perf_counter" in f.message for f in telemetry)
        assert any("self.obs.instant" in f.message for f in telemetry)

    def test_rl005_guarded_constructor_passes(self):
        findings = lint_file(FIXTURES / "rl005_pow2.py")
        assert not any("GuardedTLB" in f.message for f in findings)


# ---------------------------------------------------------------------------
# Inline suppression
# ---------------------------------------------------------------------------


class TestSuppression:
    def test_inline_disable_same_line(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text(
            "def bad(values=[]):  # reprolint: disable=RL006\n    return values\n"
        )
        assert lint_file(source, root=tmp_path) == []

    def test_disable_comment_on_previous_line(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text(
            "# reprolint: disable=RL006\ndef bad(values=[]):\n    return values\n"
        )
        assert lint_file(source, root=tmp_path) == []

    def test_disable_wrong_rule_does_not_suppress(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text(
            "def bad(values=[]):  # reprolint: disable=RL001\n    return values\n"
        )
        findings = lint_file(source, root=tmp_path)
        assert [f.rule for f in findings] == ["RL006"]

    def test_disable_all(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text(
            "def bad(values=[]):  # reprolint: disable=all\n    return values\n"
        )
        assert lint_file(source, root=tmp_path) == []

    def test_disable_list_of_rules(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text(
            "import random\n"
            "# reprolint: disable=RL001, RL006\n"
            "def bad(values=[], r=random.random()):\n"
            "    return values\n"
        )
        assert lint_file(source, root=tmp_path) == []

    def test_disable_on_decorator_line_covers_the_def(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text(
            "def deco(fn):\n"
            "    return fn\n"
            "\n"
            "@deco  # reprolint: disable=RL006\n"
            "def bad(values=[]):\n"
            "    return values\n"
        )
        assert lint_file(source, root=tmp_path) == []

    def test_disable_above_multiline_statement_covers_all_lines(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text(
            "import time\n"
            "# reprolint: disable=RL001\n"
            "seed = (\n"
            "    time.time()\n"
            ")\n"
        )
        assert lint_file(source, root=tmp_path) == []

    def test_disable_on_multiline_signature_covers_the_header(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text(
            "def bad(  # reprolint: disable=RL006\n"
            "    values=[],\n"
            "):\n"
            "    return values\n"
        )
        assert lint_file(source, root=tmp_path) == []

    def test_disable_on_def_does_not_blanket_the_body(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text(
            "def outer(values=[]):  # reprolint: disable=RL006\n"
            "    def inner(more=[]):\n"
            "        return more\n"
            "    return values, inner\n"
        )
        findings = lint_file(source, root=tmp_path)
        assert [f.rule for f in findings] == ["RL006"]
        assert findings[0].line == 2


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = lint_file(FIXTURES / "rl006_mutable_default.py")
        baseline = Baseline.from_findings(findings)
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.entries == baseline.entries
        new, baselined = loaded.partition(findings)
        assert new == []
        assert len(baselined) == len(findings)
        assert all(f.baselined for f in baselined)

    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert len(baseline) == 0

    def test_new_finding_not_covered(self):
        findings = lint_file(FIXTURES / "rl006_mutable_default.py")
        baseline = Baseline.from_findings(findings[:-1])
        # the extra occurrence of the last fingerprint is new
        new, _ = baseline.partition(findings)
        assert len(new) == 1

    def test_fingerprint_survives_line_shift(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text("def bad(values=[]):\n    return values\n")
        baseline = Baseline.from_findings(lint_file(source, root=tmp_path))
        # unrelated edit above the finding: the fingerprint must still match
        source.write_text(
            "# a comment\n\n\ndef bad(values=[]):\n    return values\n"
        )
        new, baselined = baseline.partition(lint_file(source, root=tmp_path))
        assert new == []
        assert len(baselined) == 1

    def test_corrupt_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            Baseline.load(path)
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            Baseline.load(path)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class TestEngine:
    def test_duplicate_rule_ids_rejected(self):
        rules = default_rules()
        with pytest.raises(LintConfigError):
            PassManager(rules + [type(rules[0])()])

    def test_unparseable_file_is_reported_not_fatal(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        manager = PassManager(default_rules())
        assert manager.lint_file(bad, tmp_path) == []
        assert manager.parse_failures
        assert "SyntaxError" in manager.parse_failures[0][1]

    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "x.py").write_text("")
        (tmp_path / "a.py").write_text("")
        files = list(iter_python_files(tmp_path))
        assert [f.name for f in files] == ["a.py"]

    def test_missing_path_raises(self):
        with pytest.raises(LintConfigError):
            list(iter_python_files(Path("/nonexistent/reprolint")))

    def test_severities_are_assigned(self):
        by_rule = {rule.rule_id: rule.severity for rule in default_rules()}
        assert by_rule["RL001"] is Severity.ERROR
        assert by_rule["RL002"] is Severity.WARNING
        assert by_rule["RL003"] is Severity.ERROR
        assert by_rule["RL006"] is Severity.ERROR


# ---------------------------------------------------------------------------
# CLI (subprocess: the real entry point, exit codes included)
# ---------------------------------------------------------------------------


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env={
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PATH": "/usr/bin:/bin",
            # Keep the caller's choice, so the run leaves no bytecode in src/ when asked.
            **{k: v for k, v in os.environ.items() if k == "PYTHONDONTWRITEBYTECODE"},
        },
    )


class TestCLI:
    def test_repo_is_strict_clean(self):
        """The acceptance criterion: baseline covers every repo finding."""
        result = run_cli("--strict")
        assert result.returncode == 0, result.stdout + result.stderr

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_each_fixture_fails_strict(self, rule_id):
        fixture, _ = RULE_FIXTURES[rule_id]
        result = run_cli("--strict", str(FIXTURES / fixture))
        assert result.returncode == 1, result.stdout + result.stderr
        assert rule_id in result.stdout

    def test_json_format(self):
        result = run_cli("--format=json", str(FIXTURES / "rl006_mutable_default.py"))
        payload = json.loads(result.stdout)
        assert payload["counts"].get("RL006", 0) >= 3
        assert all("rule" in f for f in payload["findings"])

    def test_rule_filter(self):
        result = run_cli(
            "--rules=RL002", "--strict", str(FIXTURES / "rl001_determinism.py")
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_unknown_rule_filter_exits_2(self):
        result = run_cli("--rules=RL999", str(FIXTURES))
        assert result.returncode == 2

    def test_update_baseline_round_trip(self, tmp_path):
        """--update-baseline then a clean --strict run, then a regression."""
        project = tmp_path / "proj"
        project.mkdir()
        source = project / "mod.py"
        source.write_text("def bad(values=[]):\n    return values\n")
        assert run_cli("mod.py", "--strict", cwd=project).returncode == 1
        update = run_cli("mod.py", "--update-baseline", cwd=project)
        assert update.returncode == 0, update.stdout + update.stderr
        assert (project / ".reprolint-baseline.json").exists()
        assert run_cli("mod.py", "--strict", cwd=project).returncode == 0
        # a second, new violation is not covered by the baseline
        source.write_text(
            "def bad(values=[]):\n    return values\n\n"
            "def worse(mapping={}):\n    return mapping\n"
        )
        regression = run_cli("mod.py", "--strict", cwd=project)
        assert regression.returncode == 1
        assert "worse" in regression.stdout


# ---------------------------------------------------------------------------
# Repo health: the contracts the rules pin must actually hold here
# ---------------------------------------------------------------------------


class TestRepoContracts:
    @pytest.fixture(scope="class")
    def repo_findings(self):
        return lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)

    def test_no_determinism_violations(self, repo_findings):
        assert [f.render() for f in repo_findings if f.rule == "RL001"] == []

    def test_no_unguarded_pow2_constructors(self, repo_findings):
        assert [f.render() for f in repo_findings if f.rule == "RL005"] == []

    def test_no_mutable_defaults(self, repo_findings):
        assert [f.render() for f in repo_findings if f.rule == "RL006"] == []

    def test_tlb_geometry_errors_use_taxonomy(self):
        """The satellite migration: bad geometry raises ConfigurationError."""
        from repro.errors import ConfigurationError, ReproError
        from repro.tlb.banked import BankedSetAssociativeTLB
        from repro.tlb.mixed_fa import MixedFullyAssociativeTLB
        from repro.tlb.replacement import PLRUSetAssociativeTLB

        cases = [
            lambda: MixedFullyAssociativeTLB("t", 0),
            lambda: PLRUSetAssociativeTLB("t", 48, 3),
            lambda: BankedSetAssociativeTLB("t", 64, 4, 3),
            lambda: BankedSetAssociativeTLB("t", 64, 3, 2),
        ]
        for build in cases:
            with pytest.raises(ConfigurationError) as excinfo:
                build()
            # double-derivation keeps historical except ValueError sites alive
            assert isinstance(excinfo.value, ValueError)
            assert isinstance(excinfo.value, ReproError)

    def test_baseline_only_ratchets_expected_rules(self):
        baseline = Baseline.load(REPO_ROOT / ".reprolint-baseline.json")
        rules = Counter(rule for rule, _, _ in baseline.entries)
        assert set(rules) <= {"RL002", "RL004"}, rules

    def test_process_break_huge_pages_is_seed_threaded(self):
        """The satellite fix: the RNG rides the Process seed."""
        from repro.mem.paging import TransparentHugePaging
        from repro.mem.physical import PhysicalMemory
        from repro.mem.process import Process

        def build(seed):
            process = Process(
                PhysicalMemory(1 << 28, seed=1),
                TransparentHugePaging(),
                seed=seed,
            )
            process.mmap(512 * 8, name="heap")
            process.break_huge_pages(0.5)
            return sorted(
                leaf.vpn
                for leaf in process.page_table.iter_translations()
                if int(leaf.page_size) == 512
            )

        assert build(7) == build(7)
        assert build(7) != build(8)
