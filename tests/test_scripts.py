"""Schema and golden-output tests for the CI gate scripts.

``scripts/`` carried no test coverage of its own: the perf-smoke gate,
the throughput-report artifact, and the coverage ratchet were exercised
only by actually running in CI, where a silent schema drift (a renamed
JSON key, a broken argparse default) would surface as a confusing red
job instead of a pointed test failure.  These tests run each script's
``main`` in-process on tiny inputs and pin the observable contract:
exit codes, report schemas, and the gate verdict lines.
"""

import hashlib
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
for _entry in (REPO_ROOT / "scripts", REPO_ROOT / "benchmarks"):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

bench_e2e = importlib.import_module("bench_e2e")
bench_figures = importlib.import_module("bench_figures")
bench_report = importlib.import_module("bench_report")
bench_throughput = importlib.import_module("bench_throughput")
coverage_gate = importlib.import_module("coverage_gate")
perf_smoke = importlib.import_module("perf_smoke")


# ----------------------------------------------------------------------
# scripts/bench_e2e.py — the BENCH_e2e.json trajectory
# ----------------------------------------------------------------------
class TestBenchE2E:
    def stub_runs(self, monkeypatch, commit, wall_s):
        """Stub the git lookup and the harness; record the harness calls."""
        calls = []

        def run_harness(checkout, workload, seed, seconds, trace=False):
            calls.append((workload, seed, seconds, trace))
            metrics = (
                {"mmu.walks": {"value": 7, "unit": "count"}}
                if trace
                else {
                    "wall_s": {"value": wall_s, "unit": "s"},
                    "setup_s": {"value": 0.5, "unit": "s"},
                }
            )
            return {"correct": True, "attempted": 6, "failed": 0, "metrics": metrics}

        monkeypatch.setattr(bench_e2e, "commit_of", lambda checkout: commit)
        monkeypatch.setattr(bench_e2e, "run_harness", run_harness)
        return calls

    def test_one_entry_per_commit(self, tmp_path, monkeypatch):
        out = tmp_path / "BENCH_e2e.json"
        names = bench_e2e.workload_names(REPO_ROOT)
        calls = self.stub_runs(monkeypatch, "aaa", 10.0)
        assert bench_e2e.main(["--output", str(out)]) == 0
        # End to end for every workload, then one traced pass each.
        assert calls == [(name, 42, 20, trace) for trace in (False, True) for name in names]
        self.stub_runs(monkeypatch, "bbb", 6.0)
        assert bench_e2e.main(["--output", str(out)]) == 0
        # A rerun at the first commit replaces its entry in place.
        self.stub_runs(monkeypatch, "aaa", 9.0)
        assert bench_e2e.main(["--output", str(out)]) == 0

        payload = json.loads(out.read_text())
        assert payload["generated_by"] == "scripts/bench_e2e.py"
        entries = payload["entries"]
        assert [(e["commit"], e["seed"]) for e in entries] == [("aaa", 42), ("bbb", 42)]
        assert list(entries[0]["workloads"]) == names
        assert entries[0]["workloads"][names[0]] == {"wall_s": 9.0, "setup_s": 0.5}
        assert entries[1]["workloads"][names[-1]] == {"wall_s": 6.0, "setup_s": 0.5}
        assert list(entries[1]["layers"]) == names
        assert entries[1]["layers"][names[0]] == {"mmu.walks": 7}

    def test_failed_run_is_not_recorded(self, tmp_path, monkeypatch):
        out = tmp_path / "BENCH_e2e.json"
        self.stub_runs(monkeypatch, "aaa", 10.0)
        monkeypatch.setattr(
            bench_e2e,
            "run_harness",
            lambda *args: {"correct": False, "failed": 1, "metrics": {}},
        )
        with pytest.raises(RuntimeError, match="1 cells failed"):
            bench_e2e.main(["--output", str(out)])
        assert not out.exists()


# ----------------------------------------------------------------------
# scripts/bench_figures.py — the BENCH_figures.json trajectory
# ----------------------------------------------------------------------
class TestBenchFigures:
    def test_parse_durations_sums_phases_per_bench(self):
        output = "\n".join(
            [
                "....",
                "============ slowest durations ============",
                "41.20s setup    benchmarks/bench_fig02_characterization.py::test_fig02",
                "1.05s call     benchmarks/bench_fig02_characterization.py::test_fig02",
                "0.50s call     benchmarks/bench_fig10_main.py::test_fig10",
                "(12 durations < 0.005s hidden.  Use -vv to show these durations.)",
                "4 passed in 43.00s",
            ]
        )
        assert bench_figures.parse_durations(output) == {
            "benchmarks/bench_fig02_characterization.py::test_fig02": 42.25,
            "benchmarks/bench_fig10_main.py::test_fig10": 0.5,
        }

    def test_run_hashes_the_tables_it_wrote(self, tmp_path, monkeypatch):
        checkout = tmp_path / "checkout"
        results = checkout / "benchmarks" / "results"
        results.mkdir(parents=True)
        (results / "stale.txt").write_text("from an earlier run\n")  # not rewritten

        def fake_pytest(args, **kwargs):
            assert kwargs["cwd"] == checkout
            (results / "fig10.txt").write_text("fig10\n")
            (results / "table5.txt").write_text("table5\n")
            return subprocess.CompletedProcess(args, 0, stdout="", stderr="")

        monkeypatch.setattr(bench_figures.subprocess, "run", fake_pytest)
        run = bench_figures.run_suite(checkout)
        assert run["outputs"] == {
            "fig10.txt": hashlib.sha256(b"fig10\n").hexdigest(),
            "table5.txt": hashlib.sha256(b"table5\n").hexdigest(),
        }

    def test_run_records_the_fig10_averages(self, tmp_path, monkeypatch):
        from repro.analysis.report import render_table

        checkout = tmp_path / "checkout"
        results = checkout / "benchmarks" / "results"
        results.mkdir(parents=True)
        headers = ["workload", "4KB", "THP", "RMM_Lite"]
        fig10 = (
            render_table(headers, [["mcf", 1.0, 0.61, 0.2], ["average", 1.0, 0.9374, 0.25]])
            + "\n\n"
            + render_table(headers, [["mcf", 1.0, 0.5, 0.0], ["average", 1.0, 0.28, 0.0001]])
        )

        def fake_pytest(args, **kwargs):
            (results / "fig10_main.txt").write_text(fig10 + "\n")
            return subprocess.CompletedProcess(args, 0, stdout="", stderr="")

        monkeypatch.setattr(bench_figures.subprocess, "run", fake_pytest)
        # Recorded as printed, to three decimals.
        assert bench_figures.run_suite(checkout)["fig10_average"] == {
            "energy": {"4KB": 1.0, "THP": 0.937, "RMM_Lite": 0.25},
            "cycles": {"4KB": 1.0, "THP": 0.28, "RMM_Lite": 0.0},
        }
        with pytest.raises(ValueError, match="0 average rows"):
            bench_figures.fig10_averages("no table\n")

    def test_run_records_the_table5_average(self, tmp_path, monkeypatch):
        from repro.analysis.report import render_table

        checkout = tmp_path / "checkout"
        results = checkout / "benchmarks" / "results"
        results.mkdir(parents=True)
        headers = ["workload", "Lite4K:4w", "2w", "1w", "RMM4K:4w", "2w", "1w", "range%"]
        table5 = render_table(
            headers,
            [["mcf", 10.0, 20.0, 70.0, 0.0, 5.0, 95.0, 99.0],
             ["average", 61.04, 27.2, 11.76, 20.0, 7.3, 72.7, 97.14]],
            title="Table 5",
            float_format="{:.1f}",
        )

        def fake_pytest(args, **kwargs):
            (results / "table05_ways.txt").write_text(table5 + "\n")
            return subprocess.CompletedProcess(args, 0, stdout="", stderr="")

        monkeypatch.setattr(bench_figures.subprocess, "run", fake_pytest)
        run = bench_figures.run_suite(checkout)
        assert "fig10_average" not in run
        # The repeated headers stay in order beside the values, as printed.
        assert run["table05_average"] == {
            "headers": headers[1:],
            "values": [61.0, 27.2, 11.8, 20.0, 7.3, 72.7, 97.1],
        }
        with pytest.raises(ValueError, match="2 average rows"):
            bench_figures.table5_average(table5 + "\n\n" + table5)

    def test_run_records_the_fig12_averages(self, tmp_path, monkeypatch):
        from repro.analysis.report import render_table

        checkout = tmp_path / "checkout"
        results = checkout / "benchmarks" / "results"
        results.mkdir(parents=True)
        headers = ["workload", "memory", "L1 MPKI@THP", "TLB_Lite/THP", "RMM_Lite/THP"]
        fig12 = "\n\n".join(
            render_table(
                headers,
                [["gcc", "35 MB", 9.5, 0.8, 0.3], ["average", "", float("nan"), lite, rmm]],
                title=f"Figure 12 — {suite} (energy vs THP)",
            )
            for suite, lite, rmm in (("SPEC 2006", 0.7684, 0.2625), ("PARSEC", 0.79, 0.2749))
        )

        def fake_pytest(args, **kwargs):
            (results / "fig12_other_workloads.txt").write_text(fig12 + "\n")
            return subprocess.CompletedProcess(args, 0, stdout="", stderr="")

        monkeypatch.setattr(bench_figures.subprocess, "run", fake_pytest)
        # Only the ratio cells, as printed: the blank memory cell and the
        # nan MPKI cell are left out.
        assert bench_figures.run_suite(checkout)["fig12_average"] == {
            "SPEC 2006": {"TLB_Lite/THP": 0.768, "RMM_Lite/THP": 0.263},
            "PARSEC": {"TLB_Lite/THP": 0.79, "RMM_Lite/THP": 0.275},
        }
        with pytest.raises(ValueError, match="1 average rows"):
            bench_figures.fig12_averages(fig12.split("\n\n")[0])

    def test_checkouts_alternate_and_merge_per_commit(self, tmp_path, monkeypatch):
        out = tmp_path / "BENCH_figures.json"
        order = []

        def run_suite(checkout):
            order.append(checkout.name)
            return {"total_s": float(len(order)), "benches": {"b::t": 1.0}}

        monkeypatch.setattr(bench_figures, "run_suite", run_suite)
        monkeypatch.setattr(bench_figures, "commit_of", lambda checkout: checkout.name)
        parent, change = tmp_path / "parent", tmp_path / "change"
        argv = ["--checkout", str(parent), "--checkout", str(change), "--output", str(out)]
        assert bench_figures.main(argv) == 0
        assert order == ["parent", "change", "parent", "change"]
        # A rerun at one commit replaces that commit's entry in place.
        rerun = ["--checkout", str(parent), "--rounds", "1", "--output", str(out)]
        assert bench_figures.main(rerun) == 0

        payload = json.loads(out.read_text())
        assert payload["generated_by"] == "scripts/bench_figures.py"
        entries = payload["entries"]
        assert [entry["commit"] for entry in entries] == ["parent", "change"]
        assert [run["total_s"] for run in entries[0]["runs"]] == [5.0]
        assert [run["total_s"] for run in entries[1]["runs"]] == [2.0, 4.0]


# ----------------------------------------------------------------------
# EXPERIMENTS.md's Fig. 10, Table 5 and Fig. 12 numbers against the
# figure-suite trajectory
# ----------------------------------------------------------------------
def experiments_rows(heading: str) -> list[tuple[str, str]]:
    """(row label, measured cell) of each table row in the EXPERIMENTS.md
    section whose heading starts with ``heading``."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    section = text.split(f"## {heading}", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) >= 3:
            rows.append((cells[0], cells[2]))
    return rows


def printed(cell: str) -> tuple[float, float]:
    """A measured cell's leading number and half a unit of its last digit."""
    match = re.match(r"[0-9]+(?:\.([0-9]+))?", cell)
    assert match, f"no measured number in {cell!r}"
    return float(match.group(0)), 0.5 * 10 ** -len(match.group(1) or "")


def recorded_runs(key: str) -> list[tuple[str, dict]]:
    """(commit, ``run[key]``) of every run in the newest BENCH_figures.json
    entry that records ``key``."""
    entries = json.loads((REPO_ROOT / "BENCH_figures.json").read_text())["entries"]
    recorded = [
        (entry["commit"], run[key])
        for entry in entries
        for run in entry["runs"]
        if key in run
    ]
    assert recorded, f"no BENCH_figures.json entry records {key}"
    return [pair for pair in recorded if pair[0] == recorded[-1][0]]


class TestExperimentsFig10:
    def test_measured_columns_match_the_latest_figure_run(self):
        """EXPERIMENTS.md quotes the Fig. 10 averages the newest recorded run printed.

        The energy rows are ratios of two printed averages (config over
        THP), the cycle rows the printed averages themselves.  Each must
        agree within half a unit of its own last digit plus the effect of
        the table's three-decimal rounding.
        """
        table_half_unit = 0.0005
        checked = set()
        for commit, average in recorded_runs("fig10_average"):
            energy, cycles = average["energy"], average["cycles"]
            for label, cell in experiments_rows("Headline results (Figure 10"):
                if label.endswith(" / THP"):
                    expected = energy[label.removesuffix(" / THP")] / energy["THP"]
                    slack = table_half_unit * (1 + expected) / energy["THP"]
                elif label in cycles:
                    expected, slack = cycles[label], table_half_unit
                else:
                    continue
                value, half_unit = printed(cell)
                assert abs(value - expected) <= half_unit + slack, (commit, label, value, expected)
                checked.add(label)
        assert checked == {
            "TLB_Lite / THP", "RMM / THP", "TLB_PP / THP", "RMM_Lite / THP",
            "THP", "TLB_Lite", "RMM", "RMM_Lite",
        }


#: EXPERIMENTS.md's Table 5 bullets: label, then the recorded columns its
#: measured numbers quote, each as (header, columns to the right of it).
#: The headers repeat ``2w`` and ``1w``, so a column is found from the
#: first header of its group.
TABLE5_BULLETS = {
    "TLB_Lite L1-4KB lookups at 4/2/1 ways": (
        ("Lite4K:4w", 0), ("Lite4K:4w", 1), ("Lite4K:4w", 2),
    ),
    "TLB_Lite L1-2MB at 4 ways": (("Lite2M:4w", 0),),
    "RMM_Lite L1-4KB at 1 way": (("RMM4K:4w", 2),),
    "RMM_Lite hit share from the L1-range TLB": (("range%", 0),),
}


def experiments_table5_measured() -> dict[str, list[str]]:
    """Each Table 5 bullet's measured numbers (after its arrow), as printed."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Table 5", 1)[1].split("\n## ", 1)[0]
    measured = {}
    for bullet in section.split("\n* ")[1:]:
        label, _, quoted = bullet.partition(":")
        if "→" in quoted:
            after = quoted.split("→", 1)[1].split("%", 1)[0]
            measured[label.strip()] = re.findall(r"[0-9]+(?:\.[0-9]+)?", after)
    return measured


class TestExperimentsTable5:
    def test_averages_match_the_latest_figure_run(self):
        """EXPERIMENTS.md quotes the Table 5 averages the newest recorded run
        printed, within half a unit of its own last digit plus the table's
        one-decimal rounding."""
        measured = experiments_table5_measured()
        for commit, average in recorded_runs("table05_average"):
            for label, columns in TABLE5_BULLETS.items():
                assert len(measured[label]) == len(columns), label
                for cell, (header, offset) in zip(measured[label], columns):
                    expected = average["values"][average["headers"].index(header) + offset]
                    value, half_unit = printed(cell)
                    assert abs(value - expected) <= half_unit + 0.05, (
                        commit, label, header, offset, value, expected
                    )


#: EXPERIMENTS.md's Fig. 12 rows: label, then the recorded suite and
#: ratio its measured column quotes.
FIG12_ROWS = {
    "TLB_Lite/THP, rest of SPEC": ("SPEC 2006", "TLB_Lite/THP"),
    "TLB_Lite/THP, rest of PARSEC": ("PARSEC", "TLB_Lite/THP"),
    "RMM_Lite/THP, rest of SPEC": ("SPEC 2006", "RMM_Lite/THP"),
    "RMM_Lite/THP, rest of PARSEC": ("PARSEC", "RMM_Lite/THP"),
}


class TestExperimentsFig12:
    def test_measured_column_matches_the_latest_figure_run(self):
        """EXPERIMENTS.md quotes the Fig. 12 averages the newest recorded run
        printed: each ratio within half a unit of its own last digit plus
        the table's three-decimal rounding, and the reduction beside it
        within half a percent of that ratio's."""
        rows = dict(experiments_rows("Figure 12"))
        for commit, average in recorded_runs("fig12_average"):
            for label, (suite, ratio) in FIG12_ROWS.items():
                expected = average[suite][ratio]
                value, half_unit = printed(rows[label])
                assert abs(value - expected) <= half_unit + 0.0005, (commit, label, value, expected)
                sign, percent = re.search(r"\(([−-])([0-9]+) %\)", rows[label]).groups()
                assert sign == "−" and abs(int(percent) - (1 - expected) * 100) <= 0.55, (
                    commit, label, percent, expected
                )


# ----------------------------------------------------------------------
# scripts/bench_report.py — the BENCH_throughput.json artifact
# ----------------------------------------------------------------------
class TestBenchReport:
    def test_report_schema_round_trip(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "BENCH_throughput.json"
        monkeypatch.setattr(
            sys,
            "argv",
            ["bench_report.py", "--accesses", "2000", "--rounds", "1",
             "--output", str(out)],
        )
        assert bench_report.main() == 0
        assert f"wrote {out}" in capsys.readouterr().out

        payload = json.loads(out.read_text())
        assert set(payload) == {
            "commit", "accesses", "rounds", "generated_by", "rows", "speedups",
        }
        assert payload["accesses"] == 2000
        assert payload["rounds"] == 1
        assert payload["generated_by"] == "scripts/bench_report.py"

        expected_cells = (
            len(bench_throughput.TRACES)
            * len(bench_throughput.CONFIGS)
            * len(bench_throughput.ENGINES)
        )
        assert len(payload["rows"]) == expected_cells
        for row in payload["rows"]:
            assert set(row) == {
                "trace", "config", "engine", "accesses_per_second",
                "min_accesses_per_second", "max_accesses_per_second",
            }
            assert row["trace"] in bench_throughput.TRACES
            assert row["config"] in bench_throughput.CONFIGS
            assert row["engine"] in bench_throughput.ENGINES
            assert 0 < row["min_accesses_per_second"] == row["accesses_per_second"]
            assert row["accesses_per_second"] == row["max_accesses_per_second"]

        assert set(payload["speedups"]) == set(bench_throughput.TRACES)
        for per_config in payload["speedups"].values():
            assert set(per_config) == set(bench_throughput.CONFIGS)
            assert all(ratio > 0 for ratio in per_config.values())

    def test_rounds_pair_the_engines(self, tmp_path, monkeypatch):
        """Each round drains both engines back to back, alternating which
        goes first.  A row holds the median, slowest and fastest round; the
        speedup is the median of the per-round ratios (here 4, where the
        ratio of the best rates and of the median rates are both 2)."""
        seconds = {"reference": [1.0, 2.0, 4.0], "fast": [1.0, 0.5, 1.0]}
        drained = []
        clock = [0.0]

        def fake_drain(engine):
            drained.append(engine)
            clock[0] += seconds[engine][drained.count(engine) - 1]
            return SimpleNamespace(accesses=100)

        monkeypatch.setattr(bench_report, "prepare_cell", lambda w, c, engine, a: engine)
        monkeypatch.setattr(bench_report, "drain", fake_drain)
        monkeypatch.setattr(bench_report.time, "perf_counter", lambda: clock[0])
        rates = bench_report.measure(None, "4KB", accesses=100, rounds=3)
        assert drained == ["reference", "fast", "fast", "reference", "reference", "fast"]
        assert rates == {"reference": [100.0, 50.0, 25.0], "fast": [100.0, 200.0, 100.0]}

        monkeypatch.setattr(bench_report, "measure", lambda *args: rates)
        monkeypatch.setattr(bench_report, "TRACES", ("omnetpp",))
        monkeypatch.setattr(bench_report, "CONFIGS", ("4KB",))
        monkeypatch.setattr(bench_report, "bench_workload", lambda name: None)
        out = tmp_path / "BENCH_throughput.json"
        monkeypatch.setattr(sys, "argv", ["bench_report.py", "--output", str(out)])
        assert bench_report.main() == 0
        payload = json.loads(out.read_text())
        assert payload["speedups"] == {"omnetpp": {"4KB": 4.0}}
        assert [
            (row["engine"], row["accesses_per_second"], row["min_accesses_per_second"],
             row["max_accesses_per_second"])
            for row in payload["rows"]
        ] == [("reference", 50, 25, 100), ("fast", 100, 100, 200)]


# ----------------------------------------------------------------------
# scripts/perf_smoke.py — the three-part perf gate
# ----------------------------------------------------------------------
class TestPerfSmoke:
    def test_gate_passes_on_healthy_tree(self, monkeypatch, capsys):
        """All three checks run and pass on a tiny trace.

        The speedup floor is slackened to a jitter-proof value — at
        4 000 accesses the timings are noise; this pins the *flow*
        (equivalence matrix, verdict lines, exit code), while CI runs
        the real floor at full size.
        """
        monkeypatch.setattr(
            sys,
            "argv",
            ["perf_smoke.py", "--accesses", "2000", "--bench-accesses", "4000",
             "--min-speedup", "0.01"],
        )
        assert perf_smoke.main() == 0
        captured = capsys.readouterr().out
        assert "[1/3]" in captured
        assert "[2/3]" in captured
        assert "[3/3]" in captured
        assert "perf-smoke: ok" in captured
        assert "FAIL" not in captured
        # every extended config reports four byte-identical runs
        assert captured.count("byte-identical across 4 runs") == len(
            perf_smoke.EXTENDED_CONFIG_NAMES
        )

    def test_telemetry_check_counts_work(self, monkeypatch, capsys):
        """A disabled hub adds no call; an enabled one is caught.

        The check counts calls instead of timing them, so it is exact
        at any trace length.
        """
        from repro.observability import Observability

        assert perf_smoke.check_telemetry_work(4_000)
        # Both gated configurations drain through the paged template, so
        # each compared at least one generated drain source.
        compared = re.findall(
            r"(\d+) generated drain source\(s\) identical", capsys.readouterr().out
        )
        assert len(compared) == len(perf_smoke.GATED_CONFIGS)
        assert all(int(count) >= 1 for count in compared)
        monkeypatch.setattr(perf_smoke, "Observability", lambda **_: Observability())
        assert not perf_smoke.check_telemetry_work(4_000)
        assert capsys.readouterr().out.count("FAIL") == len(perf_smoke.GATED_CONFIGS)

    def test_telemetry_check_needs_a_generated_drain(self, monkeypatch, capsys):
        """An empty source comparison fails instead of passing vacuously."""
        profiled = perf_smoke.profiled_drain
        monkeypatch.setattr(
            perf_smoke, "profiled_drain", lambda prepared: (profiled(prepared)[0], [])
        )
        assert not perf_smoke.check_telemetry_work(4_000)
        out = capsys.readouterr().out
        assert out.count("FAIL") == len(perf_smoke.GATED_CONFIGS)
        assert out.count("no generated drain seen") == len(perf_smoke.GATED_CONFIGS)


# ----------------------------------------------------------------------
# scripts/coverage_gate.py — the ratchet
# ----------------------------------------------------------------------
class TestCoverageGate:
    def _write(self, tmp_path, measured, floor):
        coverage = tmp_path / "coverage.json"
        coverage.write_text(
            json.dumps({"totals": {"percent_covered": measured}})
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"floor_percent": floor}))
        return coverage, baseline

    def _run(self, coverage, baseline, *extra):
        return coverage_gate.main(
            ["--coverage", str(coverage), "--baseline", str(baseline), *extra]
        )

    def test_passes_above_floor(self, tmp_path, capsys):
        coverage, baseline = self._write(tmp_path, measured=81.5, floor=75.0)
        assert self._run(coverage, baseline) == 0
        assert "ok — 81.50% covered (floor 75.00%)" in capsys.readouterr().out

    def test_fails_below_floor(self, tmp_path, capsys):
        coverage, baseline = self._write(tmp_path, measured=70.0, floor=75.0)
        assert self._run(coverage, baseline) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tolerance_absorbs_line_count_drift(self, tmp_path):
        coverage, baseline = self._write(tmp_path, measured=74.8, floor=75.0)
        assert self._run(coverage, baseline) == 0
        assert self._run(coverage, baseline, "--tolerance", "0.05") == 1

    def test_update_baseline_ratchets_up(self, tmp_path, capsys):
        coverage, baseline = self._write(tmp_path, measured=80.0, floor=75.0)
        assert self._run(coverage, baseline, "--update-baseline") == 0
        assert "ratcheted 75.00% -> 80.00%" in capsys.readouterr().out
        assert json.loads(baseline.read_text()) == {"floor_percent": 80.0}

    def test_update_baseline_never_lowers_the_floor(self, tmp_path):
        coverage, baseline = self._write(tmp_path, measured=70.0, floor=75.0)
        assert self._run(coverage, baseline, "--update-baseline") == 1
        assert json.loads(baseline.read_text()) == {"floor_percent": 75.0}

    def test_missing_report_is_exit_2(self, tmp_path, capsys):
        _, baseline = self._write(tmp_path, measured=80.0, floor=75.0)
        assert self._run(tmp_path / "absent.json", baseline) == 2
        assert "no coverage report" in capsys.readouterr().err

    def test_malformed_report_is_exit_2(self, tmp_path, capsys):
        coverage, baseline = self._write(tmp_path, measured=80.0, floor=75.0)
        coverage.write_text(json.dumps({"totals": {}}))
        assert self._run(coverage, baseline) == 2
        assert "malformed coverage report" in capsys.readouterr().err

    def test_committed_baseline_is_well_formed(self):
        floor = coverage_gate.read_floor(REPO_ROOT / ".coverage-baseline.json")
        assert 0.0 < floor <= 100.0


# ----------------------------------------------------------------------
# scripts/chaos_drill.py — the --metrics-out surface
# ----------------------------------------------------------------------
class TestChaosDrillCli:
    def test_metrics_out_flag_is_wired(self):
        """The argparse surface accepts --metrics-out (CI relies on it)."""
        source = (REPO_ROOT / "scripts" / "chaos_drill.py").read_text()
        assert "--metrics-out" in source
        assert "metrics_sidecar_path" in source
