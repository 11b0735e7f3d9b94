"""Self-test of the benchmark harness, on tiny traces.

Not collected by the repository's test suite (``testpaths = tests``);
run it explicitly::

    python3 -m pytest e2ebench/test_harness.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

#: Long enough for a few Lite intervals (the scaled interval floor is 10k
#: instructions), short enough that process builds dominate.
TINY = 20_000
#: Units of host-time metrics, which vary run to run; everything else repeats.
TIME_UNITS = {"s", "us", "ns"}
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def run(capsys, *argv, golden_path=None):
    """Run the harness CLI in process; returns (exit code, result object)."""
    code = harness.main(
        list(argv), accesses=TINY, golden_path=golden_path or harness.GOLDEN_PATH
    )
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def assert_catalog(result: dict, catalog: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [item["name"] for item in catalog]
    for item in catalog:
        metric = result["metrics"][item["name"]]
        assert metric["unit"] == item["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_every_end_to_end_metric_is_emitted(capsys, workload):
    code, result = run(capsys, "--workload", workload, "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert_catalog(result, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.fixture(scope="module")
def traced_sweeps():
    """Two traced runs of the sweep workload, the one every layer works in."""
    results = []
    for _ in range(2):
        outcome, _lines = harness.measure(
            harness.WORKLOADS["checkpointed-sweep"], 42, 0, True, TINY, golden=None
        )
        results.append(outcome)
    return results


def test_every_per_layer_metric_is_emitted(traced_sweeps):
    assert traced_sweeps[0]["correct"]
    assert_catalog(traced_sweeps[0], SPEC["per_layer"])
    values = {name: m["value"] for name, m in traced_sweeps[0]["metrics"].items()}
    assert values["resilience.snapshots"] > 0
    assert values["mem.map_calls"] > 0
    assert values["observability.self_s"] > 0


def test_traced_counts_repeat_exactly(traced_sweeps):
    def counts(outcome: dict) -> dict:
        return {
            name: metric["value"]
            for name, metric in outcome["metrics"].items()
            if metric["unit"] not in TIME_UNITS and name != "trace.overhead_ratio"
        }

    first, second = (counts(outcome) for outcome in traced_sweeps)
    assert first["mem.map_calls"] > 0 and first["lite.intervals"] > 0
    assert first == second


def test_idle_layers_read_zero_outside_the_sweep(capsys):
    code, result = run(capsys, "--workload", "drain-long-streak", "--trace", "1")
    assert code == 0
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["observability.self_s"] == 0
    assert values["resilience.snapshots"] == 0
    assert values["fastpath.self_s"] > 0


def test_a_flipped_golden_digest_fails_the_run(capsys, tmp_path):
    golden = tmp_path / "golden.json"
    args = ("--workload", "drain-short-streak", "--seed", "42")
    assert harness.main([*args, "--write-golden"], accesses=TINY, golden_path=golden) == 0
    capsys.readouterr()

    code, result = run(capsys, *args, golden_path=golden)
    assert code == 0 and result["failed"] == 0

    data = json.loads(golden.read_text())
    cells = data["42"]["drain-short-streak"]["cells"]
    key = sorted(cells)[0]
    cells[key] = "0" * 64
    golden.write_text(json.dumps(data))
    code, result = run(capsys, *args, golden_path=golden)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
