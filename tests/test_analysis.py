"""Tests for the experiment drivers, normalisation, and rendering."""

import pytest

from repro.analysis.experiments import (
    ExperimentSettings,
    prepare_run,
    run_matrix,
    run_workload_config,
)
from repro.analysis.normalize import (
    average_ratio,
    normalized_energy,
    normalized_miss_cycles,
    reduction_percent,
)
from repro.analysis.report import percent, render_series, render_table
from repro.core.fastpath import FastEngine
from repro.workloads.base import VMASpec, Workload
from repro.workloads.patterns import Mixture, UniformRandom, Zipf


def tiny_workload():
    def pattern(regions):
        return Mixture(
            [
                (Zipf(regions["heap"].subregion(0, 32), alpha=1.2, burst=4), 0.7),
                (UniformRandom(regions["heap"], burst=2), 0.3),
            ]
        )

    return Workload(
        "tinytest",
        "TEST",
        [VMASpec("heap", 16), VMASpec("stack", 1, thp_eligible=False)],
        pattern,
        instructions_per_access=3.0,
    )


SETTINGS = ExperimentSettings(trace_accesses=20_000, physical_bytes=1 << 28)


class TestExperimentDrivers:
    def test_run_workload_config_all_configs(self):
        workload = tiny_workload()
        for config in ("4KB", "THP", "TLB_Lite", "RMM", "TLB_PP", "RMM_Lite"):
            result = run_workload_config(workload, config, SETTINGS)
            assert result.configuration == config
            assert result.workload == "tinytest"
            assert result.total_energy_pj > 0

    def test_run_matrix_keys(self):
        results = run_matrix([tiny_workload()], ("4KB", "THP"), SETTINGS)
        assert set(results) == {("tinytest", "4KB"), ("tinytest", "THP")}

    def test_lite_interval_scaled_to_trace(self):
        assert ExperimentSettings(trace_accesses=10_000).scaled_lite_interval() == 10_000
        assert ExperimentSettings(trace_accesses=10_000_000).scaled_lite_interval() == 200_000

    @pytest.mark.parametrize("config", ("THP", "TLB_PP", "RMM_Lite"))
    def test_drivers_run_the_fast_engine(self, config, monkeypatch):
        """The figure drivers drain on the fast engine, with reference results."""
        built = []
        original = FastEngine.__init__

        def spy(self, hierarchy, trace, probe=None):
            built.append(hierarchy)
            original(self, hierarchy, trace, probe)

        monkeypatch.setattr(FastEngine, "__init__", spy)
        result = run_workload_config(tiny_workload(), config, SETTINGS)
        assert len(built) == 1
        reference = prepare_run(tiny_workload(), config, SETTINGS)
        assert reference.simulator.engine == "reference"
        assert reference.run() == result
        assert len(built) == 1

    def test_recording_drivers_keep_the_reference_loop(self, monkeypatch):
        def explode(self, hierarchy, trace, probe=None):
            raise AssertionError("FastEngine constructed for on_fault='record'")

        monkeypatch.setattr(FastEngine, "__init__", explode)
        result = run_workload_config(tiny_workload(), "TLB_PP", SETTINGS, on_fault="record")
        assert result.faulted_accesses == 0

    def test_walk_ratio_knob_raises_energy(self):
        from repro.core.params import SimulationParams

        workload = tiny_workload()
        base = run_workload_config(workload, "4KB", SETTINGS)
        worse = run_workload_config(
            workload,
            "4KB",
            ExperimentSettings(
                trace_accesses=20_000,
                physical_bytes=1 << 28,
                sim_params=SimulationParams(walk_l1_hit_ratio=0.0),
            ),
        )
        assert worse.total_energy_pj > base.total_energy_pj


class TestNormalization:
    def test_normalized_metrics(self):
        results = run_matrix([tiny_workload()], ("4KB", "THP"), SETTINGS)
        ratio = normalized_energy(results, "tinytest", "THP")
        assert ratio == pytest.approx(
            results[("tinytest", "THP")].total_energy_pj
            / results[("tinytest", "4KB")].total_energy_pj
        )
        assert normalized_energy(results, "tinytest", "4KB") == 1.0
        assert normalized_miss_cycles(results, "tinytest", "4KB") == 1.0

    def test_average_ratio(self):
        assert average_ratio([1.0, 3.0]) == 2.0
        assert average_ratio([4.0, 1.0], geometric=True) == 2.0
        assert average_ratio([]) == 0.0
        with pytest.raises(ValueError):
            average_ratio([0.0], geometric=True)

    def test_reduction_percent(self):
        assert reduction_percent(0.77) == pytest.approx(23.0)


class TestRendering:
    def test_render_table(self):
        text = render_table(
            ["name", "value"], [["a", 1.5], ["bb", 2.25]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.500" in text
        assert "2.250" in text

    def test_render_table_row_length_checked(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_render_series(self):
        text = render_series("mcf", [(0, 1.0), (25, 1.5)])
        assert text.startswith("mcf:")
        assert "25=1.500" in text

    def test_percent(self):
        assert percent(0.236) == "23.6%"


class TestReplication:
    def test_run_replicated_metrics(self):
        from repro.analysis.experiments import run_replicated

        metrics = run_replicated(
            tiny_workload(), "THP", SETTINGS, seeds=(1, 2, 3)
        )
        assert set(metrics) == {
            "energy_per_access_pj",
            "l1_mpki",
            "l2_mpki",
            "miss_cycles",
        }
        for metric in metrics.values():
            assert metric.minimum <= metric.mean <= metric.maximum
            assert len(metric.values) == 3
            assert metric.spread == metric.maximum - metric.minimum

    def test_replicas_actually_vary(self):
        from repro.analysis.experiments import run_replicated
        from repro.workloads.patterns import UniformRandom

        jittery = Workload(
            "jittery",
            "TEST",
            [VMASpec("heap", 50), VMASpec("stack", 1, thp_eligible=False)],
            lambda regions: UniformRandom(regions["heap"], burst=2),
            instructions_per_access=3.0,
        )
        metrics = run_replicated(jittery, "4KB", SETTINGS, seeds=(1, 2, 3))
        assert len(set(metrics["l1_mpki"].values)) > 1

    def test_single_seed(self):
        from repro.analysis.experiments import run_replicated

        metrics = run_replicated(tiny_workload(), "THP", SETTINGS, seeds=(9,))
        assert metrics["l1_mpki"].spread == 0.0
