"""Phase-behaviour locks: the Figure 4 workloads really have phases.

Figure 4's argument — no single TLB size is optimal across execution —
rests on astar, GemsFDTD, and mcf changing behaviour over time.  These
tests assert the timeline statistics show real phase structure, and that
the stationary workloads don't.
"""

import pytest

from repro.analysis.experiments import (
    ExperimentSettings,
    run_workload_config,
    run_workload_config_with_org,
)
from repro.core.params import SimulationParams
from repro.workloads.registry import get_workload

SETTINGS = ExperimentSettings(
    trace_accesses=120_000,
    sim_params=SimulationParams(timeline_windows=24),
)


def timeline_mpki(name, config="4KB"):
    result = run_workload_config(get_workload(name), config, SETTINGS)
    return [sample.l1_mpki for sample in result.timeline]


def variation(series):
    mean = sum(series) / len(series)
    if mean == 0:
        return 0.0
    return (max(series) - min(series)) / mean


class TestPhasedWorkloads:
    @pytest.mark.parametrize(
        "name,threshold",
        [("astar", 0.25), ("GemsFDTD", 0.18), ("mcf", 0.4)],
    )
    def test_mpki_varies_across_execution(self, name, threshold):
        series = timeline_mpki(name)
        assert variation(series) > threshold, (name, series)

    def test_astar_search_vs_expand_phases(self):
        """astar's expand phase (trace fraction 0.45-0.75) differs from
        the surrounding search phases."""
        series = timeline_mpki("astar")
        n = len(series)
        search = series[: int(n * 0.40)]
        expand = series[int(n * 0.50) : int(n * 0.72)]
        search_mean = sum(search) / len(search)
        expand_mean = sum(expand) / len(expand)
        assert abs(expand_mean - search_mean) / max(search_mean, 1e-9) > 0.12

    def test_gems_alternates_with_its_field_sweeps(self):
        """GemsFDTD's repeating field sweeps modulate the MPKI."""
        series = timeline_mpki("GemsFDTD")
        mean = sum(series) / len(series)
        crossings = sum(
            1
            for a, b in zip(series, series[1:])
            if (a - mean) * (b - mean) < 0
        )
        assert crossings >= 3  # oscillates around its mean


class TestStationaryWorkloads:
    @pytest.mark.parametrize("name", ["omnetpp", "canneal"])
    def test_mpki_roughly_stationary(self, name):
        series = timeline_mpki(name)
        assert variation(series) < 0.6, (name, series)

    def test_phases_drive_lite_reconfigurations(self):
        """On phased workloads Lite keeps making decisions over time."""
        result, org = run_workload_config_with_org(
            get_workload("astar"), "TLB_Lite", SETTINGS
        )
        ways_over_time = [
            record.active_units["L1-4KB"] for record in org.lite.history
        ]
        assert len(set(ways_over_time)) > 1  # L1-4KB resized over time
        assert result.lite_intervals > 20
