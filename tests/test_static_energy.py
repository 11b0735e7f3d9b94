"""Tests for the Section 6.2 static (leakage) energy model."""

import pytest

from repro.analysis.experiments import ExperimentSettings, run_workload_config_with_org
from repro.energy.cacti import TABLE2_PAGE_TLB, page_tlb_params
from repro.energy.static import StaticEnergyModel
from repro.workloads.base import VMASpec, Workload
from repro.workloads.patterns import Zipf

SETTINGS = ExperimentSettings(trace_accesses=20_000, physical_bytes=1 << 28)


def tiny_workload():
    return Workload(
        "tiny-static",
        "TEST",
        [VMASpec("heap", 8), VMASpec("stack", 1, thp_eligible=False)],
        lambda regions: Zipf(regions["heap"].subregion(0, 16), alpha=1.3, burst=4),
        instructions_per_access=3.0,
    )


@pytest.fixture(scope="module")
def thp_run():
    return run_workload_config_with_org(tiny_workload(), "THP", SETTINGS)


@pytest.fixture(scope="module")
def lite_run():
    return run_workload_config_with_org(tiny_workload(), "TLB_Lite", SETTINGS)


@pytest.fixture(scope="module")
def semantic_run():
    return run_workload_config_with_org(tiny_workload(), "Semantic", SETTINGS)


class TestExecutionTime:
    def test_seconds_formula(self, thp_run):
        result, _ = thp_run
        model = StaticEnergyModel(frequency_ghz=2.0, ipc=2.0)
        expected = (result.instructions / 2.0 + result.miss_cycles) / 2.0e9
        assert model.execution_seconds(result) == pytest.approx(expected)

    def test_invalid_parameters(self, thp_run):
        result, _ = thp_run
        with pytest.raises(ValueError):
            StaticEnergyModel(frequency_ghz=0).execution_seconds(result)
        with pytest.raises(ValueError):
            StaticEnergyModel(ipc=0).execution_seconds(result)


class TestLeakage:
    def test_full_power_leakage_matches_table2(self, thp_run):
        """Ungated: each structure leaks Table 2's full-config power."""
        result, organization = thp_run
        model = StaticEnergyModel()
        leakage = model.leakage_pj(organization, result, power_gating=False)
        seconds = model.execution_seconds(result)
        expected = TABLE2_PAGE_TLB[(64, 4)].leakage_mw * seconds * 1e9
        assert leakage["L1-4KB"] == pytest.approx(expected)

    @pytest.mark.parametrize("power_gating", [False, True])
    def test_semantic_partitions_leak_at_full_capacity(self, semantic_run, power_gating):
        """Each partition is bound on its own and leaks at all 4 ways.

        Without Lite every lookup sees 4 active ways, so gating leaves
        the full-capacity price too.
        """
        result, organization = semantic_run
        model = StaticEnergyModel()
        seconds = model.execution_seconds(result)
        leakage = model.leakage_pj(organization, result, power_gating=power_gating)
        partitions = {"L1-4KB-stack": 16, "L1-4KB-globals": 16, "L1-4KB-heap": 32}
        for name, entries in partitions.items():
            expected = page_tlb_params(entries, 4).leakage_mw * seconds * 1e9
            assert leakage[name] == pytest.approx(expected), name

    def test_never_probed_structure_still_leaks_ungated(self, thp_run):
        result, organization = thp_run
        leakage = StaticEnergyModel().leakage_pj(organization, result, power_gating=False)
        assert leakage["L1-1GB"] > 0

    def test_gating_reduces_leakage_when_lite_downsizes(self, lite_run):
        result, organization = lite_run
        shares = result.way_lookup_shares("L1-4KB")
        assert shares.get(1, 0) > 0.5  # the tiny hot set lets Lite go 1-way
        model = StaticEnergyModel()
        gated = model.leakage_pj(organization, result, power_gating=True)
        ungated = model.leakage_pj(organization, result, power_gating=False)
        assert gated["L1-4KB"] < 0.5 * ungated["L1-4KB"]

    def test_gated_leakage_is_time_weighted(self, lite_run):
        result, organization = lite_run
        model = StaticEnergyModel()
        seconds = model.execution_seconds(result)
        shares = result.way_lookup_shares("L1-4KB")
        expected_mw = sum(
            share * TABLE2_PAGE_TLB[(16 * ways, ways)].leakage_mw
            for ways, share in shares.items()
        )
        gated = model.leakage_pj(organization, result, power_gating=True)
        assert gated["L1-4KB"] == pytest.approx(expected_mw * seconds * 1e9, rel=1e-6)

    def test_totals(self, thp_run):
        result, organization = thp_run
        model = StaticEnergyModel()
        total = model.total_leakage_pj(organization, result)
        assert total == pytest.approx(
            sum(model.leakage_pj(organization, result).values())
        )
        assert model.total_energy_pj(organization, result) == pytest.approx(
            result.total_energy_pj + total
        )

    def test_static_energy_is_significant_fraction(self, thp_run):
        """Leakage over the run is the same order as dynamic energy —
        the reason Section 6.2 calls power gating out as worthwhile."""
        result, organization = thp_run
        total = StaticEnergyModel().total_leakage_pj(organization, result)
        assert 0.01 * result.total_energy_pj < total < 100 * result.total_energy_pj
