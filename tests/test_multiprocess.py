"""Tests for the multi-programmed (time-shared TLB) extension."""

import numpy as np
import pytest

from repro.core.organizations import CONFIG_SPECS
from repro.core.multiprocess import (
    MAX_PROCESSES,
    NAMESPACE_STRIDE,
    TimeSharingConfig,
    _interleave,
    build_system,
    run_time_shared,
)
from repro.workloads.base import VMASpec, Workload
from repro.workloads.patterns import Zipf


def small_workload(tag: str, pages: int = 12) -> Workload:
    return Workload(
        f"mp-{tag}",
        "TEST",
        [VMASpec("heap", pages), VMASpec("stack", 1, thp_eligible=False)],
        lambda regions: Zipf(regions["heap"].subregion(0, 40), alpha=1.1, burst=3),
        instructions_per_access=3.0,
    )


SHARING = TimeSharingConfig(
    quantum_accesses=2_000, accesses_per_process=10_000, physical_bytes=1 << 29
)


class TestBuildSystem:
    def test_namespaces_disjoint(self):
        workloads = [small_workload("a"), small_workload("b")]
        _org, trace, _events, _ipa = build_system(workloads, "THP", SHARING)
        first = trace[trace < NAMESPACE_STRIDE]
        second = trace[trace >= NAMESPACE_STRIDE]
        assert len(first) == len(second) == 10_000

    def test_every_page_translatable(self):
        workloads = [small_workload("a"), small_workload("b")]
        org, trace, _events, _ipa = build_system(workloads, "THP", SHARING)
        table = org.hierarchy.walker.page_table
        for vpn in np.unique(trace)[::7]:
            table.walk(int(vpn))

    def test_pcid_has_no_events(self):
        _org, _trace, events, _ipa = build_system(
            [small_workload("a"), small_workload("b")], "THP", SHARING
        )
        assert events == []

    def test_no_pcid_schedules_flushes(self):
        sharing = TimeSharingConfig(
            quantum_accesses=2_000,
            accesses_per_process=10_000,
            pcid=False,
            physical_bytes=1 << 29,
        )
        _org, trace, events, _ipa = build_system(
            [small_workload("a"), small_workload("b")], "THP", sharing
        )
        assert len(events) == len(trace) // 2_000 - 1

    def test_process_count_limits(self):
        with pytest.raises(ValueError):
            build_system([], "THP", SHARING)
        with pytest.raises(ValueError):
            build_system(
                [small_workload(str(i)) for i in range(MAX_PROCESSES + 1)],
                "THP",
                SHARING,
            )

    def test_invalid_sharing_config(self):
        with pytest.raises(ValueError):
            TimeSharingConfig(quantum_accesses=0)


class TestInterleave:
    def test_round_robin_order(self):
        a = np.array([1, 1, 1, 1])
        b = np.array([2, 2, 2, 2])
        merged = _interleave([a, b], quantum=2)
        assert merged.tolist() == [1, 1, 2, 2, 1, 1, 2, 2]

    def test_uneven_lengths(self):
        a = np.array([1, 1, 1, 1, 1])
        b = np.array([2])
        merged = _interleave([a, b], quantum=2)
        assert merged.tolist() == [1, 1, 2, 1, 1, 1]
        assert len(merged) == 6


class TestRunTimeShared:
    @pytest.fixture(scope="class")
    def workloads(self):
        return [small_workload("a"), small_workload("b")]

    def test_runs_all_configs(self, workloads):
        for config in ("4KB", "THP", "RMM_Lite"):
            result = run_time_shared(workloads, config, SHARING)
            assert result.accesses == 18_000  # 20k minus 10% warm-up
            assert result.total_energy_pj > 0

    @pytest.mark.parametrize(
        "config", [name for name, spec in CONFIG_SPECS.items() if spec.lite is not None]
    )
    def test_every_lite_config_resizes(self, workloads, config):
        """The Lite interval scales to the merged run for every Lite design."""
        result = run_time_shared(workloads, config, SHARING)
        assert result.lite_intervals > 0

    def test_flushing_costs_misses(self, workloads):
        """Without PCID every switch refills the TLBs: more misses."""
        tagged = run_time_shared(workloads, "THP", SHARING)
        flushed = run_time_shared(
            workloads,
            "THP",
            TimeSharingConfig(
                quantum_accesses=2_000,
                accesses_per_process=10_000,
                pcid=False,
                physical_bytes=1 << 29,
            ),
        )
        assert flushed.l1_misses > 2 * tagged.l1_misses
        assert flushed.l2_misses > tagged.l2_misses

    def test_ranges_soften_flush_cost(self):
        """Post-flush refill is cheap with ranges: one entry per VMA
        versus one walk per hot *huge page* — RMM_Lite's advantage grows
        with the switch rate when the hot set spans many huge pages."""
        from repro.workloads.patterns import StridedSet

        def spread_workload(tag):
            # 64 hot pages, each in a different 2 MB page (stride 750).
            return Workload(
                f"spread-{tag}",
                "TEST",
                [VMASpec("heap", 200), VMASpec("stack", 1, thp_eligible=False)],
                lambda regions: StridedSet(
                    regions["heap"], num_pages=64, stride_pages=750, burst=3
                ),
                instructions_per_access=3.0,
            )

        workloads = [spread_workload("a"), spread_workload("b")]
        sharing = TimeSharingConfig(
            quantum_accesses=1_000,
            accesses_per_process=10_000,
            pcid=False,
            physical_bytes=1 << 30,
        )
        thp = run_time_shared(workloads, "THP", sharing)
        rmm_lite = run_time_shared(workloads, "RMM_Lite", sharing)
        assert rmm_lite.l2_misses < 0.2 * thp.l2_misses
        assert rmm_lite.miss_cycles < 0.7 * thp.miss_cycles

    def test_deterministic(self, workloads):
        first = run_time_shared(workloads, "THP", SHARING)
        second = run_time_shared(workloads, "THP", SHARING)
        assert first.l1_misses == second.l1_misses
        assert first.total_energy_pj == second.total_energy_pj
