"""Tests for the workload models and registry."""

import numpy as np
import pytest

from repro.mem.paging import DemandPaging, EagerPaging, TransparentHugePaging
from repro.mem.physical import PhysicalMemory
from repro.resilience.faults import TRACE_FAULTS
from repro.workloads.base import PAGES_PER_MB, VMASpec, Workload
from repro.workloads.patterns import Region, UniformRandom
from repro.workloads.registry import (
    all_workloads,
    get_workload,
    other_workloads,
    tlb_intensive_workloads,
)
from repro.workloads.secondary import LightProfile, build_light_workload


def toy_workload():
    return Workload(
        "toy",
        "TEST",
        [VMASpec("heap", 4), VMASpec("stack", 1, thp_eligible=False)],
        lambda regions: UniformRandom(regions["heap"], burst=2),
        instructions_per_access=2.0,
    )


class TestWorkloadMechanics:
    def test_footprint(self):
        assert toy_workload().footprint_mb == 5

    def test_regions_deterministic(self):
        w = toy_workload()
        assert w.regions() == w.regions()

    def test_trace_within_declared_regions(self):
        w = toy_workload()
        trace = w.trace(5000, seed=1)
        heap = w.regions()["heap"]
        assert np.all((trace >= heap.start_vpn) & (trace < heap.end_vpn))

    def test_trace_deterministic_per_seed(self):
        w = toy_workload()
        assert np.array_equal(w.trace(1000, seed=3), w.trace(1000, seed=3))
        assert not np.array_equal(w.trace(1000, seed=3), w.trace(1000, seed=4))

    def test_process_layout_matches_regions_for_every_policy(self):
        w = toy_workload()
        regions = w.regions()
        for policy in (DemandPaging(), TransparentHugePaging(), EagerPaging("4kb")):
            process = w.build_process(policy, PhysicalMemory(1 << 28, seed=1))
            for vma in process.address_space:
                region = regions[vma.name]
                assert (vma.start_vpn, vma.num_pages) == (
                    region.start_vpn,
                    region.num_pages,
                )

    def test_trace_translatable_under_every_policy(self):
        w = toy_workload()
        trace = w.trace(200, seed=0)
        for policy in (DemandPaging(), TransparentHugePaging(), EagerPaging("thp")):
            process = w.build_process(policy, PhysicalMemory(1 << 28, seed=1))
            for vpn in trace[:50]:
                process.translate(int(vpn))

    def test_thp_eligibility_respected(self):
        w = toy_workload()
        process = w.build_process(TransparentHugePaging(), PhysicalMemory(1 << 28))
        stack = next(v for v in process.address_space if v.name == "stack")
        assert not stack.thp_eligible

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Workload("x", "s", [], lambda regions: None)
        with pytest.raises(ValueError):
            toy_workload().trace(0)


class TestSharedTrace:
    """``Workload.trace`` keeps its latest result in one read-only slot."""

    def test_repeated_call_returns_the_same_array(self):
        w = toy_workload()
        assert w.trace(1000, seed=3) is w.trace(1000, seed=3)

    def test_another_seed_length_or_workload_gives_a_fresh_array(self):
        w = toy_workload()
        twin = toy_workload()  # same name, another object
        for call in (
            lambda: w.trace(1000, seed=4),
            lambda: w.trace(999, seed=3),
            lambda: twin.trace(1000, seed=3),
        ):
            cached = w.trace(1000, seed=3)
            assert call() is not cached
        assert np.array_equal(twin.trace(1000, seed=3), w.trace(1000, seed=3))

    def test_writing_into_the_trace_raises(self):
        trace = toy_workload().trace(100, seed=1)
        with pytest.raises(ValueError):
            trace[0] = 0
        with pytest.raises(ValueError):
            trace += 1

    @pytest.mark.parametrize("name", sorted(TRACE_FAULTS))
    def test_fault_injectors_return_a_writable_copy(self, name):
        trace = toy_workload().trace(2000, seed=1)
        before = trace.copy()
        perturbed = TRACE_FAULTS[name](trace, seed=2)
        assert perturbed.flags.writeable
        assert not np.shares_memory(perturbed, trace)
        assert np.array_equal(trace, before)


class TestRegistry:
    def test_eight_tlb_intensive_workloads(self):
        names = [w.name for w in tlb_intensive_workloads()]
        assert names == [
            "astar",
            "cactusADM",
            "GemsFDTD",
            "mcf",
            "omnetpp",
            "zeusmp",
            "mummer",
            "canneal",
        ]

    def test_footprints_match_table4(self):
        """Table 4 memory footprints, within a few percent."""
        expected_mb = {
            "astar": 350,
            "cactusADM": 690,
            "GemsFDTD": 860,
            "mcf": 1700,
            "omnetpp": 165,
            "zeusmp": 530,
            "canneal": 780,
            "mummer": 470,
        }
        for name, expected in expected_mb.items():
            actual = get_workload(name).footprint_mb
            assert abs(actual - expected) / expected < 0.05, name

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError) as excinfo:
            get_workload("does-not-exist")
        assert "mcf" in str(excinfo.value)

    def test_other_workloads_by_suite(self):
        spec = other_workloads("SPEC 2006")
        parsec = other_workloads("PARSEC")
        assert len(spec) >= 15
        assert len(parsec) >= 8
        assert all(not w.tlb_intensive for w in spec + parsec)

    def test_registry_names_unique_and_cached(self):
        first = all_workloads()
        assert len(first) >= 30
        assert all_workloads() is first

    def test_all_workload_traces_stay_in_bounds(self):
        for workload in all_workloads().values():
            regions = workload.regions()
            low = min(r.start_vpn for r in regions.values())
            high = max(r.end_vpn for r in regions.values())
            trace = workload.trace(2000, seed=7)
            assert len(trace) == 2000
            assert trace.min() >= low
            assert trace.max() < high, workload.name


class TestLightTemplate:
    def test_build_light_workload(self):
        profile = LightProfile("demo", "SPEC 2006", 64, stream_share=0.3)
        workload = build_light_workload(profile)
        assert workload.footprint_mb == pytest.approx(64)
        trace = workload.trace(3000, seed=2)
        assert len(trace) == 3000

    def test_light_workloads_are_less_intensive(self):
        """The template produces lower 4KB-page L1 MPKI than e.g. mcf."""
        from repro.analysis.experiments import ExperimentSettings, run_workload_config

        settings = ExperimentSettings(trace_accesses=40_000)
        light = run_workload_config(get_workload("povray"), "4KB", settings)
        heavy = run_workload_config(get_workload("mcf"), "4KB", settings)
        assert light.l1_mpki < heavy.l1_mpki
