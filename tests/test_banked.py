"""Tests for the banked TLB baseline."""

import pytest

from repro.analysis.experiments import ExperimentSettings, run_workload_config
from repro.core.organizations import build_banked, build_organization, paging_policy_for
from repro.mem.paging import TransparentHugePaging
from repro.mem.physical import PhysicalMemory
from repro.mem.process import Process
from repro.mmu.translation import PAGES_PER_2MB
from repro.tlb.banked import BankedSetAssociativeTLB
from repro.workloads.base import VMASpec, Workload
from repro.workloads.patterns import Zipf


class TestBankedStructure:
    def test_geometry(self):
        tlb = BankedSetAssociativeTLB("b", 64, 4, 4)
        assert tlb.bank_entries == 16
        assert len(tlb.parts) == 4

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            BankedSetAssociativeTLB("b", 64, 4, 3)
        with pytest.raises(ValueError):
            BankedSetAssociativeTLB("b", 60, 4, 4)

    def test_basic_hit_miss(self):
        tlb = BankedSetAssociativeTLB("b", 64, 4, 4)
        assert tlb.lookup(5) is None
        tlb.fill(5, "v")
        assert tlb.lookup(5) == "v"
        assert tlb.peek(5) == "v"

    def test_keys_route_to_fixed_banks(self):
        tlb = BankedSetAssociativeTLB("b", 64, 4, 4)
        key = 123
        tlb.fill(key, key)
        bank = tlb._part(key)
        assert bank.peek(key) == key
        for other in tlb.parts:
            if other is not bank:
                assert other.peek(key) is None

    def test_bank_conflicts_limit_capacity(self):
        """Keys mapping to one bank only enjoy that bank's capacity."""
        tlb = BankedSetAssociativeTLB("b", 64, 4, 4)
        # Same bank AND same set within the bank: stride of
        # sets_per_bank * banks = 4 * 4 = 16... choose keys with equal
        # set index and equal bank bits: stride 64.
        keys = [i * 64 for i in range(8)]
        for key in keys:
            tlb.fill(key, key)
        assert tlb.occupancy() <= 4  # one set of one bank

    def test_stats_aggregate_at_bank_geometry(self):
        tlb = BankedSetAssociativeTLB("b", 64, 4, 4)
        tlb.lookup(1)
        tlb.fill(1, 1)
        tlb.lookup(1)
        tlb.sync_stats()
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 1
        assert tlb.stats.lookups_by_ways == {4: 2}  # priced per bank probe

    def test_reset_stats_propagates_to_banks(self):
        tlb = BankedSetAssociativeTLB("b", 64, 4, 4)
        tlb.lookup(1)
        tlb.reset_stats()
        tlb.lookup(2)
        tlb.sync_stats()
        assert tlb.stats.lookups == 1  # pre-reset probe is gone

    def test_flush_and_invalidate(self):
        tlb = BankedSetAssociativeTLB("b", 64, 4, 4)
        tlb.fill(7, 7)
        assert tlb.invalidate(7)
        assert not tlb.invalidate(7)
        tlb.fill(9, 9)
        tlb.flush()
        assert tlb.occupancy() == 0

    def test_bank_occupancies(self):
        tlb = BankedSetAssociativeTLB("b", 64, 4, 2)
        for key in range(16):
            tlb.fill(key, key)
        assert sum(tlb.bank_occupancies()) == 16


class TestBankedConfig:
    def make_process(self):
        process = Process(PhysicalMemory(1 << 30, seed=3), TransparentHugePaging())
        process.mmap(PAGES_PER_2MB * 2, name="heap")
        process.mmap(64, name="stack", thp_eligible=False)
        return process

    def test_builder(self):
        org = build_banked(self.make_process(), banks=4)
        assert org.name == "Banked"
        assert isinstance(org.hierarchy.l1_slots[0].tlb, BankedSetAssociativeTLB)
        assert org.lite is None

    def test_dispatch(self):
        assert isinstance(paging_policy_for("Banked"), TransparentHugePaging)
        org = build_organization("Banked", self.make_process())
        assert org.name == "Banked"

    def test_probe_priced_as_bank(self):
        org = build_banked(self.make_process(), banks=4)
        binding = next(b for b in org.bindings if b.name == "L1-4KB")
        # One probe = one 16-entry 4-way access, cheaper than the 64e/4w.
        from repro.energy.cacti import page_tlb_params

        assert binding.params_for_ways(4).read_pj < page_tlb_params(64, 4).read_pj

    def test_saves_energy_at_similar_misses(self):
        workload = Workload(
            "banked-test",
            "TEST",
            [VMASpec("heap", 8), VMASpec("stack", 1, thp_eligible=False)],
            lambda regions: Zipf(regions["heap"].subregion(0, 96), alpha=0.8, burst=3),
            instructions_per_access=3.0,
        )
        settings = ExperimentSettings(trace_accesses=25_000, physical_bytes=1 << 28)
        thp = run_workload_config(workload, "THP", settings)
        banked = run_workload_config(workload, "Banked", settings)
        assert banked.total_energy_pj < thp.total_energy_pj
        assert banked.l1_mpki < thp.l1_mpki * 2 + 1  # conflicts stay bounded
