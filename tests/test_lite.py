"""Tests for the Lite controller: decision algorithm, reactivation, knobs."""

import json

import pytest

from repro import get_workload
from repro.analysis.experiments import ExperimentSettings, run_workload_config_with_org
from repro.core.lite import LiteController
from repro.core.params import LiteParams
from repro.tlb.fully_assoc import FullyAssociativeTLB
from repro.tlb.set_assoc import SetAssociativeTLB


def make_controller(**overrides):
    defaults = dict(
        interval_instructions=1000,
        threshold_mode="relative",
        epsilon_relative=0.125,
        reactivate_probability=0.0,  # deterministic by default
        seed=0,
    )
    defaults.update(overrides)
    params = LiteParams(**defaults)
    tlb = SetAssociativeTLB("L1-4KB", 64, 4)
    controller = LiteController([tlb], params)
    return controller, tlb


def feed_counters(controller, name, per_group):
    """Directly set the interval's LRU-distance counters."""
    raw = controller.counters[name].raw
    for index, value in enumerate(per_group):
        raw[index] = value


class TestDecision:
    def test_downsizes_when_deep_ways_useless(self):
        controller, tlb = make_controller()
        # 1000 hits all at MRU; zero utility beyond way 0.
        feed_counters(controller, "L1-4KB", [1000, 0, 0])
        record = controller.end_interval(l1_misses=100, instructions=1000)
        assert record.action == "decide"
        assert tlb.active_ways == 1

    def test_keeps_ways_with_deep_utility(self):
        controller, tlb = make_controller()
        feed_counters(controller, "L1-4KB", [500, 200, 300])
        controller.end_interval(l1_misses=100, instructions=1000)
        assert tlb.active_ways == 4

    def test_partial_downsize_to_two_ways(self):
        controller, tlb = make_controller()
        # Going to 2 ways loses only the rank-2-3 hits (5, under 12.5% of
        # 100 misses); going to 1 way would also lose the 300 rank-1 hits.
        feed_counters(controller, "L1-4KB", [500, 300, 5])
        controller.end_interval(l1_misses=100, instructions=1000)
        assert tlb.active_ways == 2

    def test_threshold_is_relative_to_actual_mpki(self):
        controller, tlb = make_controller()
        # 50 extra misses vs 1000 actual: 5% < 12.5% -> allowed.
        feed_counters(controller, "L1-4KB", [0, 50, 50])
        controller.end_interval(l1_misses=1000, instructions=1000)
        assert tlb.active_ways == 1

    def test_zero_actual_mpki_allows_only_free_downsizing(self):
        controller, tlb = make_controller()
        # Relative threshold at 0 MPKI is 0: halving to 2 ways costs
        # nothing (no rank-2-3 hits) but 1 way would add one miss.
        feed_counters(controller, "L1-4KB", [100, 1, 0])
        controller.end_interval(l1_misses=0, instructions=1000)
        assert tlb.active_ways == 2

    def test_absolute_threshold_permits_tiny_increase(self):
        controller, tlb = make_controller(
            threshold_mode="absolute", epsilon_absolute=0.1
        )
        # 0 actual misses; rank>=1 hits would add 0.05 MPKI < 0.1.
        feed_counters(controller, "L1-4KB", [100, 5, 0])
        controller.end_interval(l1_misses=0, instructions=100_000)
        assert tlb.active_ways == 1

    def test_absolute_threshold_blocks_larger_increase(self):
        controller, tlb = make_controller(
            threshold_mode="absolute", epsilon_absolute=0.1
        )
        # 2 ways adds 0.03 MPKI (<= 0.1); 1 way would add 0.53: settle at 2.
        feed_counters(controller, "L1-4KB", [100, 50, 3])
        controller.end_interval(l1_misses=0, instructions=100_000)
        assert tlb.active_ways == 2

    def test_min_ways_respected(self):
        controller, tlb = make_controller(min_ways=2)
        feed_counters(controller, "L1-4KB", [1000, 0, 0])
        controller.end_interval(l1_misses=100, instructions=1000)
        assert tlb.active_ways == 2

    def test_never_fully_disables(self):
        controller, tlb = make_controller()
        for _ in range(5):
            controller.end_interval(l1_misses=0, instructions=1000)
        assert tlb.active_ways >= 1


class TestReactivation:
    def test_degradation_reactivates_all_ways(self):
        controller, tlb = make_controller()
        feed_counters(controller, "L1-4KB", [1000, 0, 0])
        controller.end_interval(l1_misses=10, instructions=1000)
        assert tlb.active_ways == 1
        # MPKI jumps 10 -> 100: beyond 12.5% over previous.
        record = controller.end_interval(l1_misses=100, instructions=1000)
        assert record.action == "degradation-reactivate"
        assert record.predicted_mpki == {}
        assert tlb.active_ways == 4

    def test_small_degradation_tolerated(self):
        controller, tlb = make_controller()
        feed_counters(controller, "L1-4KB", [1000, 0, 0])
        controller.end_interval(l1_misses=100, instructions=1000)
        assert tlb.active_ways == 1
        record = controller.end_interval(l1_misses=105, instructions=1000)
        assert record.action == "decide"
        assert tlb.active_ways == 1

    def test_random_reactivation_fires_with_probability_one(self):
        controller, tlb = make_controller(reactivate_probability=1.0)
        tlb.set_active_units(1)
        record = controller.end_interval(l1_misses=0, instructions=1000)
        assert record.action == "random-reactivate"
        assert record.predicted_mpki == {}
        assert tlb.active_ways == 4
        assert controller.history == [record]

    def test_random_reactivation_rate_statistical(self):
        controller, _tlb = make_controller(reactivate_probability=0.25, seed=9)
        for _ in range(400):
            controller.end_interval(l1_misses=0, instructions=1000)
        actions = [record.action for record in controller.history]
        rate = actions.count("random-reactivate") / 400
        assert 0.15 < rate < 0.35

    def test_counters_reset_each_interval(self):
        controller, _tlb = make_controller()
        feed_counters(controller, "L1-4KB", [5, 5, 5])
        controller.end_interval(l1_misses=10, instructions=1000)
        assert controller.counters["L1-4KB"].total_hits == 0


class TestBookkeeping:
    def test_history_records(self):
        controller, _tlb = make_controller()
        controller.end_interval(l1_misses=50, instructions=1000)
        controller.end_interval(l1_misses=60, instructions=1000)
        assert len(controller.history) == 2
        record = controller.history[0]
        assert record.actual_mpki == 50.0
        # Records capture the post-decision configuration (all counters
        # were zero, so Lite downsized to 1 way for free).
        assert record.active_units == {"L1-4KB": 1}
        assert controller.history[1].instructions_seen == 2000

    def test_active_configuration(self):
        controller, tlb = make_controller()
        assert controller.active_configuration() == {"L1-4KB": 4}
        tlb.set_active_units(2)
        assert controller.active_configuration() == {"L1-4KB": 2}

    def test_invalid_interval_rejected(self):
        controller, _tlb = make_controller()
        with pytest.raises(ValueError):
            controller.end_interval(l1_misses=0, instructions=0)

    def test_multiple_tlbs_decided_independently(self):
        params = LiteParams(
            interval_instructions=1000, reactivate_probability=0.0, seed=0
        )
        a = SetAssociativeTLB("A", 64, 4)
        b = SetAssociativeTLB("B", 32, 4)
        controller = LiteController([a, b], params)
        controller.counters["A"].raw[:] = [1000, 0, 0]
        controller.counters["B"].raw[:] = [0, 400, 400]
        controller.end_interval(l1_misses=100, instructions=1000)
        assert a.active_ways == 1
        assert b.active_ways == 4

    def test_record_holds_scanned_predictions(self):
        controller, tlb = make_controller()
        # 100 MPKI, threshold 112.5: 2 ways adds the 5 rank-2-3 hits
        # (105 MPKI), 1 way also the 300 rank-1 hits (405 MPKI), and the
        # scan stops at the first candidate over the threshold.
        feed_counters(controller, "L1-4KB", [500, 300, 5])
        record = controller.end_interval(l1_misses=100, instructions=1000)
        assert record.predicted_mpki == {"L1-4KB": [[2, 105.0], [1, 405.0]]}
        assert record.active_units == {"L1-4KB": 2}
        assert tlb.active_ways == 2
        # Pairs, not int-keyed dicts, so a record survives a JSON snapshot.
        restored, _tlb = make_controller()
        restored.load_state_dict(json.loads(json.dumps(controller.state_dict())))
        assert restored.history == [record]


class TestResizing:
    """Lite resizes each TLB through ``set_active_units``, up to ``max_units``."""

    def test_set_assoc_resizes_by_ways(self):
        tlb = SetAssociativeTLB("t", 64, 4)
        assert tlb.max_units == 4
        tlb.set_active_units(2)
        assert tlb.active_ways == 2

    def test_fully_assoc_resizes_by_entries(self):
        tlb = FullyAssociativeTLB("t", 8)
        assert tlb.max_units == 8
        tlb.set_active_units(2)
        assert tlb.active_entries == 2

    def test_fully_assoc_lite_integration(self):
        """Section 4.4: Lite drives a fully-associative TLB by capacity."""
        params = LiteParams(interval_instructions=1000, reactivate_probability=0.0)
        tlb = FullyAssociativeTLB("fa", 8)
        controller = LiteController([tlb], params)
        controller.counters["fa"].raw[:] = [1000, 0, 0, 0]
        controller.end_interval(l1_misses=100, instructions=1000)
        assert tlb.active_entries == 1

    def test_non_power_of_two_capacity_rejected(self):
        with pytest.raises(ValueError):
            LiteController([FullyAssociativeTLB("t", 6)], LiteParams())

    def test_full_size_tlb_keeps_its_pending_counts(self):
        """Reactivating a TLB already at full size must not resize it:
        a resize syncs the pending counts, which snapshots see."""
        controller, tlb = make_controller(reactivate_probability=1.0)
        tlb.lookup(1)
        controller.end_interval(l1_misses=1, instructions=1000)
        assert tlb.state_dict()["pending"] == [0, 1, 0]
        assert tlb.stats.lookups == 0


class TestDecisionRecords:
    """Every record of a whole run explains its own decision."""

    @pytest.mark.parametrize("workload", ["omnetpp", "mcf", "astar", "GemsFDTD"])
    @pytest.mark.parametrize(
        "config", ["TLB_Lite", "RMM_Lite", "FA_Lite", "RMM_PP_Lite", "L0_Lite"]
    )
    def test_records_replay_the_halving_scan(self, config, workload):
        _result, org = run_workload_config_with_org(
            get_workload(workload), config, ExperimentSettings(trace_accesses=60_000)
        )
        lite = org.lite
        full = {tlb.name: tlb.max_units for tlb in lite.tlbs}
        previous = full
        decisions = 0
        for record in lite.history:
            if record.action != "decide":
                assert record.predicted_mpki == {}
                assert record.active_units == full
                previous = record.active_units
                continue
            threshold = lite.params.threshold(record.actual_mpki)
            assert set(record.predicted_mpki) == set(full)
            for name, scanned in record.predicted_mpki.items():
                candidate, chosen = previous[name] // 2, previous[name]
                for index, (units, predicted) in enumerate(scanned):
                    assert units == candidate
                    assert predicted >= record.actual_mpki
                    if predicted > threshold:
                        assert index == len(scanned) - 1  # the scan stops here
                    else:
                        chosen = units
                    candidate //= 2
                if not scanned or scanned[-1][1] <= threshold:
                    assert candidate < lite.params.min_ways
                assert record.active_units[name] == chosen
                decisions += 1
            previous = record.active_units
        assert decisions > 0
