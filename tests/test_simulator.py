"""Tests for the trace-driven simulator: windows, intervals, accounting."""

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentSettings, prepare_run
from repro.core.organizations import build_thp, build_tlb_lite
from repro.core.params import LiteParams, SimulationParams
from repro.core.simulator import MAX_FAULT_RECORDS, Simulator
from repro.mem.paging import TransparentHugePaging
from repro.mem.physical import PhysicalMemory
from repro.mem.process import Process
from repro.mmu.page_table import PageFault
from repro.mmu.translation import PAGES_PER_2MB
from repro.resilience.bisect import record_trail
from repro.workloads.registry import get_workload


def make_process():
    process = Process(PhysicalMemory(1 << 30, seed=3), TransparentHugePaging())
    process.mmap(PAGES_PER_2MB * 4, name="heap")
    process.mmap(256, name="stack", thp_eligible=False)
    return process


def make_trace(process, n=3000, seed=0):
    generator = np.random.default_rng(seed)
    vmas = list(process.address_space)
    heap, stack = vmas[0], vmas[1]
    pages = np.where(
        generator.random(n) < 0.5,
        heap.start_vpn + generator.integers(heap.num_pages, size=n),
        stack.start_vpn + generator.integers(64, size=n),
    )
    return pages.astype(np.int64)


class TestRun:
    def test_accounting_consistency(self):
        process = make_process()
        sim = Simulator(build_thp(process), instructions_per_access=3.0)
        result = sim.run(make_trace(process), fast_forward_accesses=500)
        assert result.accesses == 2500
        assert result.instructions == 7500
        assert result.l1_misses >= result.l2_misses
        assert result.page_walks == result.l2_misses
        assert result.cycles.l1_miss_cycles == result.l1_misses * 7
        assert result.cycles.l2_miss_cycles == result.l2_misses * 50

    def test_deterministic(self):
        outcomes = []
        for _ in range(2):
            process = make_process()
            sim = Simulator(build_thp(process), instructions_per_access=3.0)
            result = sim.run(make_trace(process))
            outcomes.append((result.l1_misses, result.l2_misses, result.total_energy_pj))
        assert outcomes[0] == outcomes[1]

    def test_fast_forward_excluded_from_stats(self):
        process = make_process()
        trace = make_trace(process)
        sim = Simulator(build_thp(process))
        result = sim.run(trace, fast_forward_accesses=1000)
        assert result.accesses == len(trace) - 1000
        # Warmed structures -> fewer cold walks than a cold run measures.
        cold_process = make_process()
        cold = Simulator(build_thp(cold_process)).run(
            make_trace(cold_process), fast_forward_accesses=0
        )
        assert result.l2_misses <= cold.l2_misses

    def test_empty_trace_rejected(self):
        process = make_process()
        sim = Simulator(build_thp(process))
        with pytest.raises(ValueError):
            sim.run([])

    def test_fast_forward_must_leave_measurement(self):
        process = make_process()
        sim = Simulator(build_thp(process))
        with pytest.raises(ValueError):
            sim.run([1, 2, 3], fast_forward_accesses=3)

    def test_invalid_ipa(self):
        with pytest.raises(ValueError):
            Simulator(build_thp(make_process()), instructions_per_access=0)

    def test_accepts_plain_lists(self):
        process = make_process()
        vma = next(iter(process.address_space))
        sim = Simulator(build_thp(process))
        result = sim.run([vma.start_vpn] * 100, fast_forward_accesses=0)
        assert result.accesses == 100
        assert result.l1_misses == 1

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("config", ["4KB", "Banked"])
    def test_list_of_numpy_ints_runs_as_its_array(self, config, engine):
        """Components get Python ints from a list trace too, so digests stay
        pure JSON; Banked has no fast template, so both engines replay it."""
        runs = []
        for as_list in (False, True):
            prepared = prepare_run(
                get_workload("povray"), config, ExperimentSettings(trace_accesses=3000),
                engine=engine,
            )
            if as_list:
                prepared.trace = list(prepared.trace)
            runs.append(record_trail(prepared))
        assert runs[1].trail == runs[0].trail
        assert runs[1].result == runs[0].result


class TestTimeline:
    def test_window_count(self):
        process = make_process()
        sim = Simulator(
            build_thp(process), sim_params=SimulationParams(timeline_windows=10)
        )
        result = sim.run(make_trace(process), fast_forward_accesses=0)
        assert len(result.timeline) == 10

    def test_timeline_mpki_reconciles_with_total(self):
        process = make_process()
        sim = Simulator(
            build_thp(process),
            instructions_per_access=2.0,
            sim_params=SimulationParams(timeline_windows=5),
        )
        result = sim.run(make_trace(process, 3000), fast_forward_accesses=0)
        window_instr = (3000 // 5) * 2
        total_from_windows = sum(s.l1_mpki * window_instr / 1000 for s in result.timeline)
        assert total_from_windows == pytest.approx(result.l1_misses, abs=1)

    def test_timeline_instructions_monotone(self):
        process = make_process()
        sim = Simulator(build_thp(process), sim_params=SimulationParams(timeline_windows=7))
        result = sim.run(make_trace(process), fast_forward_accesses=0)
        marks = [sample.instructions for sample in result.timeline]
        assert marks == sorted(marks)


class TestLiteIntegration:
    def test_intervals_fire(self):
        process = make_process()
        lite_params = LiteParams(interval_instructions=600, reactivate_probability=0.0)
        org = build_tlb_lite(process, lite_params=lite_params)
        sim = Simulator(org, instructions_per_access=3.0)
        result = sim.run(make_trace(process, 4000), fast_forward_accesses=1000)
        # 3000 measured accesses * 3 ipa / 600 instr = 15 intervals.
        assert result.lite_intervals == 15

    def test_lite_runs_during_fast_forward_too(self):
        process = make_process()
        lite_params = LiteParams(interval_instructions=600, reactivate_probability=0.0)
        org = build_tlb_lite(process, lite_params=lite_params)
        sim = Simulator(org, instructions_per_access=3.0)
        sim.run(make_trace(process, 4000), fast_forward_accesses=1000)
        assert len(org.lite.history) == 20

    def test_history_carries_active_units(self):
        process = make_process()
        lite_params = LiteParams(interval_instructions=600, reactivate_probability=0.0)
        org = build_tlb_lite(process, lite_params=lite_params)
        sim = Simulator(org, sim_params=SimulationParams(timeline_windows=4))
        sim.run(make_trace(process, 4000))
        for record in org.lite.history:
            assert set(record.active_units) == {"L1-4KB", "L1-2MB", "L1-1GB"}
        # 4000 accesses * 3 ipa / 600 instructions = 20 intervals.
        assert [record.instructions_seen for record in org.lite.history] == [
            600 * (index + 1) for index in range(20)
        ]

    def test_fast_forward_edge_keeps_distance_counters(self):
        """The edge restarts Lite's interval grid and zeroes the miss
        baseline but keeps the distance counters: no interval ends in
        povray's 2,000 fast-forward accesses, so the first measured
        decision weighs misses since the edge against hits since access 0.
        """
        settings = ExperimentSettings(trace_accesses=20_000)
        prepared = prepare_run(get_workload("povray"), "TLB_Lite", settings)
        lite = prepared.organization.lite
        hierarchy = prepared.organization.hierarchy
        seen = {}

        def hook(loop_state):
            if loop_state["pos"] == loop_state["fast_forward_accesses"]:
                seen["edge"] = (len(lite.history), lite.counters["L1-4KB"].state_dict())
            if len(lite.history) == 1 and "misses" not in seen:
                seen["misses"] = hierarchy.l1_misses

        prepared.run(checkpoint_hook=hook)
        records, counters = seen["edge"]
        assert (records, counters) == (0, [473, 4, 1])
        first = lite.history[0]
        assert first.actual_mpki == seen["misses"] * 1000.0 / first.instructions_seen
        assert first.action == "decide"
        for units, predicted in first.predicted_mpki["L1-4KB"]:
            extra = (predicted - first.actual_mpki) * first.instructions_seen / 1000
            assert round(extra) >= sum(counters[units.bit_length() :])

    def test_way_histogram_reflects_downsizing(self):
        """A trivially cacheable trace lets Lite shrink to 1 way."""
        process = make_process()
        vma = next(iter(process.address_space))
        trace = [vma.start_vpn] * 20_000
        lite_params = LiteParams(interval_instructions=300, reactivate_probability=0.0)
        org = build_tlb_lite(process, lite_params=lite_params)
        result = Simulator(org, instructions_per_access=3.0).run(
            trace, fast_forward_accesses=2000
        )
        shares = result.way_lookup_shares("L1-4KB")
        assert shares.get(1, 0) > 0.9


#: Faulting positions in a 20k-access povray run (fast-forward 2,000,
#: timeline window 360): the first access, both sides of the fast-forward
#: edge, both sides of the first measured sample (2,360), the last access,
#: and a block of 400 that overflows the record limit.
FAULT_POSITIONS = (0, 1999, 2000, 2001, 2359, 2360, 19_999, *range(6000, 6400))


class TestFaultRecording:
    """The reference loop serves both fault modes."""

    @staticmethod
    def faulty_run(config, on_fault):
        settings = ExperimentSettings(trace_accesses=20_000)
        prepared = prepare_run(get_workload("povray"), config, settings, on_fault=on_fault)
        trace = prepared.trace.copy()
        positions = np.array(FAULT_POSITIONS)
        trace[positions] = -(positions + 1)  # unmappable, and names its position
        prepared.trace = trace
        return prepared

    @pytest.mark.parametrize("config", ["4KB", "TLB_Lite", "RMM_Lite"])
    def test_one_loop_records_or_raises(self, config):
        result = self.faulty_run(config, "record").run()
        assert result.faulted_accesses == len(FAULT_POSITIONS)
        recorded = sorted(FAULT_POSITIONS)[:MAX_FAULT_RECORDS]
        assert [(r.index, r.vpn, r.error) for r in result.fault_records] == [
            (index, -(index + 1), "PageFault") for index in recorded
        ]
        with pytest.raises(PageFault):
            self.faulty_run(config, "raise").run()


def boundary_schedule(total, ff, window, interval, events):
    """``(phase, pos, boundary)`` of every boundary, by arithmetic alone.

    Fast-forward (only when ``ff > 0``) stops at each Lite interval end
    before ``ff``, at each event in ``[1, ff)``, and at ``ff``; the
    measured phase stops at each sample and interval end counted from
    ``ff``, at each event in ``(ff, total]``, and at ``total``.  An event
    at 0 fires before the loop; boundaries count from 1.
    """
    fast_forward = set()
    if ff > 0:
        fast_forward = {pos for pos in events if 1 <= pos < ff} | {ff}
        if interval:
            fast_forward |= set(range(interval, ff, interval))
    measured = set(range(ff + window, total + 1, window))
    measured |= {pos for pos in events if ff < pos <= total} | {total}
    if interval:
        measured |= set(range(ff + interval, total + 1, interval))
    stops = [("fast-forward", pos) for pos in sorted(fast_forward)]
    stops += [("measured", pos) for pos in sorted(measured)]
    return [(phase, pos, n) for n, (phase, pos) in enumerate(stops, start=1)]


class TestBoundarySchedule:
    TOTAL = 30_000
    EVENTS = (0, 1, 1500, 3000, 17017, 29999, 30000, 40000)

    @pytest.mark.parametrize("config", ["4KB", "TLB_Lite", "RMM_Lite"])
    def test_hook_fires_on_the_arithmetic_schedule(self, config):
        settings = ExperimentSettings(trace_accesses=self.TOTAL, seed=1)
        prepared = prepare_run(get_workload("povray"), config, settings, engine="fast")
        simulator = prepared.simulator
        lite = prepared.organization.lite
        interval = (
            max(1, round(lite.params.interval_instructions / simulator.instructions_per_access))
            if lite is not None
            else None
        )
        default_ff = int(self.TOTAL * simulator.sim_params.fast_forward_fraction)
        for ff in (default_ff, 0, 2999, 3001):
            window = max(1, (self.TOTAL - ff) // simulator.sim_params.timeline_windows)
            for events in ((), (0,), self.EVENTS):
                seen = []
                simulator.run(
                    prepared.trace,
                    fast_forward_accesses=ff,
                    events=[(pos, lambda _organization: None) for pos in events],
                    checkpoint_hook=lambda state: seen.append(
                        (state["phase"], state["pos"], state["boundary"])
                    ),
                )
                expected = boundary_schedule(self.TOTAL, ff, window, interval, events)
                assert seen == expected, (ff, events)


class TestResultHelpers:
    def test_hit_shares_sum_to_one(self):
        process = make_process()
        sim = Simulator(build_thp(process))
        result = sim.run(make_trace(process))
        shares = result.hit_shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_summary_line_contains_key_fields(self):
        process = make_process()
        result = Simulator(build_thp(process), workload_name="toy").run(
            make_trace(process)
        )
        line = result.summary_line()
        assert "THP" in line and "toy" in line
