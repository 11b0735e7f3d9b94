"""Differential tests for the streak-coalescing fast engine.

The fast engine (``Simulator(engine="fast")``) is only allowed to exist
because its equivalence to the reference drain loop is *proven*, not
argued:

* every TLB organization produces a byte-identical ``SimulationResult``
  and identical per-component state digests at **every** interval
  boundary (``digest_every=1``) under both engines;
* boundaries that land in the middle of a streak — a scheduled OS
  event, a Lite ``end_interval``, a timeline sample, or a
  ``checkpoint_hook`` call — split the run, and the digests at the
  split are unperturbed;
* a run killed mid-trace under the fast engine resumes from its
  snapshot to the same result and trail as an uninterrupted reference
  run;
* numpy-array and plain-list traces are both accepted and agree.

Divergences, should a change introduce one, are localized with
:mod:`repro.resilience.bisect` — see ``describe_divergence`` for the
component naming.
"""

import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.fastpath_helpers import (
    RUN_LENGTH,
    SETTINGS,
    assert_engines_agree,
    mixed_trace,
    run_with_digests,
    small_workload,
    streaky_trace,
)
from repro.analysis.experiments import prepare_run
from repro.core import fastpath
from repro.core.fastpath import ENGINES, _segment, encode_trace
from repro.core.organizations import CONFIG_NAMES, EXTENDED_CONFIG_NAMES
from repro.errors import SimulationError, TraceError
from repro.observability import Observability
from repro.resilience.bisect import describe_divergence, record_resumed, record_trail
from repro.resilience.checkpoint import first_divergence
from repro.resilience.faults import TRACE_FAULTS, demotion_storm_events
from repro.workloads.patterns import Region, Zipf
from repro.workloads.tracefile import as_vpn_array

#: The configurations built on MixedTLBHierarchy, the mixed template's inputs.
MIXED_CONFIGS = ("TLB_PP", "RMM_PP_Lite")

#: Every configuration that drains through a generated template.
TEMPLATE_CONFIGS = ("4KB", "THP", "TLB_Lite", "RMM", "RMM_Lite", *MIXED_CONFIGS)


# ----------------------------------------------------------------------
# Trace preprocessing
# ----------------------------------------------------------------------
class TestEncodeTrace:
    def test_runs_become_sentinels(self):
        tokens, cum = encode_trace([5, 5, 5, 9, 7, 7])
        assert tokens.tolist() == [5, -2, 9, 7, -1]
        assert cum.tolist() == [0, 1, 3, 4, 5, 6]

    def test_singletons_carry_no_sentinel(self):
        tokens, cum = encode_trace([3, 1, 4, 1])
        assert tokens.tolist() == [3, 1, 4, 1]
        assert cum.tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "trace, tokens, cum",
        [([7], [7], [0, 1]), ([4] * 10, [4, -9], [0, 1, 10])],
        ids=("one-access", "one-run"),
    )
    def test_a_single_run(self, trace, tokens, cum):
        encoded_tokens, encoded_cum = encode_trace(trace)
        assert encoded_tokens.tolist() == tokens
        assert encoded_cum.tolist() == cum

    def test_peak_stays_near_the_output(self):
        """The encode keeps few intermediates alive at once: its traced
        peak stays within 1.5 times the bytes it returns."""
        trace = Zipf(Region(0, 512), alpha=1.0, burst=8).generate(
            np.random.default_rng(1), 200_000
        )
        tracemalloc.start()
        try:
            tokens, cum = encode_trace(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (tokens.nbytes + cum.nbytes)

    @pytest.mark.parametrize("trace", ([2, 2, 8], []), ids=("runs", "empty"))
    def test_arrays_are_read_only_int64(self, trace):
        """The cells of a matrix share the encoding: a write must raise."""
        tokens, cum = encode_trace(np.array(trace, dtype=np.int64))
        assert len(cum) == len(tokens) + 1
        for array in (tokens, cum):
            assert array.dtype == np.int64
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        pages = rng.integers(0, 20, size=500)
        pages = np.repeat(pages, rng.integers(1, 6, size=500))[:700]
        tokens, cum = encode_trace(pages)
        decoded = []
        for token in tokens:
            if token < 0:
                decoded.extend([decoded[-1]] * -token)
            else:
                decoded.append(token)
        assert decoded == pages.tolist()
        assert cum[-1] == len(pages)

    def test_as_vpn_array_rejects_2d(self):
        with pytest.raises(TraceError):
            as_vpn_array(np.zeros((2, 2), dtype=np.int64))


class TestSegmentCut:
    """The tokens one drain walks, cut from the encoding alone."""

    @settings(max_examples=200, deadline=None)
    @given(
        runs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 6)), min_size=1, max_size=30),
        cuts=st.lists(st.integers(0, 10**6), max_size=10),
    )
    def test_segments_expand_to_the_trace(self, runs, cuts):
        """Each segment begins on a page and expands to its slice.

        Expanding reads a page as one access and a sentinel ``-n`` as
        ``n`` more of the page before it.
        """
        trace = [page for page, length in runs for _ in range(length)]
        tokens, cum = encode_trace(trace)
        bounds = sorted({0, len(trace), *(cut % len(trace) for cut in cuts)})
        for start, stop in zip(bounds, bounds[1:]):
            segment = _segment(tokens, cum, start, stop, int(cum.searchsorted(stop)))
            assert segment[0] >= 0
            assert all(type(token) is int for token in segment)
            expanded = []
            for token in segment:
                if token >= 0:
                    expanded.append(token)
                else:
                    expanded.extend([expanded[-1]] * -token)
            assert expanded == trace[start:stop]


class TestSharedEncoding:
    """The shared trace is encoded once; any other trace afresh."""

    @staticmethod
    def count_encodes(monkeypatch) -> list:
        calls = []

        def counted(trace):
            calls.append(len(trace))
            return encode_trace(trace)

        monkeypatch.setattr(fastpath, "encode_trace", counted)
        return calls

    def test_one_encode_per_shared_trace(self, monkeypatch):
        calls = self.count_encodes(monkeypatch)
        workload = small_workload()
        for seed, encodes in ((SETTINGS.seed, 1), (SETTINGS.seed + 1, 2)):
            settings = replace(SETTINGS, seed=seed)
            for config_name in CONFIG_NAMES:
                prepare_run(workload, config_name, settings, engine="fast").run()
            assert len(calls) == encodes

    def test_a_writable_copy_is_encoded_on_every_run(self, monkeypatch):
        calls = self.count_encodes(monkeypatch)
        workload = small_workload()
        results = []
        for engine in ("fast", "fast", "reference"):
            prepared = prepare_run(workload, "4KB", SETTINGS, engine=engine)
            prepared.trace = TRACE_FAULTS["duplicate_burst"](prepared.trace, seed=1)
            results.append(prepared.run())
        assert len(calls) == 2
        assert results[0] == results[1] == results[2]

    def test_the_next_trace_gets_its_own_encoding(self):
        workload = small_workload()
        first = prepare_run(workload, "4KB", SETTINGS, engine="fast").run()
        other = replace(SETTINGS, seed=SETTINGS.seed + 1)
        fast = prepare_run(workload, "4KB", other, engine="fast").run()
        reference = prepare_run(workload, "4KB", other).run()
        assert fast == reference != first


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_engine_names(self):
        assert ENGINES == ("reference", "fast")

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError, match="engine"):
            prepare_run(small_workload(), "4KB", SETTINGS, engine="warp")

    def test_prepare_run_threads_engine(self):
        prepared = prepare_run(small_workload(), "4KB", SETTINGS, engine="fast")
        assert prepared.simulator.engine == "fast"


class TestTemplateDispatch:
    """Which hierarchies get a generated drain, read from probe counts."""

    @staticmethod
    def fastpath_counters(config_name):
        hub = Observability()
        prepare_run(
            small_workload(), config_name, SETTINGS, engine="fast", observability=hub
        ).run()
        return {
            name.removeprefix("fastpath."): value
            for name, value in hub.snapshot()["counters"].items()
            if name.startswith("fastpath.")
        }

    @pytest.mark.parametrize("config_name", MIXED_CONFIGS)
    def test_mixed_hierarchies_drain_generated(self, config_name):
        counters = self.fastpath_counters(config_name)
        assert counters["fallback_spans"] == 0
        assert counters["generated_drains"] >= 1

    @pytest.mark.parametrize("config_name", ("TLB_Pred", "L0_Filter"))
    def test_subclasses_keep_the_pass_through(self, config_name):
        """Dispatch is on the exact type: subclasses override ``access``."""
        counters = self.fastpath_counters(config_name)
        assert counters["fallback_spans"] > 0
        assert counters["generated_drains"] == 0


# ----------------------------------------------------------------------
# Differential equivalence: every organization, every boundary
# ----------------------------------------------------------------------
class TestDifferentialEquivalence:
    @pytest.mark.parametrize("config_name", EXTENDED_CONFIG_NAMES)
    def test_results_and_digests_identical(self, config_name):
        """Byte-identical result + per-boundary digests for each config."""
        reference = record_trail(prepare_run(small_workload(), config_name, SETTINGS))
        fast = record_trail(
            prepare_run(small_workload(), config_name, SETTINGS, engine="fast")
        )
        divergence = first_divergence(reference.trail, fast.trail)
        assert divergence is None, describe_divergence(divergence)
        assert fast.boundaries == reference.boundaries
        assert fast.result == reference.result


# ----------------------------------------------------------------------
# Boundary splitting: streaks must split at every boundary kind
# ----------------------------------------------------------------------
class TestStreakSplitting:
    def test_timeline_sample_splits_streak(self):
        """Timeline samples land mid-run (108 % 40 != 0) on 4KB."""
        assert_engines_agree("4KB", streaky_trace())

    def test_lite_interval_splits_streak(self):
        """Lite end_interval fires at access 3333 — mid-run — on TLB_Lite."""
        assert_engines_agree("TLB_Lite", streaky_trace())

    def test_range_hierarchy_splits_streak(self):
        """RMM_Lite: range TLBs + Lite resizing over the same streaks."""
        assert_engines_agree("RMM_Lite", streaky_trace())

    def test_event_mid_streak_splits_and_flushes(self):
        """A TLB flush scheduled mid-run must see (and leave) exact state."""
        # 2_020 = 50 * RUN_LENGTH + 20: the event lands mid-streak; the
        # second one lands mid-streak in the measured phase.
        assert_engines_agree("THP", streaky_trace(), events_at=(2_020, 4_444))

    def test_checkpoint_hook_mid_streak(self):
        """digest_every=1 checkpoints observe unperturbed pending counts.

        Every boundary of the streaky runs above is a checkpoint_hook
        call; this case pins the composition — events *and* Lite
        intervals *and* samples all splitting the same streak stream.
        """
        assert_engines_agree("TLB_Lite", streaky_trace(), events_at=(3_350,))

    @pytest.mark.parametrize("trace", (streaky_trace, mixed_trace), ids=("streaky", "mixed"))
    @pytest.mark.parametrize(
        "events_at",
        ((), (2_020, 4_444), (3_350,)),
        ids=("samples-intervals", "flushes", "flush-at-interval"),
    )
    @pytest.mark.parametrize("config_name", MIXED_CONFIGS)
    def test_mixed_hierarchy_splits_streak(self, config_name, events_at, trace):
        """The cases above, on the mixed template.

        Timeline samples split both configurations' streaks, and Lite
        intervals RMM_PP_Lite's; the flushes land mid-streak and, under
        RMM_PP_Lite, empty the range TLBs so that range fills and 4 KB
        synthesis recur.  The mixed trace adds 4 KB keys and L1 misses.
        """
        assert_engines_agree(config_name, trace(), events_at=events_at)

    @pytest.mark.parametrize(
        "trace, seed", ((streaky_trace, 4), (mixed_trace, 3)), ids=("streaky", "mixed")
    )
    @pytest.mark.parametrize("config_name", MIXED_CONFIGS)
    def test_demotion_storm_mid_streak_rekeys_the_run(self, config_name, trace, seed):
        """A demotion storm mid-streak changes the split run's key.

        Each seed's two storms fire mid-run and take the huge chunks from
        3 to 1, and at least one demotes the chunk of the run it splits:
        that run probes a 2 MB key before the storm and a 4 KB key after
        it.  The mixed trace then revisits demoted pages, whose new 4 KB
        entries a drain holding the old huge set would miss.
        """
        trace = trace()
        rekeyed = []

        def huge_chunks(process):
            return {leaf.vpn >> 9 for leaf in process.page_table.huge_leaves()}

        def storms(process):
            def watched(position, storm):
                def fire(organization):
                    before = huge_chunks(process)
                    storm(organization)
                    rekeyed.append(int(trace[position]) >> 9 in before - huge_chunks(process))

                return fire

            events = demotion_storm_events(process, len(trace), storms=2, seed=seed)
            assert all(trace[position - 1] == trace[position] for position, _ in events)
            assert len(huge_chunks(process)) == 3
            return [(position, watched(position, storm)) for position, storm in events]

        assert_engines_agree(config_name, trace, make_events=storms)
        assert len(rekeyed) == 4 and any(rekeyed[:2]) and any(rekeyed[2:])

    def test_range_synthesis_refills_a_resident_key(self):
        """RMM_PP_Lite synthesises ``vpn << 1`` for a 2 MB-mapped page twice.

        Page ``b`` lies in a huge chunk that is never walked, so every L1
        miss on it that the L1-range TLB cannot serve goes to the L2-range
        TLB and synthesises the 4 KB entry ``b << 1`` into L1-mixed.
        Emptying the L1-range TLB between two runs of ``b`` makes the
        second synthesis land on the entry the first one left, which
        ``fill`` must refresh rather than duplicate.
        """
        heap = small_workload().regions()["heap"]
        a, b = heap.start_vpn, heap.start_vpn + 512 + 5
        trace = np.repeat(np.array([a, b] * (SETTINGS.trace_accesses // 20)), 10)

        def empty_l1_range(process):
            def flush(organization):
                organization.hierarchy.l1_range.flush()

            return [(position, flush) for position in range(20, len(trace), 20)]

        assert_engines_agree("RMM_PP_Lite", trace, make_events=empty_l1_range)

    @pytest.mark.parametrize("position", (41, 45))
    def test_demotion_inside_a_run_rekeys_it_to_a_stale_entry(self, position):
        """A run re-keyed mid-run resumes with one full access.

        RMM_PP_Lite.  ``b``'s first run misses L1 and synthesises the 4 KB
        entry ``b << 1`` from the L2-range TLB; ``s1`` and ``s2`` share
        its L1-mixed set and push it to rank 2, and the L1-range TLB
        serves ``b``'s second run (accesses 40-79).  Demoting ``b``'s
        chunk inside that run re-keys it to ``b << 1``: the full access
        after the boundary hits it at rank 2 and promotes it, where the
        repeat handler would count L1-mixed misses.  At 41 the boundary
        falls right after the run's first access.
        """
        regions = small_workload().regions()
        heap, stack = regions["heap"], regions["stack"]
        a, b = heap.start_vpn, heap.start_vpn + 512 + 5
        stack_pages = range(stack.start_vpn, stack.start_vpn + stack.num_pages)
        s1, s2 = [vpn for vpn in stack_pages if vpn % 8 == b % 8][:2]
        head = [a] * 10 + [b] * 10 + [s1] * 10 + [s2] * 10 + [b] * 40
        trace = np.array(head + [a] * (SETTINGS.trace_accesses - len(head)))

        def demote_b(process):
            def fire(organization):
                leaf = process.break_huge_page(b)
                organization.hierarchy.shootdown_huge_page(leaf.vpn)

            return [(position, fire)]

        assert_engines_agree("RMM_PP_Lite", trace, make_events=demote_b)

    @pytest.mark.parametrize("trace", (streaky_trace, mixed_trace), ids=("streaky", "mixed"))
    @pytest.mark.parametrize("config_name", TEMPLATE_CONFIGS)
    def test_a_split_costs_no_reference_replay(self, config_name, trace):
        """Samples, interval ends and two flushes split runs; each resumes
        in a generated drain, so no access replays through ``access``."""
        hub = Observability()
        run_with_digests(
            config_name, trace(), "fast", events_at=(2_020, 4_444), observability=hub
        )
        counters = hub.snapshot()["counters"]
        assert counters["fastpath.replayed_accesses"] == 0
        assert counters["fastpath.coalesced_accesses"] == SETTINGS.trace_accesses


# ----------------------------------------------------------------------
# Kill-and-resume under the fast engine
# ----------------------------------------------------------------------
class TestResumeDeterminism:
    @pytest.mark.parametrize(
        "config_name",
        ("4KB", "TLB_Lite", "RMM_Lite", "FA_Lite", "Banked", *MIXED_CONFIGS),
    )
    def test_fast_resumed_matches_fresh_reference(self, config_name, tmp_path):
        fresh = record_trail(prepare_run(small_workload(), config_name, SETTINGS))
        resumed = record_resumed(
            partial(prepare_run, small_workload(), config_name, SETTINGS, engine="fast"),
            4,
            tmp_path / "cell.ckpt",
        )
        divergence = first_divergence(fresh.trail, resumed.trail)
        assert divergence is None, describe_divergence(divergence)
        assert resumed.result == fresh.result

    def test_resume_inside_a_streak(self, tmp_path):
        """The resumed engine's first drain starts inside a run.

        The fourth boundary, a timeline sample at access 924, lands 4
        accesses into a streak.  A flush there empties the TLBs, so the
        run's resumed full access walks and fills: its page must reach
        them as a Python int, or the next state digest fails.
        """
        assert 924 % RUN_LENGTH

        def prepare(engine):
            prepared = prepare_run(small_workload(), "4KB", SETTINGS, engine=engine)
            prepared.trace = streaky_trace()
            prepared.events = [(924, lambda org: org.hierarchy.flush_tlbs())]
            return prepared

        fresh = record_trail(prepare("reference"))
        resumed = record_resumed(partial(prepare, "fast"), 4, tmp_path / "cell.ckpt")
        divergence = first_divergence(fresh.trail, resumed.trail)
        assert divergence is None, describe_divergence(divergence)
        assert resumed.result == fresh.result


# ----------------------------------------------------------------------
# Trace input types and the tolerant fallback
# ----------------------------------------------------------------------
class TestTraceInputs:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_list_and_array_traces_agree(self, engine):
        prepared = prepare_run(small_workload(), "4KB", SETTINGS, engine=engine)
        array_trace = as_vpn_array(prepared.trace)

        as_array = prepare_run(small_workload(), "4KB", SETTINGS, engine=engine)
        as_array.trace = array_trace
        as_list = prepare_run(small_workload(), "4KB", SETTINGS, engine=engine)
        as_list.trace = array_trace.tolist()
        assert as_array.run() == as_list.run()

    def test_tolerant_mode_falls_back_to_reference_loop(self):
        """engine="fast" + on_fault="record" must still record faults."""
        results = []
        for engine in ENGINES:
            prepared = prepare_run(
                small_workload(), "4KB", SETTINGS, on_fault="record", engine=engine
            )
            trace = as_vpn_array(prepared.trace).copy()
            trace[4_000] = -7  # unmappable: PageFault in the access path
            prepared.trace = trace
            results.append(prepared.run())
        reference, fast = results
        assert reference.faulted_accesses == 1
        assert reference.fault_records[0].vpn == -7
        assert fast == reference

    def test_tolerant_mode_never_constructs_fast_engine(self, monkeypatch):
        """The fallback is structural: FastEngine is not even built."""
        from repro.core.fastpath import FastEngine

        def explode(self, hierarchy, trace):
            raise AssertionError("FastEngine constructed in tolerant mode")

        monkeypatch.setattr(FastEngine, "__init__", explode)
        prepared = prepare_run(
            small_workload(), "4KB", SETTINGS, on_fault="record", engine="fast"
        )
        trace = as_vpn_array(prepared.trace).copy()
        trace[4_000] = -7
        prepared.trace = trace
        result = prepared.run()
        assert result.faulted_accesses == 1
