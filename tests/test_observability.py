"""Differential inertness suite for the observability layer.

The observability layer (:mod:`repro.observability`) is only allowed to
exist because it is *provably inert*:

* **disabled** — a simulator given a disabled (or no) hub runs the bare
  code path: ``Observability.resolve`` normalizes both to ``None``, and
  the fast engine's generated drains contain no probe instructions
  (asserted against the compiled source itself);
* **enabled** — every per-boundary state digest and the final
  ``SimulationResult`` are byte-identical to a bare run, across all
  hierarchy organizations and both engines, even while exporting
  Prometheus text *during* the run;
* **sweeps** — a ``metrics=True`` sweep's journal is byte-identical to a
  metrics-off sweep's; telemetry lands only in the
  ``<journal>.metrics.json`` sidecar.

The digest harness is shared with the engine-equivalence suite
(:mod:`tests.fastpath_helpers`).
"""

import json
from functools import partial

import pytest

from repro.analysis.experiments import ExperimentSettings, prepare_run
from repro.core.fastpath import ENGINES, FastEngine
from repro.core.organizations import (
    EXTENDED_CONFIG_NAMES,
    build_organization,
    paging_policy_for,
)
from repro.errors import ObservabilityError
from repro.mem.physical import PhysicalMemory
from repro.mem.process import Process
from repro.mmu.translation import PAGES_PER_2MB
from repro.observability import (
    METRICS_SIDECAR_VERSION,
    FastPathProbe,
    MetricsRegistry,
    Observability,
    SpanRecorder,
    aggregate_cell_metrics,
    merge_snapshots,
    metrics_sidecar_path,
    read_metrics_sidecar,
    render_prometheus,
    render_totals_prometheus,
    write_metrics_sidecar,
)
from repro.resilience.bisect import describe_divergence, record_resumed, record_trail
from repro.resilience.checkpoint import SimulationCheckpointer, first_divergence
from repro.resilience.sweep import run_resilient_sweep
from repro.workloads.tracefile import as_vpn_array
from tests.fastpath_helpers import (
    SETTINGS,
    run_with_digests,
    small_workload,
    streaky_trace,
)


def natural_trace():
    """The workload's own reference stream (config-independent)."""
    return as_vpn_array(prepare_run(small_workload(), "4KB", SETTINGS).trace)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("sim.boundaries")
        counter.inc()
        counter.inc(4)
        assert registry.snapshot()["counters"]["sim.boundaries"] == 5

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("sim.boundaries")
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("run.accesses")
        gauge.set(10)
        gauge.set(3)
        assert registry.snapshot()["gauges"]["run.accesses"] == 3

    def test_registration_is_idempotent_per_kind(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.gauge("a.b")

    @pytest.mark.parametrize(
        "bad", ["", "Sim.x", "sim..x", "1sim.x", "sim.x-y", "sim x"]
    )
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(ObservabilityError, match="invalid metric name"):
            MetricsRegistry().counter(bad)

    def test_scope_prefixes_and_nests(self):
        registry = MetricsRegistry()
        scope = registry.scope("sim").scope("lite")
        scope.counter("resizes").inc()
        assert registry.snapshot()["counters"]["sim.lite.resizes"] == 1

    def test_histogram_buckets_are_cumulative_in_snapshot(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t.seconds", bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 2.0):
            hist.observe(value)
        snap = registry.snapshot()["histograms"]["t.seconds"]
        assert snap["bounds"] == [0.1, 1.0]
        assert snap["buckets"] == [1, 3, 4]  # cumulative, +Inf last
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(3.05)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ObservabilityError, match="ascending"):
            MetricsRegistry().histogram("t.seconds", bounds=(1.0, 0.5))

    def test_merge_snapshots_sums_and_drops_gauges(self):
        a = MetricsRegistry()
        a.counter("c.n").inc(2)
        a.gauge("g.v").set(5)
        a.histogram("h.s", bounds=(1.0,)).observe(0.5)
        total = merge_snapshots({}, a.snapshot())
        total = merge_snapshots(total, a.snapshot())
        assert total["counters"]["c.n"] == 4
        assert "gauges" not in total
        assert total["histograms"]["h.s"]["count"] == 2
        assert total["histograms"]["h.s"]["buckets"] == [2, 2]

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("sim.boundaries").inc(7)
        registry.gauge("run.accesses").set(100)
        hist = registry.histogram("sim.drain_seconds", bounds=(0.1,))
        hist.observe(0.05)
        hist.observe(5.0)
        text = registry.render_prometheus()
        assert "# TYPE repro_sim_boundaries counter\nrepro_sim_boundaries 7" in text
        assert "# TYPE repro_run_accesses gauge\nrepro_run_accesses 100" in text
        assert 'repro_sim_drain_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_sim_drain_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_sim_drain_seconds_count 2" in text
        assert text.endswith("\n")

    def test_render_prometheus_works_on_plain_snapshots(self):
        text = render_prometheus({"counters": {"a.b": 1}}, namespace="x")
        assert text == "# TYPE x_a_b counter\nx_a_b 1\n"


# ----------------------------------------------------------------------
# Span recorder
# ----------------------------------------------------------------------
class TestSpanRecorder:
    def test_begin_end_records_duration_and_depth(self):
        recorder = SpanRecorder()
        outer = recorder.begin("run")
        inner = recorder.begin("measured", phase=2)
        recorder.end(inner)
        recorder.end(outer)
        assert [span.name for span in recorder.events] == ["measured", "run"]
        assert recorder.events[0].depth == 1
        assert recorder.events[1].depth == 0
        assert all(span.duration >= 0.0 for span in recorder.events)
        assert recorder.events[0].attrs == {"phase": 2}

    def test_context_manager_and_instant(self):
        recorder = SpanRecorder()
        with recorder.span("checkpoint", boundary=3):
            recorder.instant("lite.resize", interval=3)
        names = [span.name for span in recorder.events]
        assert names == ["lite.resize", "checkpoint"]
        assert recorder.events[0].duration == 0.0

    def test_max_events_caps_and_counts_drops(self):
        recorder = SpanRecorder(max_events=2)
        for index in range(4):
            recorder.instant("tick", index=index)
        assert len(recorder.events) == 2
        assert recorder.dropped == 2

    def test_chrome_trace_document_shape(self):
        recorder = SpanRecorder()
        with recorder.span("measured", accesses=100):
            pass
        document = recorder.chrome_trace()
        assert document["displayTimeUnit"] == "ms"
        (event,) = document["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "measured"
        assert event["args"] == {"accesses": 100}
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0


# ----------------------------------------------------------------------
# The hub
# ----------------------------------------------------------------------
class TestObservabilityHub:
    def test_resolve_normalizes_disabled_to_none(self):
        assert Observability.resolve(None) is None
        assert Observability.resolve(Observability(enabled=False)) is None
        hub = Observability()
        assert Observability.resolve(hub) is hub

    def test_to_json_carries_version_metrics_and_spans(self):
        hub = Observability()
        hub.registry.counter("a.b").inc()
        with hub.spans.span("run"):
            pass
        document = hub.to_json()
        assert document["metrics_version"] == METRICS_SIDECAR_VERSION
        assert document["metrics"]["counters"] == {"a.b": 1}
        assert [span["name"] for span in document["spans"]] == ["run"]
        assert document["spans_dropped"] == 0


# ----------------------------------------------------------------------
# Compiled-out proof: disabled telemetry is absent from fastpath codegen
# ----------------------------------------------------------------------
class TestCompiledOutCodegen:
    def _hierarchy(self):
        process = Process(PhysicalMemory(1 << 30, seed=0), paging_policy_for("4KB"))
        process.mmap(PAGES_PER_2MB * 2, name="heap")
        return build_organization("4KB", process).hierarchy

    def test_generated_drain_is_the_same_with_and_without_a_probe(self):
        """The engine bumps the probe per drain call, outside generated code."""
        sources = []
        for probe in (None, FastPathProbe()):
            drain = FastEngine(self._hierarchy(), [0], probe=probe)._drain_for_shape()
            assert drain is not None
            sources.append(drain.__repro_source__)
        assert sources[0] == sources[1]
        assert "probe" not in sources[0]

    def test_fast_engine_defaults_to_no_probe(self):
        prepared = prepare_run(small_workload(), "4KB", SETTINGS, engine="fast")
        engine = FastEngine(
            prepared.organization.hierarchy, as_vpn_array(prepared.trace)
        )
        engine.drain(0, 200)
        drain = engine._drain_for_shape()
        assert drain is not None
        assert "probe" not in drain.__repro_source__


# ----------------------------------------------------------------------
# Differential inertness: off / on / on+export, all configs, both engines
# ----------------------------------------------------------------------
class TestInertness:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("config_name", EXTENDED_CONFIG_NAMES)
    def test_digests_identical_off_on_and_exporting(self, config_name, engine):
        """The tentpole guarantee, one (config, engine) cell at a time.

        Three runs over the same trace: bare, hub enabled, and hub
        enabled while rendering Prometheus text at every interval
        boundary.  All three must agree on every per-boundary state
        digest and on the final result.
        """
        trace = natural_trace()
        bare_trail, bare_result = run_with_digests(config_name, trace, engine)

        hub = Observability()
        on_trail, on_result = run_with_digests(
            config_name, trace, engine, observability=hub
        )

        exporting = Observability()
        exports = []
        exp_trail, exp_result = run_with_digests(
            config_name,
            trace,
            engine,
            observability=exporting,
            on_boundary=lambda boundary: exports.append(
                exporting.render_prometheus()
            ),
        )

        for label, trail, result in (
            ("enabled", on_trail, on_result),
            ("enabled+export", exp_trail, exp_result),
        ):
            divergence = first_divergence(bare_trail, trail)
            assert divergence is None, f"{label}: {describe_divergence(divergence)}"
            assert result == bare_result, label

        counters = hub.snapshot()["counters"]
        assert counters["sim.accesses_drained"] == SETTINGS.trace_accesses
        assert counters["sim.boundaries"] == len(on_trail.boundaries)
        assert exports and exports[-1].startswith("# TYPE")
        if engine == "fast":
            assert (
                counters["fastpath.coalesced_accesses"]
                + counters["fastpath.replayed_accesses"]
                == SETTINGS.trace_accesses
            )

    def test_disabled_hub_is_structurally_bare(self):
        prepared = prepare_run(
            small_workload(),
            "4KB",
            SETTINGS,
            observability=Observability(enabled=False),
        )
        assert prepared.simulator.observability is None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_streak_splitting_unperturbed_by_telemetry(self, engine):
        """Mid-streak boundary splits under the hub match the bare run."""
        trace = streaky_trace()
        bare_trail, bare_result = run_with_digests(
            "TLB_Lite", trace, engine, events_at=(3_350,)
        )
        on_trail, on_result = run_with_digests(
            "TLB_Lite",
            trace,
            engine,
            events_at=(3_350,),
            observability=Observability(),
        )
        divergence = first_divergence(bare_trail, on_trail)
        assert divergence is None, describe_divergence(divergence)
        assert on_result == bare_result

    def test_run_gauges_match_result(self):
        hub = Observability()
        trail = record_trail(
            prepare_run(
                small_workload(), "TLB_Lite", SETTINGS, engine="fast", observability=hub
            ),
            observability=hub,
        )
        gauges = hub.snapshot()["gauges"]
        # The result carries every other total, so events_fired is the
        # only run gauge; this run schedules no OS events.
        assert {name for name in gauges if name.startswith("run.")} == {"run.events_fired"}
        assert gauges["run.events_fired"] == 0
        spans = {span.name: span for span in hub.spans.events}
        assert {"run", "fast-forward", "measured"} <= set(spans)
        assert spans["run"].attrs["l1_misses"] == trail.result.l1_misses
        assert spans["run"].attrs["page_walks"] == trail.result.page_walks

    def test_resize_instants_name_their_records(self):
        hub = Observability()
        prepared = prepare_run(small_workload(), "TLB_Lite", SETTINGS, observability=hub)
        prepared.run()
        lite = prepared.organization.lite
        # The configuration before each record: full size, then each record's.
        units = [{tlb.name: tlb.max_units for tlb in lite.tlbs}]
        units += [record.active_units for record in lite.history]
        resized = [
            index for index in range(len(lite.history)) if units[index + 1] != units[index]
        ]
        assert resized
        instants = [span for span in hub.spans.events if span.name == "lite.resize"]
        assert [span.attrs for span in instants] == [{"interval": i} for i in resized]
        counters = hub.snapshot()["counters"]
        assert counters["sim.lite_resizes"] == len(resized)
        assert counters["sim.lite_intervals"] == len(lite.history)


# ----------------------------------------------------------------------
# Kill-and-resume with the hub attached
# ----------------------------------------------------------------------
class TestResumeInertness:
    @pytest.mark.parametrize("config_name", ("TLB_Lite", "Banked"))
    def test_resumed_run_with_hub_matches_fresh_bare(self, config_name, tmp_path):
        hub = Observability()
        fresh = record_trail(prepare_run(small_workload(), config_name, SETTINGS))
        resumed = record_resumed(
            partial(
                prepare_run,
                small_workload(),
                config_name,
                SETTINGS,
                engine="fast",
                observability=hub,
            ),
            4,
            tmp_path / "cell.ckpt",
            observability=hub,
        )
        divergence = first_divergence(fresh.trail, resumed.trail)
        assert divergence is None, describe_divergence(divergence)
        assert resumed.result == fresh.result

    def test_checkpoint_counters_track_boundaries(self):
        hub = Observability()
        prepared = prepare_run(
            small_workload(), "4KB", SETTINGS, observability=hub
        )
        checkpointer = SimulationCheckpointer(
            prepared.simulator, prepared.process, digest_every=1, observability=hub
        )
        prepared.run(checkpoint_hook=checkpointer)
        counters = hub.snapshot()["counters"]
        assert counters["checkpoint.digests"] == checkpointer.boundaries_seen
        assert counters["checkpoint.snapshots"] == 0
        hist = hub.snapshot()["histograms"]["checkpoint.seconds"]
        assert hist["count"] == checkpointer.boundaries_seen


# ----------------------------------------------------------------------
# Sweep integration: journal byte-identity and the metrics sidecar
# ----------------------------------------------------------------------
SWEEP_CONFIGS = ("4KB", "TLB_Lite")


def _journal_body(path):
    """Journal rows minus the header line, order-normalized."""
    return sorted(path.read_text().splitlines()[1:])


class TestSweepMetrics:
    def test_in_process_sweep_journal_is_byte_identical(self, tmp_path):
        on = tmp_path / "on.jsonl"
        off = tmp_path / "off.jsonl"
        report = run_resilient_sweep(
            [small_workload()], SWEEP_CONFIGS, SETTINGS, journal_path=on, metrics=True
        )
        bare = run_resilient_sweep(
            [small_workload()], SWEEP_CONFIGS, SETTINGS, journal_path=off
        )
        assert _journal_body(on) == _journal_body(off)
        assert [cell.row for cell in report.cells] == [
            cell.row for cell in bare.cells
        ]
        assert bare.metrics is None
        assert not metrics_sidecar_path(off).exists()

    def test_sidecar_carries_cells_and_totals(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        report = run_resilient_sweep(
            [small_workload()],
            SWEEP_CONFIGS,
            SETTINGS,
            journal_path=journal,
            metrics=True,
        )
        document = read_metrics_sidecar(metrics_sidecar_path(journal))
        assert document["metrics_version"] == METRICS_SIDECAR_VERSION
        assert sorted(document["cells"]) == [
            f"fastpath|{config}" for config in SWEEP_CONFIGS
        ]
        totals = document["totals"]
        assert totals["counters"]["sim.accesses_drained"] == SETTINGS.trace_accesses * len(
            SWEEP_CONFIGS
        )
        assert report.metrics["totals"] == totals
        assert render_totals_prometheus(document).startswith("# TYPE")

    def test_resumed_sweep_merges_prior_sidecar(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        first = run_resilient_sweep(
            [small_workload()],
            SWEEP_CONFIGS,
            SETTINGS,
            journal_path=journal,
            metrics=True,
            max_cells=1,
        )
        assert first.interrupted
        second = run_resilient_sweep(
            [small_workload()],
            SWEEP_CONFIGS,
            SETTINGS,
            journal_path=journal,
            resume=True,
            metrics=True,
        )
        # The resumed cell never re-ran, so its metrics come from the
        # first run's sidecar; both cells must be present in the merge.
        assert sorted(second.metrics["cells"]) == [
            f"fastpath|{config}" for config in SWEEP_CONFIGS
        ]
        assert second.metrics["totals"]["counters"][
            "sim.accesses_drained"
        ] == SETTINGS.trace_accesses * len(SWEEP_CONFIGS)

    def test_supervised_sweep_reports_worker_metrics(self, tmp_path):
        # Worker processes rebuild their cell from the registry, so this
        # test needs a *registered* workload (not the local fixture).
        from repro.workloads.registry import get_workload

        settings = ExperimentSettings(
            trace_accesses=4_000, seed=7, physical_bytes=4 << 30
        )
        journal = tmp_path / "sup.jsonl"
        report = run_resilient_sweep(
            [get_workload("mcf")],
            SWEEP_CONFIGS,
            settings,
            journal_path=journal,
            workers=1,
            metrics=True,
        )
        assert [cell.status for cell in report.cells] == ["ok", "ok"]
        assert all(cell.metrics is not None for cell in report.cells)
        document = read_metrics_sidecar(metrics_sidecar_path(journal))
        assert document["totals"]["counters"][
            "sim.accesses_drained"
        ] == settings.trace_accesses * len(SWEEP_CONFIGS)

    def test_aggregate_overlays_fresh_over_existing(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        registry = MetricsRegistry()
        registry.counter("c.n").inc(5)
        write_metrics_sidecar(
            journal,
            aggregate_cell_metrics({"wl|A": registry.snapshot()}),
        )
        fresh_registry = MetricsRegistry()
        fresh_registry.counter("c.n").inc(1)
        merged = aggregate_cell_metrics(
            {"wl|B": fresh_registry.snapshot()},
            existing_path=metrics_sidecar_path(journal),
        )
        assert sorted(merged["cells"]) == ["wl|A", "wl|B"]
        assert merged["totals"]["counters"]["c.n"] == 6

    def test_read_sidecar_rejects_missing_and_bad_version(self, tmp_path):
        with pytest.raises(ObservabilityError, match="no metrics sidecar"):
            read_metrics_sidecar(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"metrics_version": 999}))
        with pytest.raises(ObservabilityError, match="version"):
            read_metrics_sidecar(bad)


# ----------------------------------------------------------------------
# CLI: python -m repro metrics / sweep --metrics
# ----------------------------------------------------------------------
class TestMetricsCLI:
    def test_text_table(self, capsys):
        from repro.__main__ import main

        code = main(
            ["metrics", "mcf", "--config", "4KB", "--accesses", "4000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sim.boundaries" in out
        assert "counter" in out

    def test_prometheus_and_json_formats(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                [
                    "metrics",
                    "mcf",
                    "--config",
                    "4KB",
                    "--accesses",
                    "4000",
                    "--format",
                    "prometheus",
                ]
            )
            == 0
        )
        prom = capsys.readouterr().out
        assert prom.startswith("# TYPE repro_")

        assert (
            main(
                [
                    "metrics",
                    "mcf",
                    "--config",
                    "4KB",
                    "--accesses",
                    "4000",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["metrics_version"] == METRICS_SIDECAR_VERSION
        assert "sim.boundaries" in document["metrics"]["counters"]

    def test_chrome_trace_export(self, tmp_path, capsys):
        from repro.__main__ import main

        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "metrics",
                "mcf",
                "--config",
                "4KB",
                "--accesses",
                "4000",
                "--chrome-trace",
                str(trace_path),
            ]
        )
        assert code == 0
        document = json.loads(trace_path.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert {"run", "measured"} <= names

    def test_journal_mode_reads_sidecar(self, tmp_path, capsys):
        from repro.__main__ import main

        journal = tmp_path / "sweep.jsonl"
        run_resilient_sweep(
            [small_workload()],
            SWEEP_CONFIGS,
            SETTINGS,
            journal_path=journal,
            metrics=True,
        )
        capsys.readouterr()
        assert main(["metrics", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "aggregated over 2 cells" in out
        assert "sim.accesses_drained" in out

    def test_requires_workload_or_journal(self, capsys):
        from repro.__main__ import main

        assert main(["metrics"]) == 2
        assert "workload is required" in capsys.readouterr().err

    def test_sweep_metrics_flag_writes_sidecar(self, tmp_path, capsys):
        from repro.__main__ import main

        journal = tmp_path / "sweep.jsonl"
        code = main(
            [
                "sweep",
                "mcf",
                "--accesses",
                "4000",
                "--journal",
                str(journal),
                "--metrics",
                "--workers",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "metrics: 6 cells" in out
        assert metrics_sidecar_path(journal).exists()
