"""The observability hub and the hooks threaded through the pipeline.

:class:`Observability` bundles one :class:`~.registry.MetricsRegistry`
and one :class:`~.spans.SpanRecorder` behind a single ``enabled`` flag.
The zero-cost contract rests on one normalization rule:

    ``Observability.resolve(obs)`` returns ``None`` unless ``obs`` is an
    *enabled* hub.

Every instrumented component stores the resolved value and branches on
``is None`` — so a disabled hub is structurally indistinguishable from
no hub at all: the bare code path runs and no telemetry object is ever
consulted.  The fastpath's generated drains hold no probe code either
way: :mod:`repro.core.fastpath`'s engine bumps a :class:`FastPathProbe`
once per drain call, outside them.

:class:`SimulatorInstrumentation` is the per-run helper
``Simulator.run`` builds when a resolved hub is present: it owns the
run/phase spans, the boundary-granular counters, and (for the fast
engine) the engine's probe, and publishes end-of-run gauges in
:meth:`~SimulatorInstrumentation.finish`.  It reads simulator state but
never writes it — the inertness guarantee (enabled runs are
digest-identical to bare runs) is enforced by the differential suite in
``tests/test_observability.py`` and fuzz oracle #5.

The sidecar helpers at the bottom give sweep metrics a durable home
*next to* the journal (``<journal>.metrics.json``, mirroring the
``CrashLedger`` pattern) so journals stay byte-identical with metrics on
or off.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

from ..errors import ObservabilityError
from ..ioutils import atomic_write_json
from .registry import MetricsRegistry, merge_snapshots, render_prometheus
from .spans import Span, SpanRecorder

__all__ = [
    "METRICS_SIDECAR_VERSION",
    "FastPathProbe",
    "Observability",
    "SimulatorInstrumentation",
    "aggregate_cell_metrics",
    "metrics_sidecar_path",
    "read_metrics_sidecar",
    "write_metrics_sidecar",
]

#: Schema version of the ``<journal>.metrics.json`` sweep sidecar.
METRICS_SIDECAR_VERSION = 1


class FastPathProbe:
    """Plain counters the fast engine bumps per drained segment.

    Handed to :class:`repro.core.fastpath.FastEngine` only when
    telemetry is enabled.  The engine bumps it once per generated-drain
    call (never per access), outside the generated code, so the drains
    compiled with and without a probe are the same source.
    """

    __slots__ = (
        "coalesced_accesses",
        "replayed_accesses",
        "drained_segments",
        "fallback_spans",
        "generated_drains",
    )

    def __init__(self) -> None:
        self.coalesced_accesses = 0
        self.replayed_accesses = 0
        self.drained_segments = 0
        self.fallback_spans = 0
        self.generated_drains = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Observability:
    """One metrics registry + one span recorder behind an enabled flag."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder()

    @staticmethod
    def resolve(observability: "Observability | None") -> "Observability | None":
        """Normalize "no hub" and "disabled hub" to the same ``None``.

        This is what makes disabled telemetry structurally zero-cost:
        instrumented components keep only the resolved value, so their
        disabled code path is the bare code path.
        """
        if observability is None or not observability.enabled:
            return None
        return observability

    # -- exports ---------------------------------------------------------
    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def to_json(self) -> dict:
        return {
            "metrics_version": METRICS_SIDECAR_VERSION,
            "metrics": self.registry.snapshot(),
            "spans": self.spans.to_json(),
            "spans_dropped": self.spans.dropped,
        }

    def render_prometheus(self, namespace: str = "repro") -> str:
        return self.registry.render_prometheus(namespace=namespace)

    def write_chrome_trace(self, path) -> Path:
        return atomic_write_json(path, self.spans.chrome_trace())


class SimulatorInstrumentation:
    """Per-run boundary-granular instrumentation for ``Simulator.run``.

    Built only when a resolved (enabled) hub is present.  ``Simulator.run``
    applies it once, before its loop, by wrapping ``drain`` and
    ``lite.end_interval``, so the loop itself never asks whether a hub
    is present.  All counters move at boundary granularity
    — one bump per drain segment, Lite interval, or timeline sample —
    never per access.
    """

    __slots__ = (
        "obs",
        "probe",
        "boundaries",
        "drained",
        "drain_seconds",
        "lite_intervals",
        "lite_resizes",
        "samples",
        "run_span",
        "phase_span",
        "_run_scope",
    )

    def __init__(
        self,
        obs: Observability,
        *,
        workload: str,
        configuration: str,
        engine: str,
        total: int,
        fast_engine: bool,
    ) -> None:
        self.obs = obs
        sim = obs.registry.scope("sim")
        self.boundaries = sim.counter(
            "boundaries", "drain-loop boundaries crossed (intervals/samples/events)"
        )
        self.drained = sim.counter("accesses_drained", "accesses pushed through drain()")
        self.drain_seconds = sim.histogram(
            "drain_seconds", "wall time per drain segment"
        )
        self.lite_intervals = sim.counter(
            "lite_intervals", "Lite end_interval decisions taken"
        )
        self.lite_resizes = sim.counter(
            "lite_resizes", "Lite intervals that changed the active configuration"
        )
        self.samples = sim.counter("timeline_samples", "timeline samples recorded")
        self.probe = FastPathProbe() if fast_engine else None
        self._run_scope = obs.registry.scope("run")
        self.run_span = obs.spans.begin(
            "run",
            workload=workload,
            configuration=configuration,
            engine=engine,
            accesses=total,
        )
        self.phase_span: Span | None = None

    def begin_phase(self, name: str) -> None:
        if self.phase_span is not None:
            self.obs.spans.end(self.phase_span)
        self.phase_span = self.obs.spans.begin(name)

    def timed_drain(self, drain):
        """``drain`` wrapped to count and time every segment it drains."""

        def timed(start: int, stop: int) -> None:
            started = perf_counter()
            drain(start, stop)
            seconds = perf_counter() - started
            self.boundaries.inc()
            self.drained.inc(stop - start)
            self.drain_seconds.observe(seconds)

        return timed

    def lite_interval(self, lite, miss_delta: int, interval_instructions: float) -> None:
        """The instrumented twin of the bare ``lite.end_interval`` call."""
        before = lite.active_configuration()
        with self.obs.spans.span("lite.end_interval"):
            record = lite.end_interval(miss_delta, interval_instructions)
        self.lite_intervals.inc()
        if record.active_units != before:
            self.lite_resizes.inc()
            self.obs.spans.instant("lite.resize", interval=len(lite.history) - 1)

    def sample(self) -> None:
        self.samples.inc()

    def finish(self, result, events_fired: int) -> None:
        """Publish the events-fired gauge and close the run/phase spans.

        The ``SimulationResult`` already carries every other end-of-run
        total, so no gauge restates one.
        """
        self._run_scope.gauge("events_fired", "scheduled OS events fired").set(events_fired)
        if self.probe is not None:
            fastpath = self.obs.registry.scope("fastpath")
            for name, value in self.probe.as_dict().items():
                fastpath.counter(name).inc(value)
        self.obs.spans.end(self.phase_span)
        self.run_span.attrs["l1_misses"] = result.l1_misses
        self.run_span.attrs["page_walks"] = result.page_walks
        self.obs.spans.end(self.run_span)


# ----------------------------------------------------------------------
# Sweep metrics sidecar
# ----------------------------------------------------------------------
def metrics_sidecar_path(journal_path) -> Path:
    """Where a sweep journal's metrics live (never inside the journal)."""
    return Path(str(journal_path) + ".metrics.json")


def aggregate_cell_metrics(
    fresh: dict[str, dict], existing_path: Path | None = None
) -> dict:
    """Merge fresh per-cell snapshots over an existing sidecar's cells.

    On ``--resume``, cells replayed from the journal never re-run, so
    their metrics come from the previous sidecar; freshly-run cells
    overwrite.  Totals are recomputed from the merged cell set.
    """
    cells: dict[str, dict] = {}
    if existing_path is not None and Path(existing_path).exists():
        cells.update(read_metrics_sidecar(existing_path).get("cells", {}))
    cells.update(fresh)
    totals: dict = {}
    for key in sorted(cells):
        merge_snapshots(totals, cells[key])
    return {"cells": cells, "totals": totals}


def write_metrics_sidecar(journal_path, payload: dict) -> Path:
    """Atomically write ``{cells, totals}`` next to the journal."""
    path = metrics_sidecar_path(journal_path)
    document = {"metrics_version": METRICS_SIDECAR_VERSION}
    document.update(payload)
    return atomic_write_json(path, document, indent=2)


def read_metrics_sidecar(path) -> dict:
    """Load and validate a metrics sidecar document."""
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ObservabilityError(f"no metrics sidecar at {path}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise ObservabilityError(f"unreadable metrics sidecar {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ObservabilityError(f"metrics sidecar {path} is not a JSON object")
    version = document.get("metrics_version")
    if version != METRICS_SIDECAR_VERSION:
        raise ObservabilityError(
            f"metrics sidecar {path} has version {version!r}; "
            f"this build reads version {METRICS_SIDECAR_VERSION}"
        )
    return document


def render_totals_prometheus(document: dict, namespace: str = "repro") -> str:
    """Prometheus text for a sidecar's aggregated totals."""
    return render_prometheus(document.get("totals", {}), namespace=namespace)
