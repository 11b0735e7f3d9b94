"""Metrics registry: counters, gauges, and histograms with named scopes.

The registry is the passive half of the observability layer — a typed
bag of named metrics that instrumented code bumps at *boundary*
granularity (interval ends, checkpoint boundaries, drain-segment edges),
never per access.  Three metric kinds, mirroring the Prometheus data
model:

``Counter``
    Monotonically non-decreasing integer/float total (``inc``).
``Gauge``
    A point-in-time value that can move both ways (``set``).
``Histogram``
    A fixed-bucket distribution plus running count and sum
    (``observe``); exported with cumulative buckets and an implicit
    ``+Inf`` bucket, Prometheus-style.

Metric names are dot-separated lowercase paths (``sim.boundaries``,
``checkpoint.snapshot_seconds``); :meth:`MetricsRegistry.scope` returns
a view that prefixes every registration, so subsystems can label their
metrics without knowing where they sit in the tree.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-compatible
dicts — the unit that crosses the supervisor's heartbeat pipe and lands
in the sweep metrics sidecar.
:func:`merge_snapshots` aggregates snapshots across sweep cells
(counters and histograms sum; gauges are per-run readings and drop out
of totals), and :func:`render_prometheus` turns any snapshot into the
Prometheus text exposition format.
"""

from __future__ import annotations

from ..errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricScope",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "merge_snapshots",
    "render_prometheus",
]

#: Default histogram bounds, tuned for wall-time observations in seconds
#: (drain segments run microseconds to seconds depending on trace size).
DEFAULT_SECONDS_BUCKETS = (
    0.000_1,
    0.000_5,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


def _validate_name(name: str) -> str:
    """Reject metric names that cannot round-trip through the exporters."""
    segments = name.split(".")
    if not name or not all(
        segment and segment[0].isalpha() and set(segment) <= _NAME_CHARS
        for segment in segments
    ):
        raise ObservabilityError(
            f"invalid metric name {name!r}: want dot-separated lowercase "
            "segments of [a-z0-9_] starting with a letter"
        )
    return name


class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc({amount!r}))"
            )
        self.value += amount


class Gauge:
    """A point-in-time reading that can move both ways."""

    __slots__ = ("name", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket distribution with running count and sum.

    ``bounds`` are the inclusive upper edges of the finite buckets, in
    strictly ascending order; observations above the last bound land in
    the implicit ``+Inf`` bucket.  Bucket counts are stored
    non-cumulative and made cumulative at snapshot time (the Prometheus
    convention), which keeps ``observe`` a two-add, one-scan operation.
    """

    __slots__ = ("name", "help", "bounds", "bucket_counts", "count", "sum")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        bounds: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {name!r} needs strictly ascending bucket bounds, "
                f"got {bounds!r}"
            )
        self.name = name
        self.help = help
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1


class MetricScope:
    """A registry view that prefixes every metric name with a scope path."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        self._registry = registry
        self._prefix = _validate_name(prefix)

    def _qualified(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def counter(self, name: str, help: str = "") -> Counter:
        return self._registry.counter(self._qualified(name), help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._registry.gauge(self._qualified(name), help)

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        return self._registry.histogram(self._qualified(name), help, bounds)

    def scope(self, prefix: str) -> "MetricScope":
        return MetricScope(self._registry, self._qualified(prefix))


class MetricsRegistry:
    """The typed bag of named metrics behind one observability hub.

    Registration is idempotent per (name, kind): asking for an existing
    counter returns the same object, so instrumentation sites can be
    written without setup/lookup phases.  Re-registering a name as a
    different kind is a programming error and raises
    :class:`~repro.errors.ObservabilityError`.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, cls, name: str, *args):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, cannot re-register as {cls.kind}"
                )
            return existing
        metric = cls(_validate_name(name), *args)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, bounds)

    def scope(self, prefix: str) -> MetricScope:
        return MetricScope(self, prefix)

    def metrics(self) -> list[Counter | Gauge | Histogram]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> dict:
        """A JSON-compatible point-in-time reading of every metric."""
        counters: dict[str, int | float] = {}
        gauges: dict[str, int | float] = {}
        histograms: dict[str, dict] = {}
        for metric in self.metrics():
            if metric.kind == "counter":
                counters[metric.name] = metric.value
            elif metric.kind == "gauge":
                gauges[metric.name] = metric.value
            else:
                cumulative = []
                running = 0
                for bucket in metric.bucket_counts:
                    running += bucket
                    cumulative.append(running)
                histograms[metric.name] = {
                    "bounds": list(metric.bounds),
                    "buckets": cumulative,
                    "count": metric.count,
                    "sum": metric.sum,
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def render_prometheus(self, namespace: str = "repro") -> str:
        return render_prometheus(self.snapshot(), namespace=namespace)


def merge_snapshots(total: dict, snapshot: dict) -> dict:
    """Accumulate ``snapshot`` into ``total`` (in place) and return it.

    Counters and histogram counts/sums/buckets add; gauges are dropped
    from totals because a last-value across heterogeneous cells is not
    meaningful.  ``total`` starts as ``{}`` and is normalized on first
    merge.
    """
    total.setdefault("counters", {})
    total.setdefault("histograms", {})
    for name, value in snapshot.get("counters", {}).items():
        total["counters"][name] = total["counters"].get(name, 0) + value
    for name, hist in snapshot.get("histograms", {}).items():
        existing = total["histograms"].get(name)
        if existing is None or existing.get("bounds") != hist.get("bounds"):
            total["histograms"][name] = {
                "bounds": list(hist.get("bounds", [])),
                "buckets": list(hist.get("buckets", [])),
                "count": hist.get("count", 0),
                "sum": hist.get("sum", 0.0),
            }
            continue
        existing["buckets"] = [
            mine + theirs
            for mine, theirs in zip(existing["buckets"], hist["buckets"])
        ]
        existing["count"] += hist.get("count", 0)
        existing["sum"] += hist.get("sum", 0.0)
    return total


def _prom_name(namespace: str, name: str) -> str:
    return f"{namespace}_{name.replace('.', '_')}"


def _prom_value(value: int | float) -> str:
    if isinstance(value, bool):  # bools are ints; be explicit anyway
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(snapshot: dict, namespace: str = "repro") -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Works on any snapshot dict (live registry reading, sidecar totals),
    so exported sweep metrics can be re-rendered without a live registry.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        prom = _prom_name(namespace, name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(snapshot['counters'][name])}")
    for name in sorted(snapshot.get("gauges", {})):
        prom = _prom_name(namespace, name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(snapshot['gauges'][name])}")
    for name in sorted(snapshot.get("histograms", {})):
        hist = snapshot["histograms"][name]
        prom = _prom_name(namespace, name)
        lines.append(f"# TYPE {prom} histogram")
        buckets = list(hist.get("buckets", []))
        bounds = list(hist.get("bounds", []))
        for bound, cumulative in zip(bounds, buckets):
            lines.append(f'{prom}_bucket{{le="{_prom_value(bound)}"}} {cumulative}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {hist.get("count", 0)}')
        lines.append(f"{prom}_sum {_prom_value(hist.get('sum', 0.0))}")
        lines.append(f"{prom}_count {hist.get('count', 0)}")
    return "\n".join(lines) + "\n"
