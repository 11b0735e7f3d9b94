"""Zero-cost observability: metrics, phase spans, and profiling hooks.

Three pieces, one hub:

* :mod:`repro.observability.registry` — a typed
  :class:`MetricsRegistry` of counters/gauges/histograms with named
  scopes, snapshots, and JSON + Prometheus-text export;
* :mod:`repro.observability.spans` — a :class:`SpanRecorder` of named
  wall-time intervals (run phases, drain segments, checkpoint writes,
  Lite resizes) exportable as Chrome-trace JSON;
* :mod:`repro.observability.hooks` — the :class:`Observability` hub
  threaded through ``Simulator.run``, both drain engines, the
  checkpointer, and the sweep supervisor, plus the sweep metrics
  sidecar (``<journal>.metrics.json``).

The layer is **provably inert** (see ``docs/observability.md`` and
``tests/test_observability.py``): disabled, it normalizes to ``None``
and the bare code paths run — the fast engine's generated drains hold
no telemetry at all, since the engine bumps a :class:`FastPathProbe`
once per drain call outside them; enabled, every per-boundary digest,
result, sweep journal, and fuzz-oracle outcome is byte-identical to a
bare run.
"""
