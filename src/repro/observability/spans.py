"""Span-based phase tracing with Chrome-trace export.

A :class:`SpanRecorder` collects a flat list of completed spans — named
wall-time intervals with attached attributes (``trace_span("drain")``,
``checkpoint``, ``lite.end_interval``, the ``fast-forward``/``measured``
phases of a run).  Spans nest by depth, tracked by the recorder, so the
timeline reconstructs the call tree without the recorder ever holding a
stack of live objects.

Two usage styles, same span type:

* context manager — ``with recorder.span("checkpoint"): ...`` — for
  code that wraps a block;
* explicit edges — ``span = recorder.begin("measured")`` ...
  ``recorder.end(span)`` — for phase transitions inside a long loop
  where re-indenting the loop body is not an option.

Timestamps are :func:`time.perf_counter` seconds relative to the
recorder's creation.  The recorder caps retained spans
(``max_events``) and counts overflow in ``dropped`` instead of growing
without bound on huge sweeps.

:meth:`SpanRecorder.chrome_trace` renders the classic Chrome trace-event
JSON (``chrome://tracing`` / Perfetto): complete events (``ph: "X"``)
with microsecond ``ts``/``dur``, span attributes under ``args``.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

__all__ = ["Span", "SpanRecorder"]


class Span:
    """One named wall-time interval; ``duration`` is set at ``end()``."""

    __slots__ = ("name", "start", "duration", "attrs", "depth")

    def __init__(self, name: str, start: float, depth: int, attrs: dict) -> None:
        self.name = name
        self.start = start
        self.duration: float | None = None
        self.attrs = attrs
        self.depth = depth

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start_s": self.start,
            "duration_s": self.duration,
            "depth": self.depth,
            "attrs": dict(self.attrs),
        }


class SpanRecorder:
    """Collects completed spans, bounded by ``max_events``."""

    __slots__ = ("events", "dropped", "_origin", "_depth", "_max_events")

    def __init__(self, max_events: int = 100_000) -> None:
        self.events: list[Span] = []
        self.dropped = 0
        self._origin = perf_counter()
        self._depth = 0
        self._max_events = max_events

    def begin(self, name: str, **attrs) -> Span:
        span = Span(name, perf_counter() - self._origin, self._depth, attrs)
        self._depth += 1
        return span

    def end(self, span: Span) -> Span:
        span.duration = perf_counter() - self._origin - span.start
        self._depth = max(0, self._depth - 1)
        if len(self.events) < self._max_events:
            self.events.append(span)
        else:
            self.dropped += 1
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def instant(self, name: str, **attrs) -> Span:
        """A zero-duration marker event (e.g. a Lite resize decision)."""
        span = Span(name, perf_counter() - self._origin, self._depth, attrs)
        span.duration = 0.0
        if len(self.events) < self._max_events:
            self.events.append(span)
        else:
            self.dropped += 1
        return span

    def to_json(self) -> list[dict]:
        return [span.to_json() for span in self.events]

    def chrome_trace(self) -> dict:
        """The Chrome trace-event JSON document for this recorder."""
        trace_events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1_000_000.0,
                "dur": (span.duration or 0.0) * 1_000_000.0,
                "pid": 1,
                "tid": 1,
                "args": dict(span.attrs),
            }
            for span in self.events
        ]
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
