"""Structured error taxonomy for the whole simulator.

Every failure the pipeline can produce maps onto one of these classes so
callers (the CLI, the resilient sweep runner, test harnesses) can react
by *kind* instead of string-matching messages:

``ReproError``
    Root of the taxonomy; everything below derives from it.
``SettingsError``
    Invalid run-level knobs (``ExperimentSettings`` validation).
``TraceError``
    A reference stream that cannot be trusted: missing sidecar files,
    corrupt arrays, bad metadata.  ``TraceIOError`` additionally derives
    from :class:`FileNotFoundError` so pre-taxonomy callers keep working.
``UnknownNameError``
    A lookup by name failed; carries did-you-mean ``suggestions``.
    Derives from :class:`KeyError` for backward compatibility.
``SimulationError``
    The simulator cannot run the given trace/configuration combination.
``ConfigurationError``
    A structure or hierarchy was constructed with invalid geometry
    (non-power-of-two ways/banks, impossible hierarchy shapes).
``InvariantViolation``
    The runtime auditor found an accounting identity broken; carries a
    ``context`` dict with every number that went into the check.
``SweepError``
    The resilient sweep runner cannot proceed (e.g. a resume journal that
    does not match the requested matrix, or a timeout asked of the
    in-process executor).
``WorkerCrashError``
    A supervised sweep worker process died without reporting a result
    (native crash, OOM kill, ``sys.exit``).  Retryable: the sweep driver
    re-dispatches the cell until the quarantine threshold.
``MemoryBudgetError``
    A worker exceeded its per-cell memory budget.  Fatal for the cell
    (re-running under the same budget reproduces the breach) but the
    sweep continues; the cell gets the structured ``oom`` status.
``QuarantinedCellError``
    A poison cell crossed the crash-quarantine threshold and was
    journaled as quarantined; it is skipped on ``--resume``.
``CheckpointError``
    A simulation snapshot cannot be written, read, or restored (bad
    version, checksum mismatch, geometry mismatch on load).
``AddressSpaceError``
    The OS memory substrate (page tables, allocators, processes) was
    asked to perform an invalid operation.  ``MappingLookupError``
    additionally derives from :class:`KeyError` for unmap misses.
``AnalysisError``
    Post-processing (trace statistics, normalization, reports) was
    given unusable inputs.
``WorkloadError``
    A synthetic workload was configured with invalid parameters.
``UsageError``
    An API was called on an object that does not support it; derives
    from :class:`TypeError`.
``TranslationError`` / ``TranslationDomainError``
    Invalid translation objects, and translate() calls outside a
    mapping's covered interval.
``ExportError``
    Result export cannot proceed (nothing to write).
``FuzzError``
    The differential fuzzing harness cannot proceed (a corpus reproducer
    that no longer fails, replay over an empty corpus).
``ObservabilityError``
    The telemetry layer was misused (duplicate metric registered under a
    different type, invalid metric name, unreadable metrics sidecar).
    Never raised from an instrumented hot path — observability failures
    must not take a simulation down.

Most classes double-derive from the built-in exception they historically
replaced (``ValueError``, ``KeyError``, ``FileNotFoundError``) so that
existing ``except``/``pytest.raises`` sites keep catching them.
"""

from __future__ import annotations

import difflib
from typing import Iterable


class ReproError(Exception):
    """Base class of every structured simulator error."""


class SettingsError(ReproError, ValueError):
    """Invalid experiment-level settings."""


class TraceError(ReproError, ValueError):
    """A reference stream (or its metadata) is malformed."""


class TraceIOError(TraceError, FileNotFoundError):
    """A trace's ``.npy``/``.json`` sidecar pair is missing or unreadable."""


class SimulationError(ReproError, ValueError):
    """The simulator cannot run this trace/configuration combination."""


class ConfigurationError(ReproError, ValueError):
    """A hardware structure or hierarchy was built with invalid geometry.

    Raised at construction time (bad way/bank/set counts, impossible
    hierarchy shapes) so misconfigurations fail before any simulation
    runs.  Double-derives from :class:`ValueError` because those sites
    historically raised ``ValueError`` and tests/callers still catch it.
    """


class SweepError(ReproError):
    """The sweep runner cannot proceed (bad journal, matrix or settings)."""


class WorkerCrashError(ReproError):
    """A supervised sweep worker died without reporting a result.

    Covers every way a child process can vanish mid-cell: a native
    abort, the kernel OOM killer, a stray ``sys.exit``, or an interpreter
    crash.  A crash is retryable by definition: the sweep driver
    re-dispatches the cell until ``quarantine_after`` crashes mark it
    poison.
    """


class MemoryBudgetError(ReproError, MemoryError):
    """A supervised worker exceeded its per-cell memory budget.

    Raised (and marshalled as the structured ``oom`` cell status) when
    the ``resource.setrlimit`` address-space budget trips a
    :class:`MemoryError` inside the worker.  Fatal for the cell, not the
    sweep: the same cell under the same budget would fail again, so it
    is not retried, but every other cell keeps running.  Double-derives
    from :class:`MemoryError` so generic handlers still match.
    """


class QuarantinedCellError(ReproError):
    """A poison cell crossed the crash-quarantine threshold.

    The cell is journaled as quarantined and skipped on ``--resume``;
    the error message carries the crash count and the last crash detail
    so the journal row is self-explanatory.
    """


class CheckpointError(ReproError):
    """A checkpoint snapshot is unreadable, corrupt, or incompatible.

    Raised on version/checksum mismatches when loading snapshot files,
    on geometry mismatches when a ``load_state_dict`` target does not
    match the state it is asked to restore, and when a rebuilt process
    does not match the digest a snapshot recorded.
    """


class AddressSpaceError(ReproError, ValueError):
    """The OS memory substrate was asked to do something invalid.

    Covers page-table mapping conflicts, allocator misuse (bad orders,
    misaligned frees), and process-level operations on pages of the wrong
    kind.  Double-derives from :class:`ValueError` because those sites
    historically raised ``ValueError``.
    """


class MappingLookupError(AddressSpaceError, KeyError):
    """An unmap/teardown referenced a mapping that is not present.

    Double-derives from :class:`KeyError` (the historical behaviour of
    ``AddressSpace.munmap``); ``str()`` renders the message instead of
    :class:`KeyError`'s repr-of-args.
    """

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class AnalysisError(ReproError, ValueError):
    """Post-processing was asked to summarize unusable inputs.

    Raised by the ``analysis`` package (trace statistics, normalization,
    report rendering) on empty or mismatched result collections.
    Double-derives from :class:`ValueError` because those sites
    historically raised ``ValueError``.
    """


class WorkloadError(ReproError, ValueError):
    """A synthetic workload was configured with invalid parameters.

    Covers bad region geometry, non-positive footprints, mixture weights
    that do not form a distribution, and duplicate registry names.
    Double-derives from :class:`ValueError` for pre-taxonomy callers.
    """


class UsageError(ReproError, TypeError):
    """An API was called on an object that does not support it.

    E.g. calling ``trace()`` on a trace-file workload that can only
    replay saved traces.  Double-derives from :class:`TypeError` (the
    historical behaviour at that site).
    """


class TranslationError(ReproError, ValueError):
    """A translation or range object was constructed with invalid fields."""


class TranslationDomainError(ReproError, KeyError):
    """A ``translate()`` call fell outside the mapping's covered interval.

    Double-derives from :class:`KeyError` (the historical behaviour the
    fault-tolerant simulator and tests rely on).  ``str()`` renders the
    message instead of :class:`KeyError`'s repr-of-args.
    """

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class ExportError(ReproError, ValueError):
    """Result export cannot proceed (e.g. an empty result collection)."""


class FuzzError(ReproError):
    """The fuzzing harness cannot proceed (bad corpus entry, dead reproducer).

    Raised by :mod:`repro.resilience.fuzz` / :mod:`repro.resilience.minimize`
    on harness-level problems — a reproducer that no longer fails and so
    cannot be minimized, or replay/minimize invoked against an empty
    corpus.  Oracle *failures* are data (``FuzzFailure``), not exceptions;
    this class covers the harness itself misfiring.
    """


class ObservabilityError(ReproError, ValueError):
    """The observability layer was misconfigured or misused.

    Covers metric-registry misuse (one name registered as two different
    metric types, malformed metric names, negative counter increments)
    and unreadable/incompatible metrics sidecar files.  Registration
    happens at setup time and export happens after a run, so this never
    fires from an instrumented simulation loop.  Double-derives from
    :class:`ValueError` for callers with generic validation handlers.
    """


class UnknownNameError(ReproError, KeyError):
    """A name lookup failed; carries did-you-mean suggestions.

    ``str()`` renders the full message (overriding :class:`KeyError`'s
    repr-of-args behaviour) so tracebacks and CLI output stay readable.
    """

    kind = "name"

    def __init__(self, name: str, known: Iterable[str]) -> None:
        self.name = name
        self.known = sorted(known)
        self.suggestions = did_you_mean(name, self.known)
        message = f"unknown {self.kind} {name!r}"
        if self.suggestions:
            message += "; did you mean: " + ", ".join(self.suggestions) + "?"
        message += " (known: " + ", ".join(self.known) + ")"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class UnknownWorkloadError(UnknownNameError):
    """No workload registered under this name."""

    kind = "workload"


class UnknownConfigError(UnknownNameError):
    """No TLB configuration registered under this name."""

    kind = "configuration"


class InvariantViolation(ReproError):
    """An accounting identity failed during or after simulation.

    Parameters
    ----------
    invariant:
        Short machine-readable identifier (e.g. ``"hit-attribution"``).
    message:
        Human-readable statement of what broke.
    context:
        Every value that participated in the check, for post-mortems.
    """

    def __init__(self, invariant: str, message: str, context: dict | None = None) -> None:
        self.invariant = invariant
        self.context = dict(context or {})
        detail = ""
        if self.context:
            detail = " [" + ", ".join(
                f"{key}={value!r}" for key, value in sorted(self.context.items())
            ) + "]"
        super().__init__(f"invariant {invariant!r} violated: {message}{detail}")


def did_you_mean(name: str, known: Iterable[str], limit: int = 3) -> list[str]:
    """Closest known names to a mistyped one (case-insensitive)."""
    known = list(known)
    by_folded = {candidate.casefold(): candidate for candidate in known}
    matches = difflib.get_close_matches(
        name.casefold(), list(by_folded), n=limit, cutoff=0.5
    )
    return [by_folded[match] for match in matches]
