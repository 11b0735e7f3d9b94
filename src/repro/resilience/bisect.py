"""Divergence bisection: find where two runs of one cell stop agreeing.

When two runs that *should* be identical produce different reports —
fresh vs. resumed-from-checkpoint, two builds of the simulator, a clean
trace vs. a perturbed one — the interesting question is not *that* they
differ but *where* they first differ: which interval boundary, and which
component (one TLB? the page table? the Lite RNG stream?).

This module drives :mod:`repro.resilience.checkpoint` to answer that.
Every digest trail in the repository is recorded by one of two
functions, whatever built the cell (``prepare_run``, a fuzz case, a test
fixture):

* :func:`record_trail` runs a prepared cell and records per-component
  sha256 digests at every Nth interval boundary;
* :func:`record_resumed` kills a cell after K boundaries (with a
  snapshot on disk), rebuilds it through a zero-argument factory,
  resumes it from the snapshot, and stitches the two digest trails
  together — the fresh-vs-resumed comparison behind the determinism CI
  job.

:func:`repro.resilience.checkpoint.first_divergence` scans two trails
for the first diverging boundary and names the diverging components;
:func:`describe_divergence` renders its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CheckpointError
from .checkpoint import (
    AbortSimulation,
    DigestTrail,
    Divergence,
    SimulationCheckpointer,
    resume_from_snapshot,
)


@dataclass(slots=True)
class TrailRun:
    """A digest trail plus the finished result it was recorded from."""

    trail: DigestTrail
    result: object  # SimulationResult
    boundaries: int


def record_trail(
    prepared,
    digest_every: int = 1,
    observability=None,
    on_boundary=None,
    resume_state=None,
) -> TrailRun:
    """Run a prepared cell to the end, recording digests every Nth boundary.

    ``observability`` threads a telemetry hub through the checkpointer
    (the simulator got its hub when the cell was built).
    ``on_boundary(loop_state)`` runs at every boundary after the digest
    work.  With ``resume_state`` the cell continues from a restored
    snapshot, and ``boundaries`` counts only the boundaries of this run.
    """
    checkpointer = SimulationCheckpointer(
        prepared.simulator,
        prepared.process,
        digest_every=digest_every,
        on_boundary=on_boundary,
        observability=observability,
    )
    result = prepared.run(checkpoint_hook=checkpointer, resume_state=resume_state)
    return TrailRun(checkpointer.trail, result, checkpointer.boundaries_seen)


def record_resumed(
    prepare,
    abort_after: int,
    snapshot_path,
    digest_every: int = 1,
    observability=None,
) -> TrailRun:
    """Kill a cell after ``abort_after`` boundaries, then resume and finish.

    ``prepare()`` builds the cell twice.  The snapshot written at the
    kill point is loaded into the second, *freshly rebuilt* cell (new
    process, new organization, new simulator), so the resumed half
    shares no live objects with the first — exactly the
    restart-after-crash scenario.  The returned trail stitches both
    halves; compare it against an uninterrupted :func:`record_trail` to
    prove (or bisect) resume determinism.  A run that finishes before
    the abort point raises :class:`repro.errors.CheckpointError`.
    """
    first = prepare()
    killed = SimulationCheckpointer(
        first.simulator,
        first.process,
        path=snapshot_path,
        checkpoint_every=1,
        digest_every=digest_every,
        abort_after=abort_after,
        observability=observability,
    )
    try:
        first.run(checkpoint_hook=killed)
    except AbortSimulation:
        pass
    else:
        raise CheckpointError(
            f"run finished in {killed.boundaries_seen} boundaries, "
            f"before the abort point ({abort_after}); nothing to resume"
        )

    resumed = prepare()
    loop_state = resume_from_snapshot(resumed, snapshot_path)
    rest = record_trail(
        resumed, digest_every, observability=observability, resume_state=loop_state
    )
    resume_boundary = loop_state["boundary"]
    trail = DigestTrail()
    for boundary, digest_map in zip(killed.trail.boundaries, killed.trail.digests):
        if boundary <= resume_boundary:
            trail.record(boundary, digest_map)
    for boundary, digest_map in zip(rest.trail.boundaries, rest.trail.digests):
        trail.record(boundary, digest_map)
    return TrailRun(trail, rest.result, resume_boundary + rest.boundaries)


def describe_divergence(divergence: Divergence | None) -> str:
    """Human-readable one/two-line verdict for the CLI."""
    if divergence is None:
        return "no divergence: every recorded boundary has identical state digests"
    components = ", ".join(divergence.components) or "(no component differs?)"
    return (
        f"first divergence at boundary {divergence.boundary} "
        f"(record #{divergence.index + 1})\n"
        f"diverging components: {components}"
    )
