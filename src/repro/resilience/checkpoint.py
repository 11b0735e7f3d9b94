"""Crash-consistent simulation snapshots and golden state hashing.

Built on the ``state_dict()`` / ``load_state_dict()`` protocol
(:mod:`repro.stateful`): the hierarchy and Lite serialize to pure JSON,
so a *snapshot* — their states, the process's digest, and the
simulator's own loop state — is a single JSON document.  The process is
never serialized into a snapshot: a restore rebuilds it, re-fires the
OS events the run had fired, and checks its digest.  This module
provides:

* **snapshot files** — versioned, sha256-checksummed, written atomically
  (temp file + rename, :mod:`repro.ioutils`), so a crash mid-write can
  never leave a corrupt or torn snapshot behind;
* **:class:`SimulationCheckpointer`** — a checkpoint hook for
  :meth:`repro.core.simulator.Simulator.run` that persists a snapshot
  every N interval boundaries and can simultaneously record a golden
  *digest trail* (a per-component sha256 per boundary);
* **:class:`DigestTrail`** and :func:`first_divergence` — the comparison
  side: given two trails (two seeds, or fresh vs. resumed), binary-search
  the first boundary and the first component whose digests diverge.

Because identical states encode to identical canonical JSON, two runs
agree at a boundary *iff* their digests agree — the divergence search
never needs the full states, only the trails.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from ..core.simulator import ordered_events
from ..errors import CheckpointError
from ..ioutils import atomic_write_text
from ..observability import Observability
from ..stateful import require, rng_state_to_json

#: Bump when the snapshot layout changes incompatibly.  Policy: loading
#: rejects any other version outright (snapshots are short-lived restart
#: aids, not archival artifacts — see docs/robustness.md).
CHECKPOINT_VERSION = 7


# ----------------------------------------------------------------------
# Canonical encoding and digests
# ----------------------------------------------------------------------
def canonical_json(state) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def state_digest(state) -> str:
    """sha256 hex digest of a pure-JSON state."""
    return hashlib.sha256(canonical_json(state).encode()).hexdigest()


def process_state_digest(process) -> str:
    """``state_digest(process.state_dict())``, without building the state.

    A 4 KB-paged process's state is mostly its page table's runs (mcf's
    maps 444,416 pages), and a snapshot keeps only their hash.  So sha256
    is fed the same canonical text piece by piece: the runs one stretch
    of a leaf table at a time
    (:meth:`repro.mmu.page_table.PageTable.run_pieces`), each encoded
    from one ``tolist()``, and every other component from the state its
    owner produces.  ``"page_table"`` sorts first among the process's
    keys, so the others follow it as one object.  ``Process.state_dict()``
    stays the definition; tests hold the two equal.
    """
    page_table = process.page_table
    huge = [[leaf.vpn, leaf.pfn, int(leaf.page_size)] for leaf in page_table.huge_leaves()]
    others = canonical_json(
        {
            "physical": process.physical.state_dict(),
            "range_table": process.range_table.state_dict(),
            "rng": rng_state_to_json(process._rng.getstate()),
            "seed": process.seed,
        }
    )
    sha = hashlib.sha256(f'{{"page_table":{{"huge":{canonical_json(huge)},"runs":['.encode())
    close = ""  # "]]," once a run is open: ends it before the next one
    for vpn, frames, joins in page_table.run_pieces():
        pfns = canonical_json(frames.tolist())[1:-1]
        sha.update((f",{pfns}" if joins else f"{close}[{vpn},[{pfns}").encode())
        close = "]],"
    sha.update(f"{close[:2]}]}},{others[1:]}".encode())
    return sha.hexdigest()


def component_digests(state: dict) -> dict[str, str]:
    """Per-component digests of a simulation state, keyed by dotted path.

    The hierarchy's structures get one digest each (``hierarchy.structures.
    L1-4KB`` …) so a divergence points at a single TLB, not just "the
    hierarchy"; the process is already a digest (``process_digest``) and
    is filed verbatim under ``process``; every other top-level component
    digests whole.
    """
    digests: dict[str, str] = {}
    for name, value in state.items():
        if name == "hierarchy" and isinstance(value, dict):
            for sub, sub_value in value.items():
                if sub == "structures":
                    for structure, structure_state in sub_value.items():
                        digests[f"hierarchy.structures.{structure}"] = state_digest(
                            structure_state
                        )
                else:
                    digests[f"hierarchy.{sub}"] = state_digest(sub_value)
        elif name == "process_digest":
            digests["process"] = value
        else:
            digests[name] = state_digest(value)
    return digests


# ----------------------------------------------------------------------
# Whole-simulation state
# ----------------------------------------------------------------------
def simulation_state(simulator, process_digest: str, loop_state: dict) -> dict:
    """Combined pure-JSON state of one running simulation cell.

    ``process_digest`` is :func:`process_state_digest` of the process:
    the snapshot records the process by its digest, and a restore
    rebuilds the process and checks it (:func:`restore_simulation`).
    """
    organization = simulator.organization
    state = {
        "hierarchy": organization.hierarchy.state_dict(),
        "process_digest": process_digest,
        "loop": loop_state,
    }
    if organization.lite is not None:
        state["lite"] = organization.lite.state_dict()
    return state


def restore_simulation(prepared, state: dict) -> dict:
    """Bring a freshly prepared run to a snapshot's state; returns the loop state.

    ``prepared`` is a :class:`repro.analysis.experiments.PreparedRun`
    rebuilt through the canonical pipeline for the cell that wrote the
    snapshot, with the same ``events``.  Only OS events change a built
    process, so the restore

    1. re-fires the schedule's first ``loop["event_index"]`` events, in
       :meth:`repro.core.simulator.Simulator.run`'s order, against the
       rebuilt organization;
    2. checks the rebuilt process's digest against ``process_digest``,
       raising :class:`repro.errors.CheckpointError` on a mismatch (a
       pipeline built with another seed, workload or memory size);
    3. loads the hierarchy and Lite state, which overwrites whatever the
       re-fired events did to them.

    The caller passes the returned loop state as ``resume_state`` to
    ``prepared.run``.
    """
    organization = prepared.organization
    require(
        ("lite" in state) == (organization.lite is not None),
        "snapshot and organization disagree about a Lite controller",
    )
    loop_state = state["loop"]
    for _position, event in ordered_events(prepared.events)[: loop_state["event_index"]]:
        event(organization)
    if process_state_digest(prepared.process) != state["process_digest"]:
        raise CheckpointError(
            "the rebuilt process differs from the snapshot's "
            "(built with another seed, workload or memory size?)"
        )
    organization.hierarchy.load_state_dict(state["hierarchy"])
    if organization.lite is not None:
        organization.lite.load_state_dict(state["lite"])
    return loop_state


# ----------------------------------------------------------------------
# Snapshot files
# ----------------------------------------------------------------------
def write_snapshot(path, state: dict, meta: dict | None = None) -> Path:
    """Atomically write a versioned, checksummed snapshot file.

    The file is ``canonical_json(envelope) + "\\n"``.  The payload is
    encoded once: its text is hashed, then spliced into the envelope
    between ``meta`` and ``sha256``, where sorted keys place it.
    """
    payload_text = canonical_json(state)
    digest = hashlib.sha256(payload_text.encode()).hexdigest()
    head = canonical_json({"checkpoint_version": CHECKPOINT_VERSION, "meta": dict(meta or {})})
    text = f'{head[:-1]},"payload":{payload_text},"sha256":"{digest}"}}\n'
    return atomic_write_text(path, text)


def read_snapshot(path) -> tuple[dict, dict]:
    """Read and verify a snapshot file; returns ``(state, meta)``.

    Raises :class:`repro.errors.CheckpointError` on a missing file, a
    file that is not UTF-8 JSON, a version mismatch, or a checksum
    mismatch.
    """
    path = Path(path)
    try:
        envelope = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise CheckpointError(f"no snapshot at {path}") from exc
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable snapshot {path}: {exc}") from exc
    if not isinstance(envelope, dict) or "payload" not in envelope:
        raise CheckpointError(f"{path} is not a snapshot envelope")
    version = envelope.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: snapshot version {version!r} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    state = envelope["payload"]
    digest = hashlib.sha256(canonical_json(state).encode()).hexdigest()
    if digest != envelope.get("sha256"):
        raise CheckpointError(f"{path}: checksum mismatch (corrupt snapshot)")
    return state, envelope.get("meta", {})


# ----------------------------------------------------------------------
# Digest trails and divergence bisection
# ----------------------------------------------------------------------
@dataclass(slots=True)
class DigestTrail:
    """Per-boundary component digests of one run.

    ``boundaries`` holds the boundary numbers at which digests were
    recorded (ascending); ``digests[i]`` is the component→sha256 map at
    ``boundaries[i]``.
    """

    boundaries: list[int] = field(default_factory=list)
    digests: list[dict[str, str]] = field(default_factory=list)

    def record(self, boundary: int, digest_map: dict[str, str]) -> None:
        self.boundaries.append(boundary)
        self.digests.append(digest_map)

    def to_json(self) -> dict:
        return {"boundaries": list(self.boundaries), "digests": list(self.digests)}

    @classmethod
    def from_json(cls, data: dict) -> "DigestTrail":
        return cls(boundaries=list(data["boundaries"]), digests=list(data["digests"]))


@dataclass(frozen=True, slots=True)
class Divergence:
    """First point where two digest trails disagree."""

    boundary: int
    components: tuple[str, ...]  # diverging components at that boundary
    index: int  # position within the trails


def _diverging_components(a: dict[str, str], b: dict[str, str]) -> tuple[str, ...]:
    keys = sorted(set(a) | set(b))
    return tuple(key for key in keys if a.get(key) != b.get(key))


def first_divergence(trail_a: DigestTrail, trail_b: DigestTrail) -> Divergence | None:
    """First boundary and components where two trails diverge, or ``None``.

    Uses binary search: simulation state is cumulative, so once two runs
    diverge they stay diverged with overwhelming likelihood.  Because a
    later *coincidental* re-convergence would break that monotonicity
    assumption, the result is verified and falls back to a linear scan
    when the bisection landed wrong.
    """
    require(
        trail_a.boundaries == trail_b.boundaries,
        "digest trails cover different boundaries "
        f"({len(trail_a.boundaries)} vs {len(trail_b.boundaries)} records)",
    )
    count = len(trail_a.boundaries)
    if count == 0 or trail_a.digests[-1] == trail_b.digests[-1]:
        # Identical final state: by cumulativity the runs agree throughout;
        # verify cheaply and linear-scan if a transient blip exists.
        for index in range(count):
            if trail_a.digests[index] != trail_b.digests[index]:
                return _divergence_at(trail_a, trail_b, index)
        return None
    lo, hi = 0, count - 1  # invariant: digests differ at hi
    while lo < hi:
        mid = (lo + hi) // 2
        if trail_a.digests[mid] == trail_b.digests[mid]:
            lo = mid + 1
        else:
            hi = mid
    # Verify the bisection (guards against non-monotone divergence).
    if lo > 0 and trail_a.digests[lo - 1] != trail_b.digests[lo - 1]:
        for index in range(lo):
            if trail_a.digests[index] != trail_b.digests[index]:
                return _divergence_at(trail_a, trail_b, index)
    return _divergence_at(trail_a, trail_b, lo)


def _divergence_at(trail_a: DigestTrail, trail_b: DigestTrail, index: int) -> Divergence:
    return Divergence(
        boundary=trail_a.boundaries[index],
        components=_diverging_components(trail_a.digests[index], trail_b.digests[index]),
        index=index,
    )


# ----------------------------------------------------------------------
# The checkpoint hook
# ----------------------------------------------------------------------
class AbortSimulation(Exception):
    """Raised by the ``abort_after`` test hook to simulate a kill."""


class SimulationCheckpointer:
    """Checkpoint hook: snapshot every N boundaries, optionally digest all.

    Parameters
    ----------
    simulator / process:
        The running cell's simulator and process (state sources).  Only
        OS events change a built process, so its digest is computed at
        the first snapshot or digest record and again only after the
        run's fired-event count (``event_index``) changes.
    path:
        Snapshot file destination; ``None`` disables persistence (digest
        recording still works).
    checkpoint_every:
        Persist a snapshot at every Nth boundary (and the snapshot of the
        last boundary seen stays on disk — the resume point).
    digest_every:
        Record component digests into :attr:`trail` every Nth boundary
        (``0`` disables digest recording).
    meta:
        Extra identification written into the snapshot envelope.
    abort_after:
        Test hook: raise :class:`AbortSimulation` after this many
        boundaries, *after* any snapshot/digest work — simulating a run
        killed mid-cell with a checkpoint on disk.
    on_boundary:
        Optional callable invoked with the loop state at *every*
        boundary, after any snapshot/digest work.  The process
        supervisor's workers use it to pump heartbeats, honour graceful
        shutdown, and let the chaos policy strike — all without paying
        for a snapshot at boundaries that don't want one.
    observability:
        Optional telemetry hub (:class:`repro.observability.
        Observability`).  Resolved at construction — a disabled hub
        stores as ``None``, the bare path.  Enabled, the checkpointer
        counts snapshots/digests under the ``checkpoint.`` scope and
        wraps snapshot/digest work in a ``checkpoint`` span.  The
        digests and snapshots themselves are never touched.
    """

    def __init__(
        self,
        simulator,
        process,
        path=None,
        checkpoint_every: int = 1,
        digest_every: int = 0,
        meta: dict | None = None,
        abort_after: int | None = None,
        on_boundary=None,
        observability=None,
    ) -> None:
        if checkpoint_every < 1:
            raise CheckpointError("checkpoint_every must be >= 1")
        self.simulator = simulator
        self.process = process
        self.path = Path(path) if path is not None else None
        self.checkpoint_every = checkpoint_every
        self.digest_every = digest_every
        self.meta = dict(meta or {})
        self.abort_after = abort_after
        self.on_boundary = on_boundary
        self.trail = DigestTrail()
        self.boundaries_seen = 0
        self.snapshots_written = 0
        self._process_digest: tuple[int, str] | None = None  # (event_index, sha256)
        self.observability = Observability.resolve(observability)
        if self.observability is not None:
            scope = self.observability.registry.scope("checkpoint")
            self._snapshot_counter = scope.counter(
                "snapshots", "simulation snapshots persisted"
            )
            self._digest_counter = scope.counter(
                "digests", "per-component digest records taken"
            )
            self._checkpoint_seconds = scope.histogram(
                "seconds", "wall time per snapshot/digest boundary"
            )

    def __call__(self, loop_state: dict) -> None:
        self.boundaries_seen += 1
        boundary = loop_state["boundary"]
        want_snapshot = (
            self.path is not None and boundary % self.checkpoint_every == 0
        )
        want_digest = self.digest_every and boundary % self.digest_every == 0
        if want_snapshot or want_digest:
            self._record(loop_state, want_snapshot, want_digest)
        if self.on_boundary is not None:
            self.on_boundary(loop_state)
        if self.abort_after is not None and self.boundaries_seen >= self.abort_after:
            raise AbortSimulation(
                f"aborted after {self.boundaries_seen} boundaries (test kill)"
            )

    def snapshot_now(self, loop_state: dict) -> bool:
        """Persist a snapshot at this boundary regardless of cadence.

        The graceful-shutdown path uses this so a SIGTERM'd worker leaves
        a resume point at the boundary it drained to, even when that
        boundary is off the ``checkpoint_every`` grid.  Returns whether a
        snapshot was written (``False`` when persistence is disabled).
        """
        if self.path is None:
            return False
        self._record(loop_state, snapshot=True, digest=False)
        return True

    def _record(self, loop_state: dict, snapshot: bool, digest: bool) -> None:
        """Build this boundary's state once; digest it and/or persist it."""
        boundary = loop_state["boundary"]
        obs = self.observability
        span = obs.spans.begin("checkpoint", boundary=boundary) if obs is not None else None
        event_index = loop_state["event_index"]
        if self._process_digest is None or self._process_digest[0] != event_index:
            self._process_digest = (event_index, process_state_digest(self.process))
        state = simulation_state(self.simulator, self._process_digest[1], loop_state)
        if digest:
            self.trail.record(boundary, component_digests(state))
        if snapshot:
            write_snapshot(self.path, state, meta={**self.meta, "boundary": boundary})
            self.snapshots_written += 1
        if span is not None:
            obs.spans.end(span)
            self._checkpoint_seconds.observe(span.duration or 0.0)
            if digest:
                self._digest_counter.inc()
            if snapshot:
                self._snapshot_counter.inc()


def claim_snapshot(path) -> dict | None:
    """Validate and load a snapshot for a resumed or retried cell, or clear it.

    A sweep hands a cell's surviving snapshot to its next attempt so the
    cell restarts mid-trace instead of from access 0.  An attempt must
    never commit to a snapshot it cannot restore — the very crash being
    retried may have torn component state into the file's payload — so
    this helper front-loads the validation:

    * no file → ``None`` (start clean);
    * a readable, checksum-valid snapshot → its state dict;
    * a corrupt/incompatible snapshot → **deleted** (with a warning) and
      ``None``, so it cannot poison this or any later attempt.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        state, _meta = read_snapshot(path)
    except CheckpointError as exc:
        warnings.warn(
            f"discarding unusable snapshot {path}: {exc} "
            "(the cell restarts from access 0)",
            stacklevel=2,
        )
        try:
            path.unlink()
        except OSError:
            pass
        return None
    return state


def resume_from_snapshot(prepared, path) -> dict:
    """Load a snapshot into a freshly prepared run; returns the loop state.

    ``prepared`` is a :class:`repro.analysis.experiments.PreparedRun`
    rebuilt through the canonical pipeline for the *same* workload,
    configuration, settings and event schedule that produced the
    snapshot — the traces and initial layout are seed-deterministic, so
    :func:`restore_simulation` reproduces the interrupted run exactly,
    and rejects a pipeline whose process differs.
    """
    state, _meta = read_snapshot(path)
    return restore_simulation(prepared, state)
