"""Fault injection: hostile traces and adversarial OS event schedules.

Utopia and Victima evaluate translation under hostile or irregular
mapping conditions; this module brings the same adversarial mindset to
the reproduction.  Three families of faults:

* **trace perturbations** — pure functions over a VPN array that model
  corrupted or pathological reference streams: out-of-range VPNs (beyond
  any mapped VMA), negative VPNs (sign-corrupted records), truncation
  (a cut-short capture), and duplicate bursts (a stuck trace writer);
* **adversarial OS events** — schedules for the simulator's ``events``
  hook: random full TLB shootdowns (context-switch storms) and huge-page
  demotion storms (memory pressure breaking THP mappings mid-run);
* **worker chaos** — :class:`ChaosPolicy`, a fault plan the process
  supervisor (:mod:`repro.resilience.supervisor`) injects into its own
  workers: SIGKILL at random drain-loop boundaries, simulated memory
  budget breaches, and deliberate hangs.  This is fault injection *for
  the supervisor itself* — the chaos CI job proves a kill-riddled sweep
  still converges to the same journal as an unfaulted serial run.

The differential fuzzer (:mod:`repro.resilience.fuzz`) draws the trace
perturbations and storms into its cases, and ``bisect-divergence
--fault`` compares a clean cell against a perturbed one.
"""

from __future__ import annotations

import os
import signal
import time
import zlib
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from ..errors import ConfigurationError


def check_json_keys(data, expected, what: str, schema: str, optional=()) -> None:
    """Reject a plain dict whose key set drifted from a schema.

    ``data`` must be a dict holding every key of ``expected`` except
    those in ``optional``, and nothing else.  Unknown *and* missing keys
    are reported together as a :class:`repro.errors.ConfigurationError`,
    so corpus/journal files written by a newer build fail loudly with an
    actionable message instead of a raw ``TypeError`` deep inside a
    worker or a replay.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{what}: expected an object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - set(expected))
    missing = sorted(set(expected) - set(optional) - set(data))
    if unknown or missing:
        raise ConfigurationError(
            f"{what} does not match this build's {schema} schema"
            + (f"; unknown keys: {', '.join(unknown)}" if unknown else "")
            + (f"; missing keys: {', '.join(missing)}" if missing else "")
            + " (file written by a different version?)"
        )


def dataclass_from_json(cls, data, what: str):
    """Strictly construct a dataclass from a plain dict.

    The key set is checked by :func:`check_json_keys` first; fields with
    defaults may be omitted, extra keys never pass.
    """
    spec = fields(cls)
    check_json_keys(
        data,
        [field.name for field in spec],
        what,
        cls.__name__,
        optional=[
            field.name
            for field in spec
            if field.default is not MISSING or field.default_factory is not MISSING
        ],
    )
    return cls(**data)


#: A VPN far beyond any mapped VMA (the 48-bit canonical ceiling).
OUT_OF_RANGE_VPN = 1 << 36


def _as_array(trace) -> np.ndarray:
    return np.asarray(trace, dtype=np.int64)


def inject_out_of_range(trace, fraction: float = 0.01, seed: int = 0) -> np.ndarray:
    """Replace a random fraction of VPNs with unmapped, huge ones."""
    vpns = _as_array(trace).copy()
    rng = np.random.default_rng(seed)
    count = max(1, int(len(vpns) * fraction))
    victims = rng.choice(len(vpns), size=count, replace=False)
    vpns[victims] = OUT_OF_RANGE_VPN + rng.integers(0, 1 << 20, size=count)
    return vpns


def inject_negative_vpns(trace, fraction: float = 0.01, seed: int = 0) -> np.ndarray:
    """Sign-corrupt a random fraction of VPNs (negated, offset by one)."""
    vpns = _as_array(trace).copy()
    rng = np.random.default_rng(seed)
    count = max(1, int(len(vpns) * fraction))
    victims = rng.choice(len(vpns), size=count, replace=False)
    vpns[victims] = -(np.abs(vpns[victims]) + 1)
    return vpns


def truncate_trace(trace, keep_fraction: float = 0.25, seed: int = 0) -> np.ndarray:
    """Cut the stream short, as a capture that died mid-run would."""
    vpns = _as_array(trace)
    keep = max(1, int(len(vpns) * keep_fraction))
    return vpns[:keep].copy()


def inject_duplicate_bursts(
    trace, bursts: int = 4, burst_length: int = 512, seed: int = 0
) -> np.ndarray:
    """Overwrite random windows with a single repeated VPN (stuck writer)."""
    vpns = _as_array(trace).copy()
    rng = np.random.default_rng(seed)
    for _ in range(bursts):
        start = int(rng.integers(0, max(1, len(vpns) - burst_length)))
        vpns[start : start + burst_length] = vpns[start]
    return vpns


#: Named trace perturbations used by the fuzzer and the CLI.
TRACE_FAULTS = {
    "out_of_range": inject_out_of_range,
    "negative": inject_negative_vpns,
    "truncate": truncate_trace,
    "duplicate_burst": inject_duplicate_bursts,
}


# ----------------------------------------------------------------------
# Adversarial OS events
# ----------------------------------------------------------------------
def shootdown_storm_events(
    num_accesses: int, storms: int = 3, seed: int = 0
) -> list[tuple[int, object]]:
    """Random full-TLB-flush events (context-switch / shootdown storms)."""
    rng = np.random.default_rng(seed)
    positions = sorted(
        int(p) for p in rng.integers(1, max(2, num_accesses), size=storms)
    )

    def flush(organization) -> None:
        organization.hierarchy.flush_tlbs()

    return [(position, flush) for position in positions]


def demotion_storm_events(
    process,
    num_accesses: int,
    storms: int = 2,
    fraction: float = 0.5,
    seed: int = 0,
) -> list[tuple[int, object]]:
    """Huge-page demotion storms: break a fraction of live 2 MB pages.

    Each event demotes ``fraction`` of the 2 MB pages still mapped at
    fire time and sends the matching TLB shootdowns — the paper's
    Section 4.2.2 memory-pressure scenario, but repeated and randomized.
    A storm over a process with no huge pages left is a no-op.
    """
    from ..mmu.translation import PageSize

    rng = np.random.default_rng(seed)
    positions = sorted(
        int(p) for p in rng.integers(1, max(2, num_accesses), size=storms)
    )

    def storm(organization, _seed_base=seed) -> None:
        huge = [
            leaf.vpn
            for leaf in process.page_table.huge_leaves()
            if leaf.page_size is PageSize.SIZE_2MB
        ]
        if not huge:
            return
        local = np.random.default_rng(_seed_base + len(huge))
        victims = local.choice(
            len(huge), size=max(1, int(len(huge) * fraction)), replace=False
        )
        for index in victims:
            vpn = huge[int(index)]
            process.break_huge_page(vpn)
            organization.hierarchy.shootdown_huge_page(vpn)

    return [(position, storm) for position in positions]


def adversarial_events(
    process,
    num_accesses: int,
    shootdowns: int = 3,
    demotion_storms: int = 2,
    demotion_fraction: float = 0.5,
    seed: int = 0,
) -> list[tuple[int, object]]:
    """Combined shootdown + demotion schedule for one simulation."""
    events = shootdown_storm_events(num_accesses, storms=shootdowns, seed=seed)
    events += demotion_storm_events(
        process,
        num_accesses,
        storms=demotion_storms,
        fraction=demotion_fraction,
        seed=seed + 1,
    )
    return sorted(events, key=lambda event: event[0])


# ----------------------------------------------------------------------
# Worker chaos (fault injection against the process supervisor)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosPolicy:
    """A deterministic fault plan executed *inside* supervised workers.

    The supervisor threads the policy into each worker's task spec; the
    worker consults it at every drain-loop boundary (the same boundaries
    that feed heartbeats and snapshots), so every injected fault lands at
    a point the checkpoint protocol can recover from:

    * ``kill_probability`` — with this per-boundary probability, the
      worker SIGKILLs itself: the real signal, no Python cleanup, exactly
      what a kernel OOM kill or a preempted spot instance looks like;
    * ``oom_at_boundary`` — raise :class:`MemoryError` at this boundary,
      the same exception a tripped ``setrlimit`` budget produces, driving
      the structured ``oom`` status path;
    * ``hang_at_boundary`` — sleep ``hang_seconds`` at this boundary,
      starving the heartbeat channel so the supervisor's hang detection
      (or the hard timeout) must reclaim the worker with SIGKILL.

    ``max_strikes_per_cell`` bounds how many *attempts* of one cell get
    struck: with the default of 1 only attempt 0 can be hit, so a retried
    cell is guaranteed to complete — the configuration the chaos CI job
    uses to assert kill-riddled and unfaulted sweeps converge to
    identical journals.  Draws come from an RNG seeded by
    ``(seed, cell key, attempt)``, so a chaos run is exactly
    reproducible and different cells/attempts fault independently.
    """

    kill_probability: float = 0.0
    oom_at_boundary: int | None = None
    hang_at_boundary: int | None = None
    hang_seconds: float = 3600.0
    max_strikes_per_cell: int = 1
    seed: int = 0

    def rng(self, key: str, attempt: int) -> np.random.Generator:
        """Deterministic per-(cell, attempt) RNG for strike draws."""
        return np.random.default_rng(
            [self.seed, zlib.crc32(key.encode()), attempt]
        )

    def strike(self, rng: np.random.Generator, boundary: int, attempt: int) -> None:
        """Consult the plan at one boundary; may never return."""
        if attempt >= self.max_strikes_per_cell:
            return
        if self.oom_at_boundary is not None and boundary >= self.oom_at_boundary:
            raise MemoryError(f"chaos: simulated budget breach at boundary {boundary}")
        if self.hang_at_boundary is not None and boundary >= self.hang_at_boundary:
            time.sleep(self.hang_seconds)
        if self.kill_probability > 0.0 and rng.random() < self.kill_probability:
            os.kill(os.getpid(), signal.SIGKILL)

    def to_json(self) -> dict:
        """Plain-dict form for crossing the process boundary in a task spec."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "ChaosPolicy":
        """Strict inverse of :meth:`to_json`.

        Unknown or missing keys raise
        :class:`repro.errors.ConfigurationError` (not a raw ``TypeError``)
        so a task spec produced by a newer build fails loudly at the
        supervisor boundary instead of deep inside a worker.
        """
        return dataclass_from_json(cls, data, "chaos policy")
