"""Robustness subsystem: faults, auditing, checkpoints, resumable sweeps.

Five pillars, each usable on its own:

* :mod:`repro.resilience.faults` — perturb reference streams and schedule
  adversarial OS events to prove the pipeline degrades gracefully;
* :mod:`repro.resilience.auditor` — a sanitizer-style runtime mode that
  checks accounting identities during and after simulation;
* :mod:`repro.resilience.checkpoint` — versioned, checksummed snapshots
  of a running simulation (built on the ``state_dict`` protocol) plus
  golden per-component state digests;
* :mod:`repro.resilience.bisect` — binary-search two runs' digest trails
  for the first diverging interval boundary and component;
* :mod:`repro.resilience.sweep` — the one sweep driver: journal,
  ``--resume``, per-cell isolation, retries, crash quarantine and
  mid-cell snapshot restart, over two executors (this process, or
  worker processes);
* :mod:`repro.resilience.supervisor` — the worker-process executor
  behind ``workers=N``: one OS process per attempt, hard SIGKILL
  timeouts, heartbeat hang detection, memory budgets, chaos injection,
  and graceful SIGINT/SIGTERM shutdown;
* :mod:`repro.resilience.fuzz` / :mod:`repro.resilience.minimize` — a
  seeded generative differential fuzzer (reference-vs-fast engines,
  kill-and-resume identity, invariant auditing, taxonomy containment)
  with delta-debugging minimization and a versioned regression corpus.
"""

from .auditor import InvariantAuditor
from .bisect import (
    TrailRun,
    bisect_divergence,
    describe_divergence,
    record_digest_trail,
    record_resumed_trail,
)
from .checkpoint import (
    CHECKPOINT_VERSION,
    AbortSimulation,
    DigestTrail,
    Divergence,
    SimulationCheckpointer,
    claim_snapshot,
    component_digests,
    first_divergence,
    read_snapshot,
    restore_simulation,
    resume_from_snapshot,
    simulation_state,
    state_digest,
    write_snapshot,
)
from .faults import (
    TRACE_FAULTS,
    CampaignCell,
    CampaignReport,
    ChaosPolicy,
    adversarial_events,
    inject_duplicate_bursts,
    inject_negative_vpns,
    inject_out_of_range,
    run_fault_campaign,
    truncate_trace,
)
from .supervisor import WorkerTask
from .fuzz import (
    CORPUS_VERSION,
    FUZZ_CASE_VERSION,
    ORACLE_NAMES,
    FuzzCase,
    FuzzFailure,
    FuzzReport,
    generate_case,
    load_reproducer,
    minimize_reproducer,
    replay_corpus,
    rng_stream,
    run_case,
    run_fuzz,
    write_reproducer,
)
from .minimize import MinimizationResult, minimize_case
from .sweep import (
    CrashLedger,
    JournalState,
    SweepCell,
    SweepJournal,
    SweepReport,
    run_resilient_sweep,
)

__all__ = [
    "InvariantAuditor",
    "TrailRun",
    "bisect_divergence",
    "describe_divergence",
    "record_digest_trail",
    "record_resumed_trail",
    "CHECKPOINT_VERSION",
    "AbortSimulation",
    "DigestTrail",
    "Divergence",
    "SimulationCheckpointer",
    "component_digests",
    "first_divergence",
    "read_snapshot",
    "restore_simulation",
    "resume_from_snapshot",
    "simulation_state",
    "state_digest",
    "write_snapshot",
    "TRACE_FAULTS",
    "CampaignCell",
    "CampaignReport",
    "adversarial_events",
    "inject_duplicate_bursts",
    "inject_negative_vpns",
    "inject_out_of_range",
    "run_fault_campaign",
    "truncate_trace",
    "ChaosPolicy",
    "CORPUS_VERSION",
    "FUZZ_CASE_VERSION",
    "ORACLE_NAMES",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "MinimizationResult",
    "generate_case",
    "load_reproducer",
    "minimize_case",
    "minimize_reproducer",
    "replay_corpus",
    "rng_stream",
    "run_case",
    "run_fuzz",
    "write_reproducer",
    "claim_snapshot",
    "CrashLedger",
    "JournalState",
    "SweepCell",
    "SweepJournal",
    "SweepReport",
    "WorkerTask",
    "run_resilient_sweep",
]
