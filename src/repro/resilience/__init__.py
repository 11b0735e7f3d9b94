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
