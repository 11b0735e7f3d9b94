"""reprolint — two-phase static analysis enforcing simulator invariants.

The runtime :class:`repro.resilience.auditor.InvariantAuditor` re-derives
accounting identities *during* a run; this package catches the same class
of bugs *before* any simulation runs by analysing the source.  The
paper's headline numbers (TLB_Lite −23%, RMM_Lite −71% dynamic energy)
are only reproducible if every run is deterministic and every
energy/stat identity holds, so the contracts are pinned at lint time.

Phase 1 runs one AST visitor per file-local contract; phase 2 builds a
:class:`~repro.lint.project.ProjectContext` over the whole package
(symbol index, class table, call graph) and runs the cross-module rules:

=====  ==============================================================
rule   contract
=====  ==============================================================
RL001  determinism — no unseeded or module-level RNG, no time-derived
       seeds
RL002  exception taxonomy — raises use the :mod:`repro.errors`
       hierarchy, not raw built-ins
RL003  hot-path purity — no allocation-heavy constructs, logging, or
       broad exception handlers inside ``access``/``lookup``/``fill``
       fast paths
RL004  stats discipline — counter attributes of ``stats`` objects are
       only mutated by their owning sync/reset methods
RL005  power-of-two guards — way/bank/set counts are validated at
       construction
RL006  no mutable default arguments
RL007  checkpoint coverage — ``state_dict``/``load_state_dict`` round-
       trip every mutable attribute, with symmetric key sets
RL008  interprocedural hot-path purity — RL003 followed through the
       call graph into helpers
RL009  process-boundary safety — no unpicklable payloads handed to the
       supervisor's worker processes
RL010  exception chaining — ``raise X(...) from err`` inside except
       blocks
=====  ==============================================================

Pre-existing findings live in ``.reprolint-baseline.json`` (ratchet:
they may be fixed but not added to); individual lines opt out with a
``# reprolint: disable=RL00x`` comment, which covers the whole statement
it is attached to (decorators and multi-line headers included).  Run it
with::

    python -m repro lint [paths...] [--format=text|json] [--strict]
                         [--update-baseline] [--changed] [--explain RLxxx]
"""
