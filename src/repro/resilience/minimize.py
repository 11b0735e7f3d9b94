"""Delta-debugging minimization of failing fuzz cases.

A raw fuzzer failure is a thousands-of-accesses trace under an arbitrary
configuration — useless for triage.  This module shrinks it on two axes
while the *same oracle keeps failing* (same ``(oracle, kind)`` bucket
shape, per :meth:`repro.resilience.fuzz.FuzzFailure.same_bucket_shape`):

* **trace reduction** — the trace is first materialized into literal VPN
  entries (so the shrunk case no longer depends on the generator), then
  shrunk by classic ddmin chunk removal (drop halves, quarters, …) and by
  streak collapsing (run-length encode, collapse repeat-runs to a single
  access, halve run lengths) — the latter is what defeats traces whose
  failure needs a *streak structure* rather than specific entries;
* **config reduction** — field-by-field movement toward defaults: drop
  the OS-event schedule and trace faults, reset hierarchy geometry /
  Lite knobs / sim params to their dataclass defaults, simplify the
  access pattern to a sequential scan, drop extra memory regions.  Each
  step keeps the change only if the failure survives.

Guarantees (documented in docs/robustness.md): the minimized case fails
with the same ``(oracle, kind)`` bucket as the input; every trace entry
left is load-bearing at chunk granularity (1-minimality was attempted
until the evaluation budget ran out); and the final fingerprint is
recomputed from the minimized case's own failure, so the corpus bucket
matches what replay will observe.

The evaluation budget (``max_evaluations``) bounds oracle re-runs, not
wall-clock directly; each evaluation is one full oracle-stack pass over
the candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import FuzzError
from .fuzz import CaseOutcome, FuzzCase, FuzzFailure, run_case

#: Hierarchy defaults the config-reduction phase moves toward
#: (mirrors :class:`repro.core.params.HierarchyParams`).
_DEFAULT_HIERARCHY = {
    "l1_4kb": [64, 4],
    "l1_2mb": [32, 4],
    "l1_1gb_entries": 4,
    "l2_page": [512, 4],
    "l1_range_entries": 4,
    "l2_range_entries": 32,
}

_DEFAULT_SIM = {
    "fast_forward_fraction": 0.1,
    "timeline_windows": 5,
    "walk_l1_hit_ratio": 1.0,
}


@dataclass(slots=True)
class MinimizationResult:
    """What the minimizer produced for one failing case."""

    case: FuzzCase
    failure: FuzzFailure
    evaluations: int
    original_entries: int
    entries: int


class _Budget:
    """Counts oracle evaluations; exhaustion stops further shrinking."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.spent = 0

    @property
    def exhausted(self) -> bool:
        return self.spent >= self.limit

    def charge(self) -> None:
        self.spent += 1


def _still_fails(
    candidate: FuzzCase,
    reference: FuzzFailure,
    budget: _Budget,
    run,
) -> FuzzFailure | None:
    """Run the candidate; return its failure if it stays in the bucket."""
    if budget.exhausted:
        return None
    budget.charge()
    try:
        outcome: CaseOutcome = run(candidate)
    except Exception:  # noqa: BLE001 — a broken candidate is just "no"
        return None
    if outcome.ok:
        return None
    if not outcome.failure.same_bucket_shape(reference):
        return None
    return outcome.failure


# ----------------------------------------------------------------------
# Trace reduction
# ----------------------------------------------------------------------
def _materialize_trace(case: FuzzCase) -> FuzzCase:
    """Pin the generated trace to literal entries (generator-independent)."""
    if case.trace["kind"] == "literal":
        return case
    return case.with_literal_trace(case.build_trace(case.build_workload()))


def _ddmin_chunks(vpns: list[int], attempt, budget: _Budget) -> list[int]:
    """Classic ddmin: remove complement chunks at growing granularity."""
    granularity = 2
    while len(vpns) >= 2 and not budget.exhausted:
        chunk = max(1, len(vpns) // granularity)
        reduced = False
        start = 0
        while start < len(vpns) and not budget.exhausted:
            candidate = vpns[:start] + vpns[start + chunk :]
            if candidate and attempt(candidate):
                vpns = candidate
                reduced = True
                # Same start now addresses the next chunk.
            else:
                start += chunk
        if not reduced:
            if chunk == 1:
                break
            granularity = min(len(vpns), granularity * 2)
    return vpns


def _collapse_streaks(vpns: list[int], attempt, budget: _Budget) -> list[int]:
    """Shrink repeat-runs: collapse to singletons, else halve lengths."""
    def runs(entries: list[int]) -> list[tuple[int, int]]:
        encoded: list[tuple[int, int]] = []
        for vpn in entries:
            if encoded and encoded[-1][0] == vpn:
                encoded[-1] = (vpn, encoded[-1][1] + 1)
            else:
                encoded.append((vpn, 1))
        return encoded

    changed = True
    while changed and not budget.exhausted:
        changed = False
        encoded = runs(vpns)
        # All runs to singletons at once (cheap big win when legal).
        flat = [vpn for vpn, _ in encoded]
        if len(flat) < len(vpns) and attempt(flat):
            vpns = flat
            changed = True
            continue
        # Otherwise halve each multi-entry run individually.
        for index, (vpn, length) in enumerate(encoded):
            if length < 2 or budget.exhausted:
                continue
            shrunk = encoded[: index] + [(vpn, max(1, length // 2))] + encoded[index + 1 :]
            candidate = [v for v, n in shrunk for _ in range(n)]
            if attempt(candidate):
                vpns = candidate
                changed = True
                break
    return vpns


# ----------------------------------------------------------------------
# Config reduction
# ----------------------------------------------------------------------
def _config_reduction_steps(case: FuzzCase):
    """Candidate simplifications, cheapest/most-effective first.

    Each entry is ``(description, transform)``; a transform returns a
    simplified copy or ``None`` when it does not apply to this case.
    """
    def drop_events(c: FuzzCase):
        return replace(c, events=None) if c.events is not None else None

    def drop_faults(c: FuzzCase):
        if c.trace["kind"] == "generated" and c.trace["faults"]:
            return replace(c, trace={**c.trace, "faults": []})
        return None

    def default_hierarchy(c: FuzzCase):
        if c.hierarchy != _DEFAULT_HIERARCHY:
            return replace(c, hierarchy=dict(_DEFAULT_HIERARCHY))
        return None

    def default_sim(c: FuzzCase):
        if c.sim != _DEFAULT_SIM:
            return replace(c, sim=dict(_DEFAULT_SIM))
        return None

    def full_thp(c: FuzzCase):
        return replace(c, thp_coverage=1.0) if c.thp_coverage != 1.0 else None

    def single_region(c: FuzzCase):
        regions = c.workload["regions"]
        if len(regions) <= 1:
            return None
        first = regions[0]
        return replace(
            c,
            workload={
                **c.workload,
                "regions": [first],
                "pattern": {
                    "kind": "sequential",
                    "region": first[0],
                    "stride_pages": 1,
                    "burst": 1,
                },
            },
        )

    def plain_pattern(c: FuzzCase):
        pattern = c.workload["pattern"]
        region = c.workload["regions"][0][0]
        plain = {"kind": "sequential", "region": region, "stride_pages": 1, "burst": 1}
        if pattern != plain:
            return replace(c, workload={**c.workload, "pattern": plain})
        return None

    def coarse_digests(c: FuzzCase):
        return replace(c, digest_every=1) if c.digest_every != 1 else None

    return [
        ("drop OS events", drop_events),
        ("drop trace faults", drop_faults),
        ("default hierarchy geometry", default_hierarchy),
        ("default sim params", default_sim),
        ("full THP coverage", full_thp),
        ("single region", single_region),
        ("sequential pattern", plain_pattern),
        ("digest every boundary", coarse_digests),
    ]


def _reduce_lite(case: FuzzCase, attempt_case, budget: _Budget) -> FuzzCase:
    """Move Lite knobs one field at a time toward quiet defaults."""
    if case.lite is None:
        return case
    quiet = {
        "epsilon_relative": 0.125,
        "epsilon_absolute": 0.1,
        "reactivate_probability": 0.0,
        "min_ways": 1,
        "seed": 0,
    }
    for key, value in quiet.items():
        if budget.exhausted or case.lite.get(key) == value:
            continue
        candidate = replace(case, lite={**case.lite, key: value})
        accepted = attempt_case(candidate)
        if accepted is not None:
            case = accepted
    return case


def minimize_case(
    case: FuzzCase,
    failure: FuzzFailure,
    max_evaluations: int = 160,
    run=run_case,
) -> MinimizationResult:
    """Shrink a failing case while its ``(oracle, kind)`` bucket holds.

    ``run`` is injectable for tests (and must have :func:`run_case`'s
    contract).  The returned failure is the *minimized case's own* —
    its fingerprint is what the corpus buckets and replay checks.
    """
    if failure is None:
        raise FuzzError("minimize_case needs the failure the case produced")
    budget = _Budget(max_evaluations)
    original_entries = case.trace_entries()

    # Restrict the oracle stack to the failing oracle (taxonomy escapes
    # can surface from any run, so keep the full stack for those).
    if failure.oracle in case.oracles and failure.oracle != "taxonomy":
        focused = replace(case, oracles=(failure.oracle,))
        focused_failure = _still_fails(focused, failure, budget, run)
        if focused_failure is not None:
            case, failure = focused, focused_failure

    # Pin the trace to literal entries so shrinking operates on data.
    try:
        literal = _materialize_trace(case)
    except Exception:  # noqa: BLE001 — keep the generated form if broken
        literal = None
    if literal is not None and literal is not case:
        literal_failure = _still_fails(literal, failure, budget, run)
        if literal_failure is not None:
            case, failure = literal, literal_failure

    best = {"case": case, "failure": failure}

    def attempt_vpns(vpns: list[int]) -> bool:
        candidate = best["case"].with_literal_trace(vpns)
        candidate_failure = _still_fails(candidate, best["failure"], budget, run)
        if candidate_failure is None:
            return False
        best["case"], best["failure"] = candidate, candidate_failure
        return True

    def attempt_case(candidate: FuzzCase) -> FuzzCase | None:
        candidate_failure = _still_fails(candidate, best["failure"], budget, run)
        if candidate_failure is None:
            return None
        best["case"], best["failure"] = candidate, candidate_failure
        return candidate

    if best["case"].trace["kind"] == "literal":
        vpns = [int(v) for v in best["case"].trace["vpns"]]
        vpns = _ddmin_chunks(vpns, attempt_vpns, budget)
        vpns = _collapse_streaks(vpns, attempt_vpns, budget)

    for _description, transform in _config_reduction_steps(best["case"]):
        if budget.exhausted:
            break
        candidate = transform(best["case"])
        if candidate is not None:
            attempt_case(candidate)
    _reduce_lite(best["case"], attempt_case, budget)

    # Config simplification can unlock further trace shrinking.
    if best["case"].trace["kind"] == "literal" and not budget.exhausted:
        vpns = [int(v) for v in best["case"].trace["vpns"]]
        vpns = _ddmin_chunks(vpns, attempt_vpns, budget)
        _collapse_streaks(vpns, attempt_vpns, budget)

    return MinimizationResult(
        case=best["case"],
        failure=best["failure"],
        evaluations=budget.spent,
        original_entries=original_entries,
        entries=best["case"].trace_entries(),
    )
