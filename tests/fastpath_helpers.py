"""Shared differential-run fixtures for the engine and observability suites.

``test_fastpath.py`` proved the fast engine equivalent to the reference
loop with a small digest harness; the observability suite needs the same
harness to prove telemetry *inert* (digest-identical with the hub off,
on, and exporting mid-run).  The pieces live here, importable from both
suites as ``tests.fastpath_helpers``.

The trace scale is deliberately tiny (6 000 accesses) but the boundary
schedule is adversarial: the run length of the synthetic streak traces
divides neither the timeline window nor the Lite interval, so samples
and ``end_interval`` calls land mid-streak and force boundary splits.
"""

import numpy as np

from repro.analysis.experiments import ExperimentSettings, prepare_run
from repro.resilience.bisect import describe_divergence, record_trail
from repro.resilience.checkpoint import first_divergence
from repro.workloads.base import VMASpec, Workload
from repro.workloads.patterns import Zipf
from repro.workloads.tracefile import as_vpn_array

SETTINGS = ExperimentSettings(trace_accesses=6_000, seed=5, physical_bytes=1 << 28)

#: Run length of the synthetic streak traces.  Chosen so the default
#: boundary schedule splits runs: the timeline window (5400 measured
#: accesses / 50 windows = 108) and the scaled Lite interval
#: (10_000 instructions / 3 ipa = 3333 accesses) are both indivisible
#: by it, so samples and interval ends land mid-run.
RUN_LENGTH = 40


def small_workload(name: str = "fastpath") -> Workload:
    return Workload(
        name,
        "TEST",
        [VMASpec("heap", 6), VMASpec("stack", 1, thp_eligible=False)],
        lambda regions: Zipf(regions["heap"].subregion(0, 24), alpha=1.1, burst=3),
        instructions_per_access=3.0,
    )


def streaky_trace() -> np.ndarray:
    """A mapped trace of constant-length streaks (RUN_LENGTH repeats)."""
    prepared = prepare_run(small_workload(), "4KB", SETTINGS)
    base = as_vpn_array(prepared.trace)[: SETTINGS.trace_accesses // RUN_LENGTH]
    return np.repeat(base, RUN_LENGTH)


def mixed_trace() -> np.ndarray:
    """Streaks over all three 2 MB heap chunks and the 4 KB-only stack.

    The small workload's own trace stays inside one huge page, which a
    mixed-page-size L1 serves from a single entry.  This trace spreads
    over 150 heap and 120 stack pages, so the mixed hierarchies meet 4 KB
    and 2 MB keys, L1 evictions and deeper-rank hits, L2 hits, and, under
    RMM_PP_Lite, L2-range hits that latch the L1-range TLB and synthesise
    4 KB entries (on huge chunks too).  Runs of 1-11 accesses put
    boundaries inside streaks.
    """
    regions = small_workload().regions()
    heap, stack = regions["heap"], regions["stack"]
    rng = np.random.default_rng(11)
    pool = np.concatenate(
        [
            heap.start_vpn + rng.choice(heap.num_pages, 150, replace=False),
            stack.start_vpn + rng.choice(stack.num_pages, 120, replace=False),
        ]
    )
    pages = rng.choice(pool, size=SETTINGS.trace_accesses)
    runs = rng.integers(1, 12, size=SETTINGS.trace_accesses)
    return np.repeat(pages, runs)[: SETTINGS.trace_accesses]


def run_with_digests(
    config_name,
    trace,
    engine,
    events_at=(),
    observability=None,
    on_boundary=None,
    make_events=None,
):
    """One run over a custom trace: (digest trail, result).

    ``events_at`` schedules TLB flushes; ``make_events(process)`` adds a
    schedule built against the cell's live process (demotion storms).
    ``observability`` threads a telemetry hub through the simulator and
    the checkpointer; ``on_boundary(boundary)`` is called from the
    checkpoint hook at every interval boundary (the inertness suite uses
    it to export metrics *during* the run).
    """
    prepared = prepare_run(
        small_workload(),
        config_name,
        SETTINGS,
        engine=engine,
        observability=observability,
    )
    prepared.trace = trace
    prepared.events = [
        (position, lambda org: org.hierarchy.flush_tlbs()) for position in events_at
    ]
    if make_events is not None:
        prepared.events += make_events(prepared.process)
    hook = None
    if on_boundary is not None:

        def hook(state):
            on_boundary(state["boundary"])

    run = record_trail(prepared, observability=observability, on_boundary=hook)
    return run.trail, run.result


def assert_engines_agree(config_name, trace, events_at=(), make_events=None):
    ref_trail, ref_result = run_with_digests(
        config_name, trace, "reference", events_at, make_events=make_events
    )
    fast_trail, fast_result = run_with_digests(
        config_name, trace, "fast", events_at, make_events=make_events
    )
    divergence = first_divergence(ref_trail, fast_trail)
    assert divergence is None, describe_divergence(divergence)
    assert fast_result == ref_result
