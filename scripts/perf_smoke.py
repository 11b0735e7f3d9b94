#!/usr/bin/env python3
"""CI perf-smoke gate for the streak-coalescing fast engine.

Three checks, all required:

1. **Differential equivalence** — every TLB organization runs four ways
   (reference/fast engine, each bare and with a live observability hub)
   with per-component state digests recorded at every interval boundary;
   any result mismatch or digest divergence (localized via
   :mod:`repro.resilience.bisect`) fails the gate.  This is the
   telemetry *inertness* proof riding the same harness as the engine
   equivalence proof.
2. **Throughput floor** — a reduced run over the long-streak ``stream``
   bench trace; the fast engine must stay at least ``--min-speedup``
   (default 1.5x, far below the ~5-8x a quiet machine measures, so CI
   jitter does not flake) above the reference engine on 4KB and THP.
3. **Telemetry-disabled work** — on the same stream cells (4KB and
   THP), a fast drain with a *disabled* observability hub attached must
   make exactly as many Python and C calls (``sys.setprofile`` ``call``
   and ``c_call`` events) as the bare fast drain, and run byte-identical
   generated drain sources (at least one): disabled telemetry must be
   free, not merely cheap.  Counting work instead of timing it makes the check immune to
   runner noise.

Exit 0 when all hold, 1 otherwise.

Usage::

    PYTHONPATH=src python scripts/perf_smoke.py
        [--accesses N] [--bench-accesses N] [--min-speedup R]
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_throughput import drain, prepare_cell, stream_workload  # noqa: E402

from repro.analysis.experiments import ExperimentSettings, prepare_run  # noqa: E402
from repro.core.organizations import EXTENDED_CONFIG_NAMES  # noqa: E402
from repro.observability import Observability  # noqa: E402
from repro.resilience.bisect import describe_divergence, record_trail  # noqa: E402
from repro.resilience.checkpoint import first_divergence  # noqa: E402
from repro.workloads.base import VMASpec, Workload  # noqa: E402
from repro.workloads.patterns import Zipf  # noqa: E402

GATED_CONFIGS = ("4KB", "THP")


def smoke_workload() -> Workload:
    return Workload(
        "perf-smoke",
        "TEST",
        [VMASpec("heap", 6), VMASpec("stack", 1, thp_eligible=False)],
        lambda regions: Zipf(regions["heap"].subregion(0, 24), alpha=1.1, burst=3),
        instructions_per_access=3.0,
    )


def check_equivalence(accesses: int) -> bool:
    """All configurations, four ways: identical results + digests.

    Baseline is the bare reference run; the bare fast run proves engine
    equivalence, and the two hub-carrying runs prove telemetry inertness
    under either engine.
    """
    settings = ExperimentSettings(
        trace_accesses=accesses, seed=5, physical_bytes=1 << 28
    )
    workload = smoke_workload()
    ok = True
    variants = (
        ("fast", "reference"),
        ("reference+obs", "reference"),
        ("fast+obs", "fast"),
    )
    for config in EXTENDED_CONFIG_NAMES:
        baseline = record_trail(prepare_run(workload, config, settings))
        failed = False
        for label, engine in variants:
            observability = Observability() if label.endswith("+obs") else None
            prepared = prepare_run(
                workload, config, settings, engine=engine, observability=observability
            )
            run = record_trail(prepared, observability=observability)
            divergence = first_divergence(baseline.trail, run.trail)
            if divergence is not None:
                print(f"FAIL {config} [{label}]: {describe_divergence(divergence)}")
                failed = True
            elif run.result != baseline.result:
                print(
                    f"FAIL {config} [{label}]: results differ with identical digests"
                )
                failed = True
        if failed:
            ok = False
        else:
            print(
                f"ok   {config}: {baseline.boundaries} boundaries byte-identical "
                f"across {len(variants) + 1} runs"
            )
    return ok


def throughput(workload, config: str, engine: str, accesses: int) -> float:
    prepared = prepare_cell(workload, config, engine, accesses)
    start = time.perf_counter()
    drain(prepared)
    return accesses / (time.perf_counter() - start)


def check_speedup(accesses: int, min_speedup: float) -> bool:
    """Fast engine must beat reference by ``min_speedup`` on 4KB/THP."""
    workload = stream_workload()
    ok = True
    for config in GATED_CONFIGS:
        # Best of two rounds per engine smooths one-off scheduler stalls.
        reference = max(
            throughput(workload, config, "reference", accesses) for _ in range(2)
        )
        fast = max(throughput(workload, config, "fast", accesses) for _ in range(2))
        ratio = fast / reference
        verdict = "ok  " if ratio >= min_speedup else "FAIL"
        if ratio < min_speedup:
            ok = False
        print(
            f"{verdict} {config}: fast {fast:,.0f} acc/s vs reference "
            f"{reference:,.0f} acc/s ({ratio:.2f}x, floor {min_speedup}x)"
        )
    return ok


def profiled_drain(prepared) -> tuple[int, list[str]]:
    """Drain a cell under ``sys.setprofile``.

    Returns the number of Python and C calls the drain made, and the
    sources of the generated drains it ran, in first-run order.  The
    cyclic collector is held off during the drain: a collection would
    count its ``gc.callbacks`` and finalizers, which are not the
    drain's work.
    """
    calls = 0
    sources: list[str] = []

    def profile(frame, event, _arg) -> None:
        nonlocal calls
        if event == "c_call":
            calls += 1
        elif event == "call":
            calls += 1
            # Generated drains are exec'd into their own namespace, which
            # binds their source as ``__repro_source__``.
            code = frame.f_code
            if code.co_filename == "<string>" and code.co_name == "drain":
                source = frame.f_globals["__repro_source__"]
                if source not in sources:
                    sources.append(source)

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        drain(prepared)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls, sources


def check_telemetry_work(accesses: int) -> bool:
    """A disabled hub must add no call and change no generated drain.

    ``Observability.resolve`` collapses ``enabled=False`` to ``None``
    before the drain loop starts, so both drains must run the same code.
    Both gated configurations drain through the paged template, so a
    bare drain that ran no generated drain means the profiler lost
    track of them, and the source comparison would prove nothing.
    """
    hub = Observability(enabled=False)
    workload = stream_workload()
    # The first drain in a process pays one-off calls (ABC caches).
    drain(prepare_cell(workload, GATED_CONFIGS[0], "fast", accesses))
    ok = True
    for config in GATED_CONFIGS:
        bare_calls, bare_sources = profiled_drain(
            prepare_cell(workload, config, "fast", accesses)
        )
        hub_calls, hub_sources = profiled_drain(
            prepare_cell(workload, config, "fast", accesses, hub)
        )
        if not bare_sources:
            sources = "no generated drain seen"
        elif hub_sources == bare_sources:
            sources = f"{len(bare_sources)} generated drain source(s) identical"
        else:
            sources = "generated drain sources differ"
        same = (
            hub_calls == bare_calls and bool(bare_sources)
            and hub_sources == bare_sources
        )
        if not same:
            ok = False
        verdict = "ok  " if same else "FAIL"
        print(
            f"{verdict} {config}: {hub_calls:,} calls with the hub vs "
            f"{bare_calls:,} bare; {sources}"
        )
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=6_000)
    parser.add_argument("--bench-accesses", type=int, default=60_000)
    parser.add_argument("--min-speedup", type=float, default=1.5)
    args = parser.parse_args()

    print(f"[1/3] differential equivalence ({len(EXTENDED_CONFIG_NAMES)} configs, "
          f"{args.accesses} accesses, digests at every boundary, engines x "
          f"telemetry)")
    equivalent = check_equivalence(args.accesses)
    print(f"[2/3] throughput gate (stream trace, {args.bench_accesses} accesses)")
    fast_enough = check_speedup(args.bench_accesses, args.min_speedup)
    print(f"[3/3] telemetry-disabled gate (stream trace, {args.bench_accesses} "
          f"accesses, calls counted, no extra allowed)")
    telemetry_free = check_telemetry_work(args.bench_accesses)
    if equivalent and fast_enough and telemetry_free:
        print("perf-smoke: ok")
        return 0
    print("perf-smoke: FAILED")
    return 1


if __name__ == "__main__":
    sys.exit(main())
