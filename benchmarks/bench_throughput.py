"""Simulator throughput: accesses per second per (trace, config, engine).

Not a paper figure — the performance characteristics of the simulator
itself, which bound experiment sizes (the repro band for this paper notes
"simplified trace simulator; slow on full workloads").  pytest-benchmark
measures the steady-state simulation rate of both drain engines over two
trace regimes:

* ``omnetpp`` — the registry workload whose Zipf/burst mix produces
  short streaks (mean run length ~1.2): the *adversarial* case for the
  streak-coalescing fast engine, which then wins only through its
  shape-specialized per-access pipeline;
* ``stream`` — a paper-motivated spatial-locality regime (Section 3:
  real address streams are dominated by long same-page runs) with
  burst-8 Zipf streaks, where run-length coalescing pays off fully.

Guardrails: the reference engine keeps the historical 20k acc/s floor;
the fast engine is held to per-config floors set ~4x below the rates
measured on a development machine, so a regression that halves fast-path
throughput fails loudly while CI-runner jitter does not.  Floors that
loose cannot see a 2% cost, so the zero-cost claim of disabled telemetry
(``docs/observability.md``) is gated by the paired comparison in
``scripts/perf_smoke.py`` instead.

Each round builds its process, organization and simulator in the
untimed ``setup`` of ``benchmark.pedantic``; only the drain is timed, so
the rates are simulation rates, not build-plus-simulation rates.
"""

import pytest

from repro.analysis.experiments import ExperimentSettings
from repro.core.fastpath import ENGINES
from repro.core.organizations import build_organization, paging_policy_for
from repro.core.simulator import Simulator
from repro.mem.physical import PhysicalMemory
from repro.workloads.base import VMASpec, Workload
from repro.workloads.patterns import Zipf
from repro.workloads.registry import get_workload

ACCESSES = 60_000
CONFIGS = ("4KB", "THP", "TLB_Lite", "RMM", "RMM_Lite", "TLB_PP")
TRACES = ("omnetpp", "stream")

#: Fast-engine accesses/second floors per configuration (both traces; the
#: omnetpp rates bound the stream rates from below).
FAST_FLOORS = {
    "4KB": 40_000,
    "THP": 120_000,
    "TLB_Lite": 100_000,
    "RMM": 120_000,
    "RMM_Lite": 50_000,
    "TLB_PP": 100_000,
}
#: The historical single floor, now scoped to the reference engine.
REFERENCE_FLOOR = 20_000


def stream_workload() -> Workload:
    """Long-streak bench workload: 512 hot pages, burst-8 Zipf."""
    return Workload(
        "stream",
        "BENCH",
        [VMASpec("stream", 2)],  # 2 MiB = 512 pages
        lambda regions: Zipf(regions["stream"], alpha=1.0, burst=8),
        instructions_per_access=get_workload("omnetpp").instructions_per_access,
        description="spatial-locality regime: long same-page runs",
    )


def bench_workload(trace_name: str) -> Workload:
    return get_workload("omnetpp") if trace_name == "omnetpp" else stream_workload()


def build_simulator(workload: Workload, config: str, engine: str) -> Simulator:
    """A fresh process, organization and simulator: the untimed setup."""
    settings = ExperimentSettings(trace_accesses=ACCESSES)
    process = workload.build_process(
        paging_policy_for(config), PhysicalMemory(settings.physical_bytes, seed=1)
    )
    return Simulator(
        build_organization(config, process),
        instructions_per_access=workload.instructions_per_access,
        engine=engine,
    )


def drain(simulator: Simulator, trace):
    """The timed call: one whole-trace drain, no build."""
    return simulator.run(trace, fast_forward_accesses=0)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("trace_name", TRACES)
def test_throughput(benchmark, trace_name, config, engine):
    workload = bench_workload(trace_name)
    trace = workload.trace(ACCESSES, seed=1)
    result = benchmark.pedantic(
        drain,
        setup=lambda: ((build_simulator(workload, config, engine), trace), {}),
        rounds=3,
        iterations=1,
    )
    assert result.accesses == ACCESSES
    if benchmark.stats is None:  # --benchmark-disable: correctness only
        return
    seconds = benchmark.stats.stats.mean
    rate = ACCESSES / seconds
    floor = FAST_FLOORS[config] if engine == "fast" else REFERENCE_FLOOR
    assert rate > floor, (
        f"{trace_name}/{config}/{engine} simulated at {rate:.0f} acc/s "
        f"(floor {floor})"
    )
