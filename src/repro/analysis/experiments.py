"""Shared experiment drivers: run (workload × configuration) matrices.

Every benchmark harness and example builds on these helpers so that a
figure's numbers always come from the same pipeline: build the process
under the configuration's paging policy, build the TLB organization,
generate the workload's reference stream, and simulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.organizations import (
    CONFIG_NAMES,
    build_organization,
    lite_params_for,
    paging_policy_for,
)
from ..core.params import HierarchyParams, LiteParams, SimulationParams, scaled_lite_interval
from ..core.simulator import Simulator
from ..core.stats import SimulationResult
from ..errors import SettingsError
from ..mem.physical import PhysicalMemory
from ..mem.process import Process
from ..workloads.base import Workload


@dataclass(frozen=True)
class ExperimentSettings:
    """Run-level knobs shared across a whole figure/table."""

    trace_accesses: int = 1_000_000
    seed: int = 42
    thp_coverage: float = 1.0
    physical_bytes: int = 32 << 30
    sim_params: SimulationParams = field(default_factory=SimulationParams)

    def __post_init__(self) -> None:
        if (
            not isinstance(self.trace_accesses, int)
            or isinstance(self.trace_accesses, bool)
            or self.trace_accesses <= 0
        ):
            raise SettingsError(
                f"trace_accesses must be a positive integer, got {self.trace_accesses!r}"
            )
        if (
            not isinstance(self.physical_bytes, int)
            or isinstance(self.physical_bytes, bool)
            or self.physical_bytes <= 0
        ):
            raise SettingsError(
                f"physical_bytes must be a positive integer, got {self.physical_bytes!r}"
            )
        if (
            not isinstance(self.thp_coverage, (int, float))
            or isinstance(self.thp_coverage, bool)
            or not math.isfinite(self.thp_coverage)
            or not 0.0 <= self.thp_coverage <= 1.0
        ):
            raise SettingsError(
                f"thp_coverage must be a finite value in [0, 1], got {self.thp_coverage!r}"
            )

    def scaled_lite_interval(self) -> int:
        """Lite interval matched to this trace length (see :func:`scaled_lite_interval`)."""
        return scaled_lite_interval(self.trace_accesses)


@dataclass(slots=True)
class PreparedRun:
    """Everything one simulation cell needs, before the trace is fed.

    Exposing the pieces (not just the result) lets the resilience layer
    perturb the trace, schedule adversarial OS events against the live
    process, and attach an invariant auditor — all without re-implementing
    the canonical build pipeline.  ``events`` is the cell's OS-event
    schedule (``(position, callable)`` pairs, see
    :meth:`repro.core.simulator.Simulator.run`); ``prepare_run`` leaves it
    ``None`` and callers set it against the built process.
    """

    workload: Workload
    config_name: str
    settings: ExperimentSettings
    process: Process
    organization: object
    trace: object
    simulator: Simulator
    events: list | None = None

    def run(self, checkpoint_hook=None, resume_state=None) -> SimulationResult:
        """Feed the (possibly perturbed) trace and events through the simulator.

        ``checkpoint_hook``/``resume_state`` pass through to
        :meth:`repro.core.simulator.Simulator.run`; see
        :mod:`repro.resilience.checkpoint` for the snapshot machinery
        built on them.
        """
        return self.simulator.run(
            self.trace,
            events=self.events,
            checkpoint_hook=checkpoint_hook,
            resume_state=resume_state,
        )


def prepare_run(
    workload: Workload,
    config_name: str,
    settings: ExperimentSettings | None = None,
    hierarchy_params: HierarchyParams | None = None,
    lite_params: LiteParams | None = None,
    auditor=None,
    on_fault: str = "raise",
    engine: str = "reference",
    observability=None,
) -> PreparedRun:
    """Build the process, organization, trace, and simulator for one cell."""
    settings = settings or ExperimentSettings()
    policy = paging_policy_for(config_name, settings.thp_coverage)
    process = workload.build_process(
        policy, physical=PhysicalMemory(settings.physical_bytes, seed=settings.seed)
    )
    organization = build_organization(
        config_name,
        process,
        params=hierarchy_params,
        lite_params=lite_params or lite_params_for(config_name, settings.trace_accesses),
    )
    trace = workload.trace(settings.trace_accesses, seed=settings.seed)
    simulator = Simulator(
        organization,
        workload_name=workload.name,
        instructions_per_access=workload.instructions_per_access,
        sim_params=settings.sim_params,
        auditor=auditor,
        on_fault=on_fault,
        engine=engine,
        observability=observability,
    )
    return PreparedRun(
        workload=workload,
        config_name=config_name,
        settings=settings,
        process=process,
        organization=organization,
        trace=trace,
        simulator=simulator,
    )


def run_workload_config(
    workload: Workload,
    config_name: str,
    settings: ExperimentSettings | None = None,
    hierarchy_params: HierarchyParams | None = None,
    lite_params: LiteParams | None = None,
    auditor=None,
    on_fault: str = "raise",
) -> SimulationResult:
    """Simulate one workload under one named configuration."""
    result, _organization = run_workload_config_with_org(
        workload,
        config_name,
        settings,
        hierarchy_params=hierarchy_params,
        lite_params=lite_params,
        auditor=auditor,
        on_fault=on_fault,
    )
    return result


def run_workload_config_with_org(
    workload: Workload,
    config_name: str,
    settings: ExperimentSettings | None = None,
    hierarchy_params: HierarchyParams | None = None,
    lite_params: LiteParams | None = None,
    auditor=None,
    on_fault: str = "raise",
):
    """Like :func:`run_workload_config` but also returns the organization.

    The organization carries the energy bindings that post-hoc analyses
    (e.g. the Section 6.2 static-energy model) need alongside the result.

    The figure drivers run the fast engine, whose results and state
    digests equal the reference loop's at every boundary; an
    ``on_fault="record"`` run still takes the reference loop.
    """
    prepared = prepare_run(
        workload,
        config_name,
        settings,
        hierarchy_params=hierarchy_params,
        lite_params=lite_params,
        auditor=auditor,
        on_fault=on_fault,
        engine="fast",
    )
    return prepared.run(), prepared.organization


@dataclass(frozen=True, slots=True)
class ReplicatedMetric:
    """Mean and spread of a metric over seed replicas."""

    mean: float
    minimum: float
    maximum: float
    values: tuple[float, ...]

    @property
    def spread(self) -> float:
        """Max minus min — the error-bar width."""
        return self.maximum - self.minimum


def run_replicated(
    workload: Workload,
    config_name: str,
    settings: ExperimentSettings | None = None,
    seeds: tuple[int, ...] = (42, 43, 44),
    **kwargs,
) -> dict[str, ReplicatedMetric]:
    """Run one (workload, configuration) under several trace seeds.

    Returns mean/min/max for the headline metrics — the error bars behind
    any single-seed number.  Every replica re-derives its trace, frame
    placement, and Zipf/hot-set layouts from the seed.
    """
    settings = settings or ExperimentSettings()
    metrics: dict[str, list[float]] = {
        "energy_per_access_pj": [],
        "l1_mpki": [],
        "l2_mpki": [],
        "miss_cycles": [],
    }
    for seed in seeds:
        replica_settings = ExperimentSettings(
            trace_accesses=settings.trace_accesses,
            seed=seed,
            thp_coverage=settings.thp_coverage,
            physical_bytes=settings.physical_bytes,
            sim_params=settings.sim_params,
        )
        result = run_workload_config(workload, config_name, replica_settings, **kwargs)
        metrics["energy_per_access_pj"].append(result.energy_per_access_pj)
        metrics["l1_mpki"].append(result.l1_mpki)
        metrics["l2_mpki"].append(result.l2_mpki)
        metrics["miss_cycles"].append(float(result.miss_cycles))
    return {
        name: ReplicatedMetric(
            mean=sum(values) / len(values),
            minimum=min(values),
            maximum=max(values),
            values=tuple(values),
        )
        for name, values in metrics.items()
    }


def run_matrix(
    workloads: list[Workload],
    config_names: tuple[str, ...] = CONFIG_NAMES,
    settings: ExperimentSettings | None = None,
    **kwargs,
) -> dict[tuple[str, str], SimulationResult]:
    """Run every (workload, configuration) pair; keys are (name, config)."""
    settings = settings or ExperimentSettings()
    results: dict[tuple[str, str], SimulationResult] = {}
    for workload in workloads:
        for config_name in config_names:
            results[(workload.name, config_name)] = run_workload_config(
                workload, config_name, settings, **kwargs
            )
    return results
