"""Trace-driven MMU simulator (the paper's Pin-based infrastructure).

Feeds a virtual-page reference stream through an
:class:`repro.core.organizations.Organization`, handling:

* **fast-forward** — a warm-up prefix that exercises the hierarchy (and
  Lite) but is excluded from all measurements, mirroring the paper's
  50 G-instruction fast-forward;
* **Lite intervals** — the controller's ``end_interval`` fires every
  ``interval_instructions`` (converted to accesses via the workload's
  instructions-per-memory-operation ratio);
* **timeline sampling** — windowed aggregate L1 MPKI for Figure 4-style
  plots; Lite's configuration over time is its own ``history``.

Instruction counts derive from the access count times the workload's
``instructions_per_access`` ratio — the reference streams carry no
instruction semantics, only their density relative to memory operations.
"""

from __future__ import annotations

from functools import partial

from ..energy.model import EnergyModel
from ..energy.performance import miss_cycles
from ..errors import CheckpointError, ConfigurationError, SimulationError
from ..mmu.page_table import PageFault
from ..observability import Observability, SimulatorInstrumentation
from .fastpath import ENGINES, FastEngine
from .organizations import Organization
from .params import SimulationParams
from .stats import FaultRecord, SimulationResult, TimelineSample

#: Exceptions a fault-tolerant run survives per access (``on_fault="record"``).
#: Everything else (programming errors, resource exhaustion) still raises.
FAULT_EXCEPTIONS = (PageFault, ConfigurationError, ValueError, KeyError,
                    IndexError, OverflowError)

#: A tolerant run keeps a :class:`FaultRecord` for at most this many
#: faulted accesses; ``faulted_accesses`` still counts every one.
MAX_FAULT_RECORDS = 256


def _ignore(*_args) -> None:
    """Stand-in for a telemetry hook when the run has no hub."""


def ordered_events(events) -> list[tuple[int, object]]:
    """An OS-event schedule in firing order: a stable sort by position."""
    return sorted(events or [], key=lambda event: event[0])


class Simulator:
    """Runs reference traces through one configuration.

    ``on_fault`` selects what a per-access exception does: ``"raise"``
    (default) propagates it; ``"record"`` survives :data:`FAULT_EXCEPTIONS`
    raised by an access (out-of-range or negative VPNs, adversarial events
    that desync the hierarchy), skipping the access and flagging the
    result via ``faulted_accesses``/``fault_records`` (the first
    :data:`MAX_FAULT_RECORDS` faults).

    ``auditor`` optionally enables sanitizer-style invariant checking (see
    :class:`repro.resilience.auditor.InvariantAuditor`): the accounting
    identities are verified at every timeline-sample boundary and once
    more on the finished result.

    ``engine`` selects the drain-loop implementation: ``"reference"``
    (default) iterates the trace through ``hierarchy.access``;
    ``"fast"`` uses the streak-coalescing engine
    (:mod:`repro.core.fastpath`), which produces byte-identical results
    and state digests at every boundary.  Fault-tolerant runs
    (``on_fault="record"``) always use the reference loop — per-access
    fault attribution is incompatible with coalescing.

    ``observability`` optionally attaches a telemetry hub
    (:class:`repro.observability.Observability`).  The hub is resolved
    at construction: a ``None`` or *disabled* hub stores as ``None`` and
    the run takes the bare code path — zero hot-loop overhead, and the
    fast engine, which bumps its probe outside generated code, runs the
    same generated drains either way.  An enabled hub collects
    boundary-granular counters, phase spans, and fast-engine probe
    counts without perturbing any result or state digest (the inertness
    guarantee proven by ``tests/test_observability.py``).
    """

    def __init__(
        self,
        organization: Organization,
        workload_name: str = "workload",
        instructions_per_access: float = 3.0,
        sim_params: SimulationParams | None = None,
        on_fault: str = "raise",
        auditor=None,
        engine: str = "reference",
        observability: Observability | None = None,
    ) -> None:
        if instructions_per_access <= 0:
            raise SimulationError("instructions_per_access must be positive")
        if on_fault not in ("raise", "record"):
            raise SimulationError(
                f"on_fault must be 'raise' or 'record', got {on_fault!r}"
            )
        if engine not in ENGINES:
            raise SimulationError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        self.organization = organization
        self.workload_name = workload_name
        self.instructions_per_access = instructions_per_access
        self.sim_params = sim_params or SimulationParams()
        self.energy_model = EnergyModel(
            walk_l1_hit_ratio=self.sim_params.walk_l1_hit_ratio
        )
        self.on_fault = on_fault
        self.auditor = auditor
        self.engine = engine
        self.observability = Observability.resolve(observability)

    # ------------------------------------------------------------------
    def run(
        self,
        trace,
        fast_forward_accesses: int | None = None,
        events: list[tuple[int, object]] | None = None,
        checkpoint_hook=None,
        resume_state: dict | None = None,
    ) -> SimulationResult:
        """Simulate a trace; returns measurements for the post-warmup part.

        ``trace`` is any sequence of 4 KB virtual page numbers (a numpy
        integer array or a list).  ``fast_forward_accesses`` overrides the
        default warm-up fraction.

        At the fast-forward edge the loop resets the hierarchy's measurements
        and the interval miss baseline and restarts Lite's interval grid, but
        keeps Lite's distance counters and history: the first measured
        decision weighs misses since the edge against hits since the last
        fast-forward interval end (or since access 0, if none ended).

        ``events`` schedules OS-level actions mid-run: a list of
        ``(access_index, callable)`` pairs, fired once the simulation
        reaches that trace position (e.g. huge-page breakdown under
        memory pressure, or a context-switch TLB flush).  The callable
        receives the organization.

        ``checkpoint_hook``, when given, is called at every *boundary* —
        each point where the drain loop stops (Lite interval end,
        timeline sample, event position, phase edge) — with a pure-JSON
        dict of the loop's own state (position, schedules, accumulated
        timeline/fault records).  :mod:`repro.resilience.checkpoint`
        builds snapshot writers and digest recorders on top of it.

        ``resume_state`` is such a dict: the loop fast-forwards its
        bookkeeping to the recorded position and continues from there.
        The *component* state (hierarchy, Lite, process) must already
        have been restored by the caller — the loop state only carries
        what the loop itself owns.  The loop does not fire the events
        fired before the snapshot: the restore
        (:func:`repro.resilience.checkpoint.restore_simulation`) has
        re-fired them against the rebuilt organization.
        """
        # Numpy traces stay arrays: the reference loop materializes only
        # one boundary-to-boundary segment at a time, and the fast engine
        # run-length-encodes the array directly.
        vpns = trace if hasattr(trace, "tolist") else list(trace)
        total = len(vpns)
        if total == 0:
            raise SimulationError("empty trace")
        if fast_forward_accesses is None:
            fast_forward_accesses = int(total * self.sim_params.fast_forward_fraction)
        if not 0 <= fast_forward_accesses < total:
            raise SimulationError("fast-forward must leave accesses to measure")

        hierarchy = self.organization.hierarchy
        lite = self.organization.lite
        access = hierarchy.access
        ipa = self.instructions_per_access
        interval_accesses = (
            max(1, round(lite.params.interval_instructions / ipa)) if lite else None
        )
        interval_instructions = (
            round(interval_accesses * ipa) if interval_accesses else 0
        )

        pending_events = ordered_events(events)
        event_index = 0

        def fire_events(position: int) -> None:
            nonlocal event_index
            while (
                event_index < len(pending_events)
                and pending_events[event_index][0] <= position
            ):
                pending_events[event_index][1](self.organization)
                event_index += 1

        def next_event_position() -> int:
            if event_index < len(pending_events):
                return max(pending_events[event_index][0], 1)
            return total + 1

        measured = total - fast_forward_accesses
        window = max(1, measured // self.sim_params.timeline_windows)
        window_instructions = max(1, round(window * ipa))

        # ----- loop state (everything the loop itself owns) -------------
        phase = "fast-forward"
        pos = 0
        boundary = 0
        next_interval = interval_accesses if lite else total + 1
        last_interval_misses = 0
        next_sample = -1
        last_sample_misses = 0
        lite_intervals_before = len(lite.history) if lite else 0
        faults: list[FaultRecord] = []
        faulted = 0
        timeline: list[TimelineSample] = []

        if resume_state is not None:
            if (
                resume_state["total"] != total
                or resume_state["fast_forward_accesses"] != fast_forward_accesses
            ):
                raise CheckpointError(
                    "resume state was taken on a different trace: "
                    f"total/ff {resume_state['total']}/"
                    f"{resume_state['fast_forward_accesses']} vs "
                    f"{total}/{fast_forward_accesses}"
                )
            phase = resume_state["phase"]
            pos = resume_state["pos"]
            boundary = resume_state["boundary"]
            event_index = resume_state["event_index"]
            next_interval = resume_state["next_interval"]
            last_interval_misses = resume_state["last_interval_misses"]
            next_sample = resume_state["next_sample"]
            last_sample_misses = resume_state["last_sample_misses"]
            lite_intervals_before = resume_state["lite_intervals_before"]
            faulted = resume_state["faulted"]
            faults = [
                FaultRecord(index, vpn, error, message)
                for index, vpn, error, message in resume_state["faults"]
            ]
            timeline = [
                TimelineSample(instructions, l1_mpki)
                for instructions, l1_mpki in resume_state["timeline"]
            ]

        def loop_state() -> dict:
            return {
                "phase": phase,
                "pos": pos,
                "total": total,
                "fast_forward_accesses": fast_forward_accesses,
                "boundary": boundary,
                "event_index": event_index,
                "next_interval": next_interval,
                "last_interval_misses": last_interval_misses,
                "next_sample": next_sample,
                "last_sample_misses": last_sample_misses,
                "lite_intervals_before": lite_intervals_before,
                "faulted": faulted,
                "faults": [
                    [record.index, record.vpn, record.error, record.message]
                    for record in faults
                ],
                "timeline": [
                    [sample.instructions, sample.l1_mpki] for sample in timeline
                ],
            }

        # ----- hot loop: fast engine, or the reference loop -------------
        tolerant = self.on_fault == "record"

        # A disabled hub resolved to None at construction, so ``inst is
        # None`` *is* the bare path — no telemetry object exists at all.
        inst = None
        if self.observability is not None:
            inst = SimulatorInstrumentation(
                self.observability,
                workload=self.workload_name,
                configuration=self.organization.name,
                engine=self.engine,
                total=total,
                fast_engine=self.engine == "fast" and not tolerant,
            )

        if self.engine == "fast" and not tolerant:
            engine_probe = inst.probe if inst is not None else None
            drain = FastEngine(hierarchy, vpns, probe=engine_probe).drain
        else:

            def drain(start: int, stop: int) -> None:
                nonlocal faulted
                segment = vpns[start:stop]
                it = iter(segment.tolist() if hasattr(segment, "tolist") else segment)
                while True:
                    try:
                        for vpn in it:
                            access(vpn)
                        return
                    except FAULT_EXCEPTIONS as exc:
                        if not tolerant:
                            raise
                        # Skip the faulted access; the loop resumes the iterator.
                        if len(faults) < MAX_FAULT_RECORDS:
                            index = stop - it.__length_hint__() - 1
                            faults.append(
                                FaultRecord(index, int(vpn), type(exc).__name__, str(exc))
                            )
                        faulted += 1

        # Telemetry is applied once, here, by wrapping: the loop below is
        # the same code with or without a hub.
        end_interval = lite.end_interval if lite is not None else None
        begin_phase = record_sample = _ignore
        if inst is not None:
            drain = inst.timed_drain(drain)
            if lite is not None:
                end_interval = partial(inst.lite_interval, lite)
            begin_phase, record_sample = inst.begin_phase, inst.sample

        # ----- one loop over the boundary schedule -----------------------
        # Fast-forward warms the structures (Lite live) and its stats are
        # discarded at the phase edge; the measured phase adds timeline
        # samples.  Every stop of the drain is a boundary.
        begin_phase(phase)
        if resume_state is None:
            fire_events(0)
        while pos < total:
            if phase == "fast-forward" and pos == fast_forward_accesses:
                hierarchy.reset_measurement()
                last_interval_misses = 0
                lite_intervals_before = len(lite.history) if lite else 0
                if lite is not None:
                    next_interval = pos + interval_accesses
                next_sample = pos + window
                last_sample_misses = 0
                phase = "measured"
                begin_phase(phase)
            horizon = (
                fast_forward_accesses
                if phase == "fast-forward"
                else min(total, next_sample)
            )
            stop = min(horizon, next_interval, next_event_position())
            drain(pos, stop)
            pos = stop
            fire_events(pos)
            if lite is not None and pos == next_interval:
                misses = hierarchy.l1_misses
                end_interval(misses - last_interval_misses, interval_instructions)
                last_interval_misses = misses
                next_interval += interval_accesses
            if pos == next_sample:
                misses = hierarchy.l1_misses
                delta = misses - last_sample_misses
                timeline.append(
                    TimelineSample(
                        instructions=round((pos - fast_forward_accesses) * ipa),
                        l1_mpki=delta * 1000.0 / window_instructions,
                    )
                )
                last_sample_misses = misses
                next_sample += window
                record_sample()
                if self.auditor is not None:
                    self.auditor.audit_hierarchy(hierarchy, lite, faulted)
            boundary += 1
            if checkpoint_hook is not None:
                checkpoint_hook(loop_state())

        # ----- collect results ------------------------------------------
        hierarchy.sync_stats()
        instructions = round(measured * ipa)
        energy = self.energy_model.compute(
            self.organization.bindings,
            page_walk_refs=hierarchy.walker.stats.memory_refs,
            range_walk_refs=hierarchy.range_walk_refs,
        )
        result = SimulationResult(
            configuration=self.organization.name,
            workload=self.workload_name,
            accesses=measured,
            instructions=instructions,
            l1_misses=hierarchy.l1_misses,
            l2_misses=hierarchy.l2_misses,
            page_walks=hierarchy.walker.stats.walks,
            page_walk_refs=hierarchy.walker.stats.memory_refs,
            range_walk_refs=hierarchy.range_walk_refs,
            energy=energy,
            cycles=miss_cycles(hierarchy.l1_misses, hierarchy.l2_misses, instructions),
            structure_stats={
                structure.name: structure.stats.snapshot()
                for structure in hierarchy.all_structures()
            },
            hit_attribution=hierarchy.hit_attribution(),
            timeline=timeline,
            lite_intervals=(len(lite.history) - lite_intervals_before) if lite else 0,
            faulted_accesses=faulted,
            fault_records=faults,
        )
        if self.auditor is not None:
            self.auditor.audit_hierarchy(hierarchy, lite, faulted)
            self.auditor.audit_result(
                result, self.organization, self.energy_model
            )
        if inst is not None:
            inst.finish(result, events_fired=event_index)
        return result
