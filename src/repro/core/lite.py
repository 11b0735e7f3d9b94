"""The Lite mechanism: interval-based TLB way-disabling (paper Section 4.2).

Lite divides execution into fixed instruction-count intervals.  During an
interval it tracks (i) the actual number of L1 TLB misses (the aggregate
``actual-misses-counter``) and (ii) per-TLB LRU-distance counters
(:class:`repro.core.counters.LRUDistanceCounters`).  At each interval end
the decision algorithm (Figure 7) runs:

1. with probability p, re-enable *all* ways of *all* monitored TLBs —
   Lite cannot reason about inactive ways, so random full activation
   discovers upside and breaks pathological phase alignment;
2. otherwise, if this interval's actual MPKI degraded beyond the ε
   threshold relative to the previous interval, re-enable all ways
   (phase change / THP breakdown response);
3. otherwise, for each monitored TLB independently, choose the smallest
   power-of-two way count whose *predicted* MPKI — actual MPKI plus the
   misses the distance counters say the disabled ways would have added —
   stays within ε of the actual MPKI.

Disabling ways invalidates their entries (Section 4.2.3); re-enabled ways
come up empty.  A TLB is resized down to ``min_ways`` (1 in the paper) but
never fully disabled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ConfigurationError, SimulationError
from ..stateful import require, rng_state_from_json, rng_state_to_json
from .counters import LRUDistanceCounters
from .params import LiteParams


@dataclass(frozen=True, slots=True)
class LiteIntervalRecord:
    """One interval's outcome, for timelines and the sensitivity benches."""

    instructions_seen: int
    actual_mpki: float
    action: str  # 'decide', 'random-reactivate', 'degradation-reactivate'
    active_units: dict[str, int]


@dataclass(slots=True)
class LiteStats:
    """Aggregate counts of the controller's actions."""

    intervals: int = 0
    downsizes: int = 0
    random_reactivations: int = 0
    degradation_reactivations: int = 0

    def record_interval(self, action: str) -> None:
        """Count one finished interval by the action the controller took."""
        self.intervals += 1
        if action == "random-reactivate":
            self.random_reactivations += 1
        elif action == "degradation-reactivate":
            self.degradation_reactivations += 1

    def record_downsize(self) -> None:
        """Count one unit shrunk by the decision algorithm."""
        self.downsizes += 1

    def state_dict(self) -> dict:
        """Pure-JSON counters (checkpoint protocol)."""
        return {
            "intervals": self.intervals,
            "downsizes": self.downsizes,
            "random_reactivations": self.random_reactivations,
            "degradation_reactivations": self.degradation_reactivations,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore counters from :meth:`state_dict` output."""
        self.intervals = state["intervals"]
        self.downsizes = state["downsizes"]
        self.random_reactivations = state["random_reactivations"]
        self.degradation_reactivations = state["degradation_reactivations"]


class LiteController:
    """Drives Lite over a set of monitored L1-page TLBs.

    The caller (the simulator) invokes :meth:`end_interval` every
    ``params.interval_instructions`` instructions with the aggregate L1
    miss count of the interval just ended.  Each monitored TLB has a
    power-of-two ``max_units`` (ways, or entries for Section 4.4's
    fully-associative TLBs) and resizes through ``set_active_units``.
    """

    def __init__(self, tlbs: list, params: LiteParams) -> None:
        self.params = params
        self.tlbs = list(tlbs)
        self.counters: dict[str, LRUDistanceCounters] = {}
        for tlb in self.tlbs:
            if tlb.max_units & (tlb.max_units - 1):
                raise ConfigurationError(
                    f"{tlb.name}: capacity {tlb.max_units} not a power of two"
                )
            counters = LRUDistanceCounters(tlb.max_units)
            tlb.hit_rank_counters = counters.raw
            self.counters[tlb.name] = counters
        self._rng = random.Random(params.seed)
        self.previous_mpki: float | None = None
        self.stats = LiteStats()
        self.history: list[LiteIntervalRecord] = []
        self._instructions_seen = 0

    # ------------------------------------------------------------------
    def end_interval(self, l1_misses: int, instructions: int) -> str:
        """Run the decision algorithm; returns the action taken."""
        if instructions <= 0:
            raise SimulationError("interval must cover at least one instruction")
        self._instructions_seen += instructions
        actual_mpki = l1_misses * 1000.0 / instructions
        params = self.params
        if self._rng.random() < params.reactivate_probability:
            action = "random-reactivate"
            self._activate_all()
        elif (
            self.previous_mpki is not None
            and actual_mpki > params.threshold(self.previous_mpki)
        ):
            action = "degradation-reactivate"
            self._activate_all()
        else:
            action = "decide"
            for tlb in self.tlbs:
                self._decide(tlb, actual_mpki, instructions)
        self.stats.record_interval(action)
        self.previous_mpki = actual_mpki
        for counters in self.counters.values():
            counters.reset()
        self.history.append(
            LiteIntervalRecord(
                instructions_seen=self._instructions_seen,
                actual_mpki=actual_mpki,
                action=action,
                active_units=self.active_configuration(),
            )
        )
        return action

    # ------------------------------------------------------------------
    def _activate_all(self) -> None:
        """Re-enable the full capacity of every monitored TLB.

        A resize syncs pending counts into the histograms, which
        snapshots see, so a TLB already at full size is left alone.
        """
        for tlb in self.tlbs:
            if tlb.active_units != tlb.max_units:
                tlb.set_active_units(tlb.max_units)

    def _decide(self, tlb, actual_mpki: float, instructions: int) -> None:
        """Pick the smallest way count within ε of the actual MPKI.

        The predicted extra misses grow monotonically as ways shrink, so
        the scan halves the way count until the threshold is exceeded.
        """
        counters = self.counters[tlb.name]
        threshold = self.params.threshold(actual_mpki)
        chosen = tlb.active_units
        candidate = chosen // 2
        while candidate >= self.params.min_ways:
            predicted_mpki = (
                actual_mpki + counters.extra_misses(candidate) * 1000.0 / instructions
            )
            if predicted_mpki > threshold:
                break
            chosen = candidate
            candidate //= 2
        if chosen != tlb.active_units:
            self.stats.record_downsize()
            tlb.set_active_units(chosen)

    # ------------------------------------------------------------------
    def active_configuration(self) -> dict[str, int]:
        """Current active units per monitored TLB."""
        return {tlb.name: tlb.active_units for tlb in self.tlbs}

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Pure-JSON controller state.

        Active unit counts are *not* serialized here: they live in the
        monitored TLBs' own state dicts (restoring a TLB restores its
        ``active_ways``/``active_entries``), so the controller only owns
        the decision-side state — RNG stream, MPKI memory, distance
        counters, aggregate stats, and the interval history.
        """
        return {
            "rng": rng_state_to_json(self._rng.getstate()),
            "previous_mpki": self.previous_mpki,
            "instructions_seen": self._instructions_seen,
            "stats": self.stats.state_dict(),
            "counters": {
                name: counters.state_dict()
                for name, counters in sorted(self.counters.items())
            },
            "history": [
                {
                    "instructions_seen": record.instructions_seen,
                    "actual_mpki": record.actual_mpki,
                    "action": record.action,
                    "active_units": dict(sorted(record.active_units.items())),
                }
                for record in self.history
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore controller state onto a canonically built controller."""
        require(
            sorted(state["counters"]) == sorted(self.counters),
            "Lite snapshot monitors different TLBs than this controller: "
            f"{sorted(state['counters'])} vs {sorted(self.counters)}",
        )
        self._rng.setstate(rng_state_from_json(state["rng"]))
        self.previous_mpki = state["previous_mpki"]
        self._instructions_seen = state["instructions_seen"]
        self.stats.load_state_dict(state["stats"])
        for name, values in state["counters"].items():
            self.counters[name].load_state_dict(values)
        self.history = [
            LiteIntervalRecord(
                instructions_seen=record["instructions_seen"],
                actual_mpki=record["actual_mpki"],
                action=record["action"],
                active_units=dict(record["active_units"]),
            )
            for record in state["history"]
        ]
