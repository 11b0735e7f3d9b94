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

Each interval leaves one :class:`LiteIntervalRecord` in ``history``: interval
counts, Lite's configuration over time and resize telemetry all derive from it.
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
    """One interval's decision: what Lite measured, predicted and chose.

    ``predicted_mpki`` maps each monitored TLB to the ``[units, predicted
    MPKI]`` pair of every candidate the Figure 7 scan evaluated, largest
    first; it is empty on a reactivation.  The scan's bound is
    ``params.threshold(actual_mpki)``.
    """

    instructions_seen: int
    actual_mpki: float
    action: str  # 'decide', 'random-reactivate', 'degradation-reactivate'
    active_units: dict[str, int]
    predicted_mpki: dict[str, list[list]]

    def to_json(self) -> dict:
        """Pure-JSON record; ``LiteIntervalRecord(**data)`` rebuilds it."""
        return {
            "instructions_seen": self.instructions_seen,
            "actual_mpki": self.actual_mpki,
            "action": self.action,
            "active_units": self.active_units,
            "predicted_mpki": self.predicted_mpki,
        }


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
        self.history: list[LiteIntervalRecord] = []

    # ------------------------------------------------------------------
    def end_interval(self, l1_misses: int, instructions: int) -> LiteIntervalRecord:
        """Run the decision algorithm; returns the interval's record."""
        if instructions <= 0:
            raise SimulationError("interval must cover at least one instruction")
        actual_mpki = l1_misses * 1000.0 / instructions
        params = self.params
        previous = self.history[-1] if self.history else None
        predicted_mpki: dict[str, list[list]] = {}
        if self._rng.random() < params.reactivate_probability:
            action = "random-reactivate"
            self._activate_all()
        elif (
            previous is not None
            and actual_mpki > params.threshold(previous.actual_mpki)
        ):
            action = "degradation-reactivate"
            self._activate_all()
        else:
            action = "decide"
            for tlb in self.tlbs:
                predicted_mpki[tlb.name] = self._decide(tlb, actual_mpki, instructions)
        for counters in self.counters.values():
            counters.reset()
        seen_before = previous.instructions_seen if previous is not None else 0
        record = LiteIntervalRecord(
            instructions_seen=seen_before + instructions,
            actual_mpki=actual_mpki,
            action=action,
            active_units=self.active_configuration(),
            predicted_mpki=predicted_mpki,
        )
        self.history.append(record)
        return record

    # ------------------------------------------------------------------
    def _activate_all(self) -> None:
        """Re-enable the full capacity of every monitored TLB.

        A resize syncs pending counts into the histograms, which
        snapshots see, so a TLB already at full size is left alone.
        """
        for tlb in self.tlbs:
            if tlb.active_units != tlb.max_units:
                tlb.set_active_units(tlb.max_units)

    def _decide(self, tlb, actual_mpki: float, instructions: int) -> list[list]:
        """Pick the smallest way count within ε of the actual MPKI.

        The predicted extra misses grow monotonically as ways shrink, so
        the scan halves the way count until the threshold is exceeded; it
        returns the ``[units, predicted MPKI]`` pair of each candidate.
        """
        counters = self.counters[tlb.name]
        threshold = self.params.threshold(actual_mpki)
        scanned: list[list] = []
        chosen = tlb.active_units
        candidate = chosen // 2
        while candidate >= self.params.min_ways:
            predicted = (
                actual_mpki + counters.extra_misses(candidate) * 1000.0 / instructions
            )
            scanned.append([candidate, predicted])
            if predicted > threshold:
                break
            chosen = candidate
            candidate //= 2
        if chosen != tlb.active_units:
            tlb.set_active_units(chosen)
        return scanned

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
        the decision-side state — RNG stream, distance counters, and the
        interval history, whose last record is the MPKI memory.
        """
        return {
            "rng": rng_state_to_json(self._rng.getstate()),
            "counters": {
                name: counters.state_dict()
                for name, counters in sorted(self.counters.items())
            },
            "history": [record.to_json() for record in self.history],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore controller state onto a canonically built controller."""
        require(
            sorted(state["counters"]) == sorted(self.counters),
            "Lite snapshot monitors different TLBs than this controller: "
            f"{sorted(state['counters'])} vs {sorted(self.counters)}",
        )
        self._rng.setstate(rng_state_from_json(state["rng"]))
        for name, values in state["counters"].items():
            self.counters[name].load_state_dict(values)
        self.history = [LiteIntervalRecord(**data) for data in state["history"]]
