"""Configuration parameters for TLB organizations (paper Table 1 / Fig. 9).

Defaults model the Intel Sandy Bridge per-core data-TLB hierarchy the
paper uses as its baseline:

* L1-4KB TLB: 64 entries, 4-way
* L1-2MB TLB: 32 entries, 4-way
* L1-1GB TLB: 4 entries, fully associative
* L2-4KB TLB: 512 entries, 4-way (4 KB translations only)
* L2-range TLB (RMM): 32 entries, fully associative
* L1-range TLB (RMM_Lite): 4 entries, fully associative

and the Lite mechanism's knobs (Section 5): 1 M-instruction intervals,
ε = 12.5 % relative (TLB_Lite) or 0.1 MPKI absolute (RMM_Lite), random
full re-activation probability swept over 1/8 … 1/128.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError, SettingsError


@dataclass(frozen=True, slots=True)
class SetAssocParams:
    """Geometry of one set-associative TLB."""

    entries: int
    ways: int

    @property
    def sets(self) -> int:
        return self.entries // self.ways


@dataclass(frozen=True, slots=True)
class HierarchyParams:
    """Geometry of every structure in the per-core TLB hierarchy."""

    l1_4kb: SetAssocParams = SetAssocParams(64, 4)
    l1_2mb: SetAssocParams = SetAssocParams(32, 4)
    l1_1gb_entries: int = 4
    l2_page: SetAssocParams = SetAssocParams(512, 4)
    l1_range_entries: int = 4
    l2_range_entries: int = 32


@dataclass(frozen=True, slots=True)
class LiteParams:
    """Knobs of the Lite mechanism (Sections 4.2 and 5).

    ``threshold_mode`` selects how ε is applied when comparing a predicted
    MPKI against the reference MPKI: ``"relative"`` allows a fractional
    increase (``epsilon_relative``), ``"absolute"`` a fixed MPKI increase
    (``epsilon_absolute``).  The paper uses relative for TLB_Lite and
    absolute for RMM_Lite, whose reference MPKI is near zero.
    """

    interval_instructions: int = 1_000_000
    threshold_mode: str = "relative"
    epsilon_relative: float = 0.125
    epsilon_absolute: float = 0.1
    reactivate_probability: float = 1.0 / 64.0
    min_ways: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.threshold_mode not in ("relative", "absolute"):
            raise ConfigurationError(
                "threshold_mode must be 'relative' or 'absolute'"
            )
        if self.interval_instructions <= 0:
            raise ConfigurationError("interval_instructions must be positive")
        if not 0.0 <= self.reactivate_probability <= 1.0:
            raise ConfigurationError("reactivate_probability must be in [0, 1]")
        if self.min_ways < 1:
            raise ConfigurationError("min_ways must be >= 1")

    def threshold(self, reference_mpki: float) -> float:
        """Largest acceptable MPKI given the reference value."""
        if self.threshold_mode == "relative":
            return reference_mpki * (1.0 + self.epsilon_relative)
        return reference_mpki + self.epsilon_absolute


#: Lite parameters the paper uses for TLB_Lite (Section 5).
TLB_LITE_PARAMS = LiteParams(threshold_mode="relative", epsilon_relative=0.125)

#: Lite parameters the paper uses for RMM_Lite (Section 5).
RMM_LITE_PARAMS = LiteParams(threshold_mode="absolute", epsilon_absolute=0.1)


def scaled_lite_interval(accesses: int) -> int:
    """Lite interval matched to a scaled-down trace of ``accesses`` accesses.

    The paper pairs a 1 M-instruction interval with 50 G simulated
    instructions (50 000 intervals).  At bench-scale traces we keep
    ~150 intervals: enough decisions per phase for Lite to adapt,
    while keeping each interval long enough that the fixed cost of a
    reconfiguration (refilling invalidated ways) stays small relative
    to the interval, as it is at the paper's scale.
    """
    approx_instructions = accesses * 3
    return max(10_000, approx_instructions // 150)


@dataclass(frozen=True, slots=True)
class SimulationParams:
    """Run-level knobs shared by all experiments.

    The paper fast-forwards 50 G instructions and simulates 50 G; the
    synthetic workloads are stationary per phase, so defaults here are
    scaled down (fractions are what matter, see DESIGN.md).  The timeline
    window drives Figure 4-style MPKI-over-time sampling.
    """

    fast_forward_fraction: float = 0.1
    timeline_windows: int = 50
    walk_l1_hit_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fast_forward_fraction < 1.0:
            raise SettingsError("fast_forward_fraction must be in [0, 1)")
        if self.timeline_windows < 1:
            raise SettingsError("timeline_windows must be >= 1")


@dataclass(frozen=True)
class ConfigurationSummary:
    """Printable description of one simulated configuration (Fig. 9)."""

    name: str
    page_sizes: tuple[str, ...]
    structures: tuple[str, ...]
    lite: str | None = None
    notes: str = ""

    def render(self) -> str:
        lines = [f"{self.name}: pages {'+'.join(self.page_sizes)}"]
        for structure in self.structures:
            lines.append(f"  - {structure}")
        if self.lite:
            lines.append(f"  - Lite: {self.lite}")
        if self.notes:
            lines.append(f"  ({self.notes})")
        return "\n".join(lines)
