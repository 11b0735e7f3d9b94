"""Static (leakage) energy model — the paper's Section 6.2 extension.

The paper focuses on dynamic energy but notes that "the proposed
techniques can also reduce the static (leakage) energy of TLBs when
combined with schemes that power-gate the disabled ways" (gated-Vdd
etc.).  Table 2 supplies per-structure leakage power for every
way-disabled configuration, which is all the model needs:

* execution time comes from the instruction count at a nominal IPC and
  clock, plus the TLB-miss cycles of the run;
* without power gating, every structure leaks at its full-configuration
  power for the whole run;
* with power gating, a structure's leakage follows its active
  configuration, time-weighted by the per-way lookup histogram the
  simulator already records (lookups are issued every cycle-ish, so the
  histogram is a faithful proxy for residency time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - avoid energy <-> core import cycle
    from ..core.organizations import Organization
    from ..core.stats import SimulationResult

#: mW * seconds -> pJ.
_MW_S_TO_PJ = 1e9


@dataclass(frozen=True, slots=True)
class StaticEnergyModel:
    """Leakage energy estimator over a simulation's execution time."""

    frequency_ghz: float = 3.0
    ipc: float = 1.0

    def execution_seconds(self, result: "SimulationResult") -> float:
        """Wall time of the measured window: compute + TLB-miss cycles."""
        if self.frequency_ghz <= 0 or self.ipc <= 0:
            raise ConfigurationError("frequency and IPC must be positive")
        cycles = result.instructions / self.ipc + result.miss_cycles
        return cycles / (self.frequency_ghz * 1e9)

    def leakage_pj(
        self,
        organization: "Organization",
        result: "SimulationResult",
        power_gating: bool = True,
    ) -> dict[str, float]:
        """Per-structure leakage energy (pJ) over the measured window.

        ``organization`` supplies each structure's Table 2 parameters per
        way configuration; ``result`` supplies the per-configuration
        lookup histogram and the execution time.
        """
        seconds = self.execution_seconds(result)
        leakage: dict[str, float] = {}
        for binding in organization.bindings:
            stats = result.structure_stats.get(binding.name)
            histogram = stats.lookups_by_ways if stats is not None else {}
            total_lookups = sum(histogram.values())
            if power_gating and total_lookups:
                milliwatts = sum(
                    count / total_lookups * binding.params_for_ways(ways).leakage_mw
                    for ways, count in histogram.items()
                )
            else:
                # The full configuration leaks for the whole run
                # (structures that were never probed still leak unless
                # gated off entirely).
                milliwatts = binding.params_for_ways(binding.full_units).leakage_mw
            leakage[binding.name] = milliwatts * seconds * _MW_S_TO_PJ
        return leakage

    def total_leakage_pj(
        self,
        organization: "Organization",
        result: "SimulationResult",
        power_gating: bool = True,
    ) -> float:
        """Sum of per-structure leakage energies."""
        return sum(self.leakage_pj(organization, result, power_gating).values())

    def total_energy_pj(
        self,
        organization: "Organization",
        result: "SimulationResult",
        power_gating: bool = True,
    ) -> float:
        """Dynamic + static energy of the address-translation path."""
        return result.total_energy_pj + self.total_leakage_pj(
            organization, result, power_gating
        )
