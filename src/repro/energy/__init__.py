"""Energy and performance models (paper Tables 2 and 3)."""

from .cacti import (
    L1_CACHE,
    L2_CACHE_READ_PJ,
    MMU_CACHE_PDE,
    TABLE2_FULLY_ASSOC,
    TABLE2_PAGE_TLB,
    TABLE2_RANGE_TLB,
    EnergyParams,
    fully_assoc_params,
    page_tlb_params,
)
from .model import COMPONENTS, EnergyBinding, EnergyBreakdown, EnergyModel
from .static import StaticEnergyModel
from .performance import (
    L2_LOOKUP_CYCLES,
    PAGE_WALK_CYCLES,
    CycleBreakdown,
    miss_cycles,
    mpki,
)

__all__ = [
    "EnergyParams",
    "page_tlb_params",
    "fully_assoc_params",
    "TABLE2_PAGE_TLB",
    "TABLE2_FULLY_ASSOC",
    "TABLE2_RANGE_TLB",
    "MMU_CACHE_PDE",
    "L1_CACHE",
    "L2_CACHE_READ_PJ",
    "EnergyModel",
    "StaticEnergyModel",
    "EnergyBinding",
    "EnergyBreakdown",
    "COMPONENTS",
    "CycleBreakdown",
    "miss_cycles",
    "mpki",
    "L2_LOOKUP_CYCLES",
    "PAGE_WALK_CYCLES",
]
