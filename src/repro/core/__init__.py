"""Core: the Lite mechanism, TLB organizations, and the MMU simulator."""

from .counters import LRUDistanceCounters
from .hierarchy import (
    BaseHierarchy,
    ConfigurationError,
    L1Slot,
    MixedTLBHierarchy,
    TLBHierarchy,
)
from .lite import LiteController, LiteIntervalRecord
from .organizations import (
    CONFIG_NAMES,
    EXTENDED_CONFIG_NAMES,
    Organization,
    build_4kb,
    build_banked,
    build_fa_lite,
    build_l0_filter,
    build_organization,
    build_rmm,
    build_rmm_lite,
    build_rmm_pp_lite,
    build_semantic,
    build_thp,
    build_tlb_pred,
    build_tlb_lite,
    build_tlb_pp,
    paging_policy_for,
)
from .multiprocess import TimeSharingConfig, run_time_shared
from .params import (
    RMM_LITE_PARAMS,
    TLB_LITE_PARAMS,
    ConfigurationSummary,
    HierarchyParams,
    LiteParams,
    SetAssocParams,
    SimulationParams,
)
from .simulator import Simulator
from .stats import SimulationResult, TimelineSample

__all__ = [
    "LRUDistanceCounters",
    "LiteController",
    "LiteIntervalRecord",
    "TLBHierarchy",
    "MixedTLBHierarchy",
    "BaseHierarchy",
    "L1Slot",
    "ConfigurationError",
    "Organization",
    "CONFIG_NAMES",
    "EXTENDED_CONFIG_NAMES",
    "build_organization",
    "build_4kb",
    "build_banked",
    "build_thp",
    "build_tlb_lite",
    "build_rmm",
    "build_tlb_pp",
    "build_rmm_lite",
    "build_fa_lite",
    "build_l0_filter",
    "build_tlb_pred",
    "build_rmm_pp_lite",
    "build_semantic",
    "paging_policy_for",
    "HierarchyParams",
    "SetAssocParams",
    "LiteParams",
    "TLB_LITE_PARAMS",
    "RMM_LITE_PARAMS",
    "SimulationParams",
    "ConfigurationSummary",
    "Simulator",
    "TimeSharingConfig",
    "run_time_shared",
    "SimulationResult",
    "TimelineSample",
]
