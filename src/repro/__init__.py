"""repro — reproduction of "Energy-Efficient Address Translation" (HPCA 2016).

The library provides, as importable building blocks:

* :mod:`repro.tlb` — set-associative / fully-associative / range TLBs with
  true-LRU replacement and way-disabling;
* :mod:`repro.mmu` — x86-64 four-level page table, paging-structure
  caches, and the hardware page walker;
* :mod:`repro.mem` — the OS memory-management substrate (buddy frame
  allocator, VMAs, demand/THP/eager paging, the RMM range table);
* :mod:`repro.core` — the Lite way-disabling mechanism, the six paper
  configurations, and the trace-driven MMU simulator;
* :mod:`repro.energy` — the paper's Table 2 Cacti parameters and Table 3
  energy/performance models;
* :mod:`repro.workloads` — synthetic SPEC/PARSEC/BioBench workload models;
* :mod:`repro.analysis` — experiment drivers and report rendering;
* :mod:`repro.resilience` — fault injection, the runtime invariant
  auditor, and the checkpoint/resume sweep runner (see
  ``docs/robustness.md``), with the error taxonomy in
  :mod:`repro.errors`;
* :mod:`repro.lint` — reprolint, the AST-based static-analysis pass
  that enforces the same invariants at lint time (see
  ``docs/static_analysis.md``).

Quickstart::

    from repro import ExperimentSettings, get_workload, run_workload_config

    result = run_workload_config(
        get_workload("mcf"), "RMM_Lite", ExperimentSettings(trace_accesses=200_000)
    )
    print(result.summary_line())
"""

from .analysis import (
    ExperimentSettings,
    average_ratio,
    normalized_energy,
    normalized_miss_cycles,
    reduction_percent,
    render_table,
    run_matrix,
    run_replicated,
    run_workload_config,
    run_workload_config_with_org,
)
from .core import (
    CONFIG_NAMES,
    RMM_LITE_PARAMS,
    TLB_LITE_PARAMS,
    HierarchyParams,
    LiteController,
    LiteParams,
    Organization,
    SimulationParams,
    SimulationResult,
    Simulator,
    build_organization,
    paging_policy_for,
)
from .energy import EnergyModel
from .errors import ConfigurationError, InvariantViolation, ReproError
from .mem import (
    DemandPaging,
    EagerPaging,
    PhysicalMemory,
    Process,
    TransparentHugePaging,
)
from .mmu import PageSize, PageTable, RangeTranslation, Translation
from .resilience import InvariantAuditor, run_resilient_sweep
from .workloads import (
    Workload,
    all_workloads,
    get_workload,
    other_workloads,
    tlb_intensive_workloads,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # analysis
    "ExperimentSettings",
    "run_workload_config",
    "run_matrix",
    "run_replicated",
    "run_workload_config_with_org",
    "normalized_energy",
    "normalized_miss_cycles",
    "average_ratio",
    "reduction_percent",
    "render_table",
    # core
    "CONFIG_NAMES",
    "build_organization",
    "paging_policy_for",
    "Organization",
    "Simulator",
    "SimulationResult",
    "SimulationParams",
    "HierarchyParams",
    "LiteParams",
    "LiteController",
    "TLB_LITE_PARAMS",
    "RMM_LITE_PARAMS",
    # energy
    "EnergyModel",
    # errors / resilience
    "ReproError",
    "ConfigurationError",
    "InvariantViolation",
    "InvariantAuditor",
    "run_resilient_sweep",
    # mem
    "Process",
    "PhysicalMemory",
    "DemandPaging",
    "TransparentHugePaging",
    "EagerPaging",
    # mmu
    "PageSize",
    "Translation",
    "RangeTranslation",
    "PageTable",
    # workloads
    "Workload",
    "all_workloads",
    "get_workload",
    "tlb_intensive_workloads",
    "other_workloads",
]
