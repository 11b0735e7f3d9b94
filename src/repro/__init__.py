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

The packages re-export nothing: import each name from the module that
defines it.  Quickstart::

    from repro.analysis.experiments import ExperimentSettings, run_workload_config
    from repro.workloads.registry import get_workload

    result = run_workload_config(
        get_workload("mcf"), "RMM_Lite", ExperimentSettings(trace_accesses=200_000)
    )
    print(result.summary_line())
"""
