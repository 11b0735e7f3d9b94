"""Per-benchmark models of the paper's TLB-intensive workloads.

One module per benchmark (Table 4), each documenting the paper anchors
its parameters were calibrated against.  The registry
(:mod:`repro.workloads.registry`) imports each builder from its module;
see ``docs/workloads.md`` for the shared methodology and
``repro.workloads.tiers`` for the tier builders.
"""
