"""Workload registry: lookup by name, grouping by suite/intensity."""

from __future__ import annotations

from ..errors import UnknownWorkloadError, WorkloadError
from .base import Workload
from .benchmarks.astar import astar
from .benchmarks.cactusadm import cactusadm
from .benchmarks.canneal import canneal
from .benchmarks.gemsfdtd import gemsfdtd
from .benchmarks.mcf import mcf
from .benchmarks.mummer import mummer
from .benchmarks.omnetpp import omnetpp
from .benchmarks.zeusmp import zeusmp
from .secondary import parsec_other_workloads, spec_other_workloads

#: Builders for the paper's TLB-intensive evaluation set, in paper order.
TLB_INTENSIVE_BUILDERS = (
    astar,
    cactusadm,
    gemsfdtd,
    mcf,
    omnetpp,
    zeusmp,
    mummer,
    canneal,
)


def _build_all() -> dict[str, Workload]:
    workloads: dict[str, Workload] = {}
    for builder in TLB_INTENSIVE_BUILDERS:
        workload = builder()
        workloads[workload.name] = workload
    for workload in spec_other_workloads() + parsec_other_workloads():
        if workload.name in workloads:
            raise WorkloadError(f"duplicate workload name {workload.name!r}")
        workloads[workload.name] = workload
    return workloads


_REGISTRY: dict[str, Workload] | None = None


def all_workloads() -> dict[str, Workload]:
    """Every registered workload by name (built lazily, cached)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_all()
    return _REGISTRY


def get_workload(name: str) -> Workload:
    """Look one workload up by name.

    Raises :class:`repro.errors.UnknownWorkloadError` (a ``KeyError``)
    carrying did-you-mean suggestions and the full known-name list.
    """
    workloads = all_workloads()
    if name not in workloads:
        raise UnknownWorkloadError(name, workloads)
    return workloads[name]


def tlb_intensive_workloads() -> list[Workload]:
    """The paper's main evaluation set, in paper order."""
    return [w for w in all_workloads().values() if w.tlb_intensive]

def other_workloads(suite: str | None = None) -> list[Workload]:
    """The Figure 12 set, optionally filtered by suite."""
    return [
        w
        for w in all_workloads().values()
        if not w.tlb_intensive and (suite is None or w.suite == suite)
    ]
