"""Workload model: address-space layout + reference-stream generator.

A :class:`Workload` owns (i) the VMAs the benchmark maps (sizes from the
paper's Table 4, split into the program's dominant data structures) and
(ii) a pattern factory that builds the reference stream over those VMAs.

The same workload must be comparable across configurations, so VMA
placement is deterministic: building the process for any paging policy
yields the same virtual layout, and traces are generated against that
layout independently of the policy.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import TraceError, WorkloadError
from ..mem.paging import PagingPolicy
from ..mem.physical import PhysicalMemory
from ..mem.process import Process
from ..mem.vma import AddressSpace
from .patterns import AccessPattern, Region

#: 4 KB pages per MiB.
PAGES_PER_MB = 256

#: The latest trace :meth:`Workload.trace` generated (or
#: :func:`load_or_generate_trace` loaded), as ``[workload, num_accesses,
#: seed, trace, encoding]``; ``encoding`` (None until asked for) is
#: :func:`shared_encoding`'s.  One process-wide slot suffices because
#: every matrix walk loops workload-major, so a workload's configurations
#: ask for its trace back to back.
_latest_trace: list | None = None


def shared_encoding(trace, encode):
    """``encode(trace)``, kept for the slot's own array (matched by identity)
    and dropped with it; any other trace is encoded afresh and not kept.
    The caller supplies ``encode``, so the slot never knows the format."""
    if _latest_trace is None or trace is not _latest_trace[3]:
        return encode(trace)
    if _latest_trace[4] is None:
        _latest_trace[4] = encode(trace)
    return _latest_trace[4]


def load_or_generate_trace(
    workload: Workload, num_accesses: int, seed: int, path: Path
) -> np.ndarray:
    """``workload.trace(num_accesses, seed=seed)``, shared through ``path``.

    When ``path`` exists, its array is loaded (no pickles) and becomes the
    slot's trace, so the next :meth:`Workload.trace` call with these
    arguments returns it instead of generating.  Otherwise the trace is
    generated and saved under a temporary name in ``path``'s directory,
    then renamed onto ``path``: a reader sees the whole file or none, and
    processes that race on one path write the same bytes.  Nothing is
    fsynced; ``path`` belongs to a directory its owner deletes.  A file of
    another dtype or length raises :class:`TraceError`.
    """
    global _latest_trace
    try:
        trace = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        trace = workload.trace(num_accesses, seed=seed)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            np.save(handle, trace)
        os.replace(tmp_name, path)
        return trace
    if trace.dtype != np.int64 or trace.shape != (num_accesses,):
        raise TraceError(
            f"{path} holds a {trace.dtype} trace of shape {trace.shape}, "
            f"not {num_accesses} int64 accesses"
        )
    trace.flags.writeable = False
    _latest_trace = [workload, num_accesses, seed, trace, None]
    return trace


@dataclass(frozen=True, slots=True)
class VMASpec:
    """One region the workload maps: name, size, THP eligibility."""

    name: str
    mb: float
    thp_eligible: bool = True

    @property
    def pages(self) -> int:
        return max(1, round(self.mb * PAGES_PER_MB))


class Workload:
    """A synthetic stand-in for one benchmark.

    Parameters
    ----------
    name / suite:
        Benchmark identity ("mcf", "SPEC 2006"). ``suite`` groups
        workloads for the Figure 12 sweeps.
    vma_specs:
        Regions to map, in placement order.
    pattern_factory:
        Called with ``{vma name: Region}``; returns the trace pattern.
    instructions_per_access:
        Ratio of instructions to memory operations; converts access
        counts to instruction counts (MPKI denominators, Lite intervals).
    tlb_intensive:
        True for the paper's main evaluation set (> 5 L1 MPKI at 4 KB).
    """

    def __init__(
        self,
        name: str,
        suite: str,
        vma_specs: list[VMASpec],
        pattern_factory: Callable[[dict[str, Region]], AccessPattern],
        instructions_per_access: float = 3.0,
        tlb_intensive: bool = False,
        description: str = "",
    ) -> None:
        if not vma_specs:
            raise WorkloadError("workload needs at least one VMA")
        self.name = name
        self.suite = suite
        self.vma_specs = list(vma_specs)
        self.pattern_factory = pattern_factory
        self.instructions_per_access = instructions_per_access
        self.tlb_intensive = tlb_intensive
        self.description = description

    # ------------------------------------------------------------------
    @property
    def footprint_mb(self) -> float:
        """Total mapped memory in MiB (paper Table 4's column)."""
        return sum(spec.mb for spec in self.vma_specs)

    def regions(self) -> dict[str, Region]:
        """Deterministic placement of every VMA (no process needed)."""
        space = AddressSpace()
        placed: dict[str, Region] = {}
        for spec in self.vma_specs:
            vma = space.mmap(spec.pages, name=spec.name, thp_eligible=spec.thp_eligible)
            placed[spec.name] = Region(vma.start_vpn, vma.num_pages)
        return placed

    def build_process(
        self, policy: PagingPolicy, physical: PhysicalMemory | None = None
    ) -> Process:
        """Create and populate a process under the given paging policy.

        The virtual layout matches :meth:`regions` exactly (placement is
        policy-independent), so traces remain valid for every
        configuration.
        """
        process = Process(physical=physical, policy=policy)
        for spec in self.vma_specs:
            process.mmap(spec.pages, name=spec.name, thp_eligible=spec.thp_eligible)
        return process

    def trace(self, num_accesses: int, seed: int = 0) -> np.ndarray:
        """The reference stream (int64 vpn array), shared and read-only.

        A call with the same workload object, length and seed as the
        previous one returns the same array; anything else drops that
        array, and its :func:`shared_encoding`, before generating the new
        one.  Writing into the array raises ``ValueError``: callers that
        perturb a trace copy it.
        """
        global _latest_trace
        if num_accesses <= 0:
            raise WorkloadError("num_accesses must be positive")
        if _latest_trace is not None:
            workload, length, latest_seed, trace = _latest_trace[:4]
            if workload is self and length == num_accesses and latest_seed == seed:
                return trace
            _latest_trace = trace = None
        rng = np.random.default_rng(seed)
        pattern = self.pattern_factory(self.regions())
        trace = pattern.generate(rng, num_accesses)
        if len(trace) != num_accesses:
            raise AssertionError(
                f"pattern produced {len(trace)} accesses, wanted {num_accesses}"
            )
        trace.flags.writeable = False
        _latest_trace = [self, num_accesses, seed, trace, None]
        return trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.name} ({self.suite}, {self.footprint_mb:.0f} MB)>"
