"""Reference-stream pattern primitives.

The paper's traces come from Pin-instrumented SPEC / PARSEC / BioBench
runs; what the TLB hierarchy observes is only the sequence of virtual page
numbers.  These primitives compose into per-benchmark models
(:mod:`repro.workloads.benchmarks`) that reproduce the statistics that matter to
a TLB — footprint, page-level reuse distances, burstiness (spatial
locality within a page), phase changes — without the applications
themselves.

All generators are vectorised over numpy and deterministic given the
generator's seed.  A ``burst`` parameter models spatial locality: each
sampled page is accessed ``burst`` times in a row, which is the page-level
image of word-granularity streaming through cache lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError


@dataclass(frozen=True, slots=True)
class Region:
    """A contiguous virtual region in 4 KB pages (usually one VMA)."""

    start_vpn: int
    num_pages: int

    def __post_init__(self) -> None:
        if self.num_pages <= 0:
            raise WorkloadError("region must cover at least one page")

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + self.num_pages

    def subregion(self, offset_pages: int, num_pages: int) -> "Region":
        """A window inside this region (for hot subsets and phases)."""
        if offset_pages < 0 or offset_pages + num_pages > self.num_pages:
            raise WorkloadError("subregion outside parent region")
        return Region(self.start_vpn + offset_pages, num_pages)


def _apply_burst(pages: np.ndarray, burst: int, n: int) -> np.ndarray:
    """Repeat each sampled page ``burst`` times and trim to ``n``."""
    if burst <= 1:
        return pages[:n]
    return np.repeat(pages, burst)[:n]


def _samples_needed(n: int, burst: int) -> int:
    return -(-n // burst) if burst > 1 else n


class AccessPattern:
    """Base class: generates ``n`` page references from an RNG."""

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Return ``n`` virtual page numbers as an int64 array."""
        raise NotImplementedError


class SequentialScan(AccessPattern):
    """Streaming walk through a region, wrapping around.

    ``stride_pages`` > 1 models plane/column sweeps of stencil codes: the
    walk touches every stride-th page, wrapping modulo the region (use an
    odd stride to cover the whole region across wraps).  ``burst`` is the
    number of consecutive accesses per touched page.
    """

    def __init__(self, region: Region, stride_pages: int = 1, burst: int = 8) -> None:
        if stride_pages < 1 or burst < 1:
            raise WorkloadError("stride_pages and burst must be >= 1")
        self.region = region
        self.stride_pages = stride_pages
        self.burst = burst

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        samples = _samples_needed(n, self.burst)
        start = int(rng.integers(self.region.num_pages))
        linear = start + np.arange(samples, dtype=np.int64) * self.stride_pages
        pages = self.region.start_vpn + linear % self.region.num_pages
        return _apply_burst(pages, self.burst, n)


class ShuffledScan(AccessPattern):
    """Pointer-chase image: the region's pages visited in a fixed random
    order, repeated.

    Every access lands on a "new" page until the whole footprint has been
    visited (reuse distance = footprint), which is what linked-data
    traversals like mcf's network simplex look like to a TLB.
    """

    def __init__(self, region: Region, burst: int = 2) -> None:
        if burst < 1:
            raise WorkloadError("burst must be >= 1")
        self.region = region
        self.burst = burst

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        samples = _samples_needed(n, self.burst)
        order = rng.permutation(self.region.num_pages)
        reps = -(-samples // self.region.num_pages)
        pages = self.region.start_vpn + np.tile(order, reps)[:samples]
        return _apply_burst(pages.astype(np.int64), self.burst, n)


class UniformRandom(AccessPattern):
    """Uniformly random pages over the region (annealing-style churn)."""

    def __init__(self, region: Region, burst: int = 1) -> None:
        if burst < 1:
            raise WorkloadError("burst must be >= 1")
        self.region = region
        self.burst = burst

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        samples = _samples_needed(n, self.burst)
        pages = self.region.start_vpn + rng.integers(
            self.region.num_pages, size=samples, dtype=np.int64
        )
        return _apply_burst(pages, self.burst, n)


class Zipf(AccessPattern):
    """Zipf-distributed page popularity with randomised placement.

    Rank r has probability ∝ 1/r^alpha; ranks are scattered over the
    region by a fixed permutation so the hot set does not collapse into a
    few TLB sets.  Larger ``alpha`` means a tighter hot set.
    """

    def __init__(self, region: Region, alpha: float = 1.0, burst: int = 2) -> None:
        if alpha < 0:
            raise WorkloadError("alpha must be non-negative")
        if burst < 1:
            raise WorkloadError("burst must be >= 1")
        self.region = region
        self.alpha = alpha
        self.burst = burst
        self._cdf: np.ndarray | None = None

    def _cumulative(self) -> np.ndarray:
        if self._cdf is None:
            ranks = np.arange(1, self.region.num_pages + 1, dtype=np.float64)
            weights = ranks**-self.alpha
            self._cdf = np.cumsum(weights) / weights.sum()
        return self._cdf

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        samples = _samples_needed(n, self.burst)
        ranks = np.searchsorted(self._cumulative(), rng.random(samples))
        placement = rng.permutation(self.region.num_pages)
        pages = self.region.start_vpn + placement[ranks].astype(np.int64)
        return _apply_burst(pages, self.burst, n)


class StridedSet(AccessPattern):
    """Uniform reuse over ``num_pages`` pages spaced ``stride_pages`` apart.

    The page-granularity image of a data structure whose hot records are
    scattered across a large allocation (hash buckets, graph adjacency
    headers): *small* at 4 KB granularity — the set fits the L2 TLB — but
    *spanning* ``num_pages * stride_pages`` pages, i.e. dozens of 2 MB
    pages.  Under THP this working set exceeds the 32-entry L1-2MB TLB
    and keeps producing page walks, which is exactly the residual
    overhead RMM's range translations eliminate (the paper's RMM cuts
    TLB-miss cycles ~80 % below THP).
    """

    def __init__(
        self, region: Region, num_pages: int = 256, stride_pages: int = 93, burst: int = 3
    ) -> None:
        if num_pages < 1 or stride_pages < 1 or burst < 1:
            raise WorkloadError("num_pages, stride_pages, and burst must be >= 1")
        span = (num_pages - 1) * stride_pages + 1
        if span > region.num_pages:
            raise WorkloadError(
                f"strided set spans {span} pages but region has {region.num_pages}"
            )
        self.region = region
        self.num_pages = num_pages
        self.stride_pages = stride_pages
        self.burst = burst

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        samples = _samples_needed(n, self.burst)
        indices = rng.integers(self.num_pages, size=samples, dtype=np.int64)
        pages = self.region.start_vpn + indices * self.stride_pages
        return _apply_burst(pages, self.burst, n)


#: A component's stream is kept up to its expected share of the trace plus
#: ``_PREFIX_SDS`` binomial standard deviations and ``_PREFIX_SLACK``
#: accesses; a count past that is many standard deviations out and takes
#: :meth:`Mixture.generate`'s regeneration path.
_PREFIX_SDS = 8
_PREFIX_SLACK = 64


class Mixture(AccessPattern):
    """Per-access interleaving of component patterns by probability.

    Models a program alternating between data structures (heap graph,
    stack frames, globals) at instruction granularity.

    :meth:`generate` draws every component's full stream, in order,
    before the per-access choice (the draws fix the trace), but keeps
    only a bounded prefix of each: its expected share plus a margin of
    binomial standard deviations.  If the choice assigns a component
    more accesses than its prefix holds, the streams are drawn again
    from the saved generator state, each cut to its exact count, and the
    generator is set to its state after the choice.  Either way the
    trace and the generator's final state are those of keeping every
    stream whole.
    """

    def __init__(self, components: list[tuple[AccessPattern, float]]) -> None:
        if not components:
            raise WorkloadError("mixture needs at least one component")
        if any(weight < 0 for _, weight in components):
            raise WorkloadError("mixture weights must be non-negative")
        total = sum(weight for _, weight in components)
        if total <= 0:
            raise WorkloadError("mixture weights must sum to a positive value")
        self.patterns = [pattern for pattern, _ in components]
        self.weights = np.array([weight / total for _, weight in components])

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        before = rng.bit_generator.state
        expected = n * self.weights
        spread = np.sqrt(expected * (1 - self.weights))
        keep = np.minimum(n, expected + _PREFIX_SDS * spread + _PREFIX_SLACK).astype(np.int64)
        # A slice is a view: copy it, or the whole stream stays alive.
        prefixes = [
            pattern.generate(rng, n)[:length].copy()
            for pattern, length in zip(self.patterns, keep)
        ]
        choice = rng.choice(len(self.patterns), size=n, p=self.weights)
        counts = np.bincount(choice, minlength=len(self.patterns))
        if np.any(counts > keep):
            after = rng.bit_generator.state
            rng.bit_generator.state = before
            prefixes = [
                pattern.generate(rng, n)[:count].copy()
                for pattern, count in zip(self.patterns, counts)
            ]
            rng.bit_generator.state = after
        out = np.empty(n, dtype=np.int64)
        for index, (prefix, count) in enumerate(zip(prefixes, counts)):
            # Each component's stream is consumed *sequentially* at the
            # positions assigned to it, so burst runs survive the
            # interleaving (they appear with other components' accesses
            # in between, exactly like real interleaved data structures).
            out[np.nonzero(choice == index)[0]] = prefix[:count]
        return out


class Phased(AccessPattern):
    """Sequential phases, each a pattern covering a fraction of the trace.

    Reproduces the phase changes Figure 4 relies on (astar, GemsFDTD, mcf
    need different TLB configurations in different execution phases).
    """

    def __init__(self, phases: list[tuple[AccessPattern, float]]) -> None:
        if not phases:
            raise WorkloadError("need at least one phase")
        total = sum(fraction for _, fraction in phases)
        if total <= 0:
            raise WorkloadError("phase fractions must sum to a positive value")
        self.phases = [(pattern, fraction / total) for pattern, fraction in phases]

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        parts = []
        produced = 0
        for index, (pattern, fraction) in enumerate(self.phases):
            length = (
                n - produced
                if index == len(self.phases) - 1
                else min(n - produced, round(n * fraction))
            )
            if length > 0:
                parts.append(pattern.generate(rng, length))
                produced += length
        return np.concatenate(parts) if len(parts) > 1 else parts[0]


class RepeatingPhases(AccessPattern):
    """A phase schedule repeated ``repeats`` times across the trace.

    Useful for periodic phase behaviour (time-step loops in GemsFDTD or
    zeusmp) at a period independent of trace length.
    """

    def __init__(self, phases: list[tuple[AccessPattern, float]], repeats: int) -> None:
        if repeats < 1:
            raise WorkloadError("repeats must be >= 1")
        self._schedule = Phased(phases)
        self.repeats = repeats

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        chunk = -(-n // self.repeats)
        parts = [self._schedule.generate(rng, chunk) for _ in range(self.repeats)]
        return np.concatenate(parts)[:n]
