"""Tests for the workload pattern primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import patterns
from repro.workloads.patterns import (
    AccessPattern,
    Mixture,
    Phased,
    Region,
    RepeatingPhases,
    SequentialScan,
    ShuffledScan,
    StridedSet,
    UniformRandom,
    Zipf,
)


def rng(seed=0):
    return np.random.default_rng(seed)


REGION = Region(1000, 500)


def in_region(trace, region=REGION):
    return bool(np.all((trace >= region.start_vpn) & (trace < region.end_vpn)))


class TestRegion:
    def test_subregion(self):
        sub = REGION.subregion(100, 50)
        assert sub.start_vpn == 1100
        assert sub.num_pages == 50

    def test_subregion_bounds_checked(self):
        with pytest.raises(ValueError):
            REGION.subregion(490, 20)
        with pytest.raises(ValueError):
            REGION.subregion(-1, 10)

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            Region(0, 0)


class TestSequentialScan:
    def test_in_bounds_and_length(self):
        trace = SequentialScan(REGION, burst=4).generate(rng(), 1000)
        assert len(trace) == 1000
        assert in_region(trace)

    def test_burst_runs(self):
        trace = SequentialScan(REGION, burst=8).generate(rng(), 800)
        # Pages repeat exactly 8 times consecutively.
        changes = np.count_nonzero(np.diff(trace))
        assert changes == len(trace) // 8 - 1 + (0 if len(trace) % 8 == 0 else 1)

    def test_consecutive_pages(self):
        trace = SequentialScan(REGION, stride_pages=1, burst=1).generate(rng(), 100)
        diffs = np.diff(trace)
        assert np.all((diffs == 1) | (diffs == 1 - REGION.num_pages))

    def test_stride(self):
        trace = SequentialScan(REGION, stride_pages=7, burst=1).generate(rng(), 50)
        diffs = np.diff(trace) % REGION.num_pages
        assert np.all(diffs == 7)

    def test_wraps_region(self):
        trace = SequentialScan(Region(0, 10), burst=1).generate(rng(), 100)
        assert set(np.unique(trace)) == set(range(10))


class TestShuffledScan:
    def test_visits_every_page_before_repeat(self):
        region = Region(0, 97)
        trace = ShuffledScan(region, burst=1).generate(rng(), 97)
        assert len(np.unique(trace)) == 97

    def test_deterministic_given_seed(self):
        a = ShuffledScan(REGION, burst=2).generate(rng(5), 300)
        b = ShuffledScan(REGION, burst=2).generate(rng(5), 300)
        assert np.array_equal(a, b)

    def test_not_sequential(self):
        trace = ShuffledScan(Region(0, 200), burst=1).generate(rng(), 200)
        assert np.count_nonzero(np.diff(trace) == 1) < 30


class TestUniformRandomAndZipf:
    def test_uniform_bounds(self):
        trace = UniformRandom(REGION, burst=2).generate(rng(), 999)
        assert len(trace) == 999
        assert in_region(trace)

    def test_zipf_bounds(self):
        trace = Zipf(REGION, alpha=1.1, burst=3).generate(rng(), 1000)
        assert in_region(trace)

    def test_zipf_skew_increases_with_alpha(self):
        def top_share(alpha):
            trace = Zipf(Region(0, 1000), alpha=alpha, burst=1).generate(rng(1), 20_000)
            _, counts = np.unique(trace, return_counts=True)
            counts.sort()
            return counts[-10:].sum() / counts.sum()

        assert top_share(1.5) > top_share(0.5)

    def test_zipf_alpha_zero_is_uniform_like(self):
        trace = Zipf(Region(0, 100), alpha=0.0, burst=1).generate(rng(2), 20_000)
        _, counts = np.unique(trace, return_counts=True)
        assert counts.max() / counts.min() < 3

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            UniformRandom(REGION, burst=0)
        with pytest.raises(ValueError):
            Zipf(REGION, alpha=-1)


class TestStridedSet:
    def test_touches_exactly_the_strided_pages(self):
        region = Region(0, 10_000)
        pattern = StridedSet(region, num_pages=32, stride_pages=100, burst=1)
        trace = pattern.generate(rng(), 5000)
        assert set(np.unique(trace)) <= {i * 100 for i in range(32)}
        assert len(np.unique(trace)) > 25

    def test_span_checked(self):
        with pytest.raises(ValueError):
            StridedSet(Region(0, 100), num_pages=32, stride_pages=100)

    def test_spans_many_huge_pages(self):
        region = Region(0, 30_000)
        trace = StridedSet(region, num_pages=256, stride_pages=93, burst=1).generate(
            rng(), 10_000
        )
        huge_pages = np.unique(trace >> 9)
        assert len(huge_pages) > 30


class TestMixture:
    def test_weights_respected(self):
        a = UniformRandom(Region(0, 10), burst=1)
        b = UniformRandom(Region(1000, 10), burst=1)
        trace = Mixture([(a, 0.8), (b, 0.2)]).generate(rng(3), 10_000)
        share_a = np.mean(trace < 100)
        assert 0.75 < share_a < 0.85

    def test_burst_runs_survive_interleaving(self):
        """Component streams are consumed sequentially: the same page is
        re-referenced across the interleave, not skipped."""
        a = SequentialScan(Region(0, 400), burst=8)
        b = UniformRandom(Region(10_000, 10), burst=1)
        trace = Mixture([(a, 0.7), (b, 0.3)]).generate(rng(4), 8000)
        a_pages = trace[trace < 10_000]
        # Every scan page appears ~8 times in total.
        _, counts = np.unique(a_pages, return_counts=True)
        assert counts.mean() > 5

    def test_weights_normalised(self):
        a = UniformRandom(Region(0, 10), burst=1)
        mixture = Mixture([(a, 5), (a, 15)])
        assert mixture.weights.tolist() == [0.25, 0.75]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Mixture([])

    def test_negative_weight_rejected(self):
        a = UniformRandom(Region(0, 10), burst=1)
        with pytest.raises(ValueError, match="non-negative"):
            Mixture([(a, 1.0), (a, -0.5)])


class TestPhased:
    def test_phases_in_order(self):
        a = UniformRandom(Region(0, 10), burst=1)
        b = UniformRandom(Region(1000, 10), burst=1)
        trace = Phased([(a, 0.5), (b, 0.5)]).generate(rng(), 1000)
        assert np.all(trace[:500] < 100)
        assert np.all(trace[500:] >= 1000)

    def test_exact_length(self):
        a = UniformRandom(Region(0, 10), burst=3)
        trace = Phased([(a, 1 / 3), (a, 1 / 3), (a, 1 / 3)]).generate(rng(), 1001)
        assert len(trace) == 1001

    def test_repeating_phases(self):
        a = UniformRandom(Region(0, 10), burst=1)
        b = UniformRandom(Region(1000, 10), burst=1)
        trace = RepeatingPhases([(a, 0.5), (b, 0.5)], repeats=4).generate(rng(), 800)
        assert len(trace) == 800
        # Transitions between regions happen 7 times (4 repeats x 2 phases).
        is_b = trace >= 1000
        transitions = np.count_nonzero(np.diff(is_b.astype(int)))
        assert transitions == 7

    def test_invalid(self):
        with pytest.raises(ValueError):
            Phased([])
        a = UniformRandom(Region(0, 10), burst=1)
        with pytest.raises(ValueError):
            RepeatingPhases([(a, 1.0)], repeats=0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3000),
    seed=st.integers(min_value=0, max_value=100),
)
def test_all_patterns_exact_length_and_bounds(n, seed):
    region = Region(64, 2048)
    patterns = [
        SequentialScan(region, stride_pages=3, burst=5),
        ShuffledScan(region, burst=2),
        UniformRandom(region, burst=4),
        Zipf(region, alpha=1.2, burst=3),
        StridedSet(region, num_pages=64, stride_pages=31, burst=2),
        Mixture([(UniformRandom(region, burst=2), 0.5), (Zipf(region, alpha=1.0), 0.5)]),
        Phased([(UniformRandom(region, burst=2), 0.3), (SequentialScan(region), 0.7)]),
    ]
    for pattern in patterns:
        trace = pattern.generate(np.random.default_rng(seed), n)
        assert len(trace) == n
        assert in_region(trace, region)


# ----------------------------------------------------------------------
# Mixture.generate keeps bounded stream prefixes: equal to the all-streams
# reference, draw for draw
# ----------------------------------------------------------------------
def all_streams_generate(mixture, rng, n):
    """The reference ``Mixture.generate``: every component's stream is
    kept whole until the choice is drawn."""
    streams = [pattern.generate(rng, n) for pattern in mixture.patterns]
    choice = rng.choice(len(streams), size=n, p=mixture.weights)
    out = np.empty(n, dtype=np.int64)
    for index, stream in enumerate(streams):
        positions = np.nonzero(choice == index)[0]
        out[positions] = stream[: len(positions)]
    return out


def reference_generate(pattern, seed, n):
    """``pattern.generate`` with every Mixture in it, nested ones included,
    run by the reference; returns the trace and the generator's final state."""
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Mixture, "generate", all_streams_generate)
        trace = pattern.generate(rng, n)
    return trace, rng.bit_generator.state


MIX_REGION = Region(64, 2048)
BURSTS = st.integers(min_value=1, max_value=8)
PRIMITIVES = st.one_of(
    st.builds(SequentialScan, st.just(MIX_REGION), st.integers(1, 7), BURSTS),
    st.builds(ShuffledScan, st.just(MIX_REGION), BURSTS),
    st.builds(UniformRandom, st.just(MIX_REGION), BURSTS),
    st.builds(Zipf, st.just(MIX_REGION), st.floats(0.0, 2.0), BURSTS),
    st.builds(StridedSet, st.just(MIX_REGION), st.integers(1, 64), st.integers(1, 31), BURSTS),
)
#: Zero, ordinary, and a weight that takes nearly all of the mass.
WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.just(1e4))


@st.composite
def mixtures(draw):
    """A Mixture of 1-7 components: a nested Mixture, a Phased (or
    RepeatingPhases) pattern whose first phase is a Mixture, and primitives."""

    def inner_mixture():
        parts = st.tuples(PRIMITIVES, st.floats(0.1, 1.0))
        return Mixture(draw(st.lists(parts, min_size=1, max_size=3)))

    phases = [(inner_mixture(), draw(st.floats(0.1, 0.9))), (draw(PRIMITIVES), 0.5)]
    repeats = draw(st.integers(1, 3))
    phased = Phased(phases) if repeats == 1 else RepeatingPhases(phases, repeats)
    size = draw(st.integers(min_value=1, max_value=7))
    pool = [inner_mixture(), phased] + draw(st.lists(PRIMITIVES, min_size=5, max_size=5))
    components = draw(st.permutations(pool[:size]))
    weights = draw(st.lists(WEIGHTS, min_size=size, max_size=size).filter(any))
    return Mixture(list(zip(components, weights)))


@settings(max_examples=60, deadline=None)
@given(
    mixture=mixtures(),
    n=st.integers(min_value=1, max_value=5_000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_prefixes_match_the_all_streams_reference(mixture, n, seed):
    """Same trace and same final generator state: a Mixture nested in
    Phased or RepeatingPhases leaves the later phases' draws unchanged."""
    rng = np.random.default_rng(seed)
    trace = mixture.generate(rng, n)
    expected, state = reference_generate(mixture, seed, n)
    assert trace.dtype == np.int64
    assert np.array_equal(trace, expected)
    assert rng.bit_generator.state == state


class CountingPattern(AccessPattern):
    """Delegates to ``inner`` and counts its ``generate`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def generate(self, rng, n):
        self.calls += 1
        return self.inner.generate(rng, n)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", (1, 5_000))
def test_regeneration_matches_the_all_streams_reference(monkeypatch, n, seed):
    """Prefixes cut to each expected share (no margin) leave some count
    past its prefix (at n = 1 by exactly one), so every stream is drawn
    again from the saved state: the trace and the final state still equal
    the reference's."""
    monkeypatch.setattr(patterns, "_PREFIX_SDS", 0)
    monkeypatch.setattr(patterns, "_PREFIX_SLACK", 0)
    counted = CountingPattern(Zipf(REGION, alpha=1.0, burst=3))
    nested = Mixture([(UniformRandom(REGION, burst=2), 0.6), (ShuffledScan(REGION), 0.4)])
    mixture = Mixture(
        [
            (counted, 0.3),
            (UniformRandom(REGION, burst=4), 0.5),
            (Phased([(nested, 0.5), (SequentialScan(REGION), 0.5)]), 0.2),
        ]
    )
    rng = np.random.default_rng(seed)
    trace = mixture.generate(rng, n)
    assert counted.calls == 2  # drawn, then drawn again
    expected, state = reference_generate(mixture, seed, n)
    assert np.array_equal(trace, expected)
    assert rng.bit_generator.state == state
