"""Unit and property tests for the buddy frame allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.physical import OutOfMemoryError, PhysicalMemory


class TestBasics:
    def test_total_frames(self, physical):
        assert physical.total_frames == (1 << 30) >> 12

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(total_bytes=5000)
        with pytest.raises(ValueError):
            PhysicalMemory(total_bytes=0)

    def test_alloc_block_alignment(self, physical):
        for order in (0, 3, 9, 12):
            pfn = physical.alloc_block(order)
            assert pfn % (1 << order) == 0

    def test_alloc_block_accounting(self, physical):
        free_before = physical.frames_free
        physical.alloc_block(9)
        assert physical.frames_free == free_before - 512

    def test_free_block_merges_back(self, physical):
        free_before = physical.frames_free
        pfn = physical.alloc_block(9)
        physical.free_block(pfn, 9)
        assert physical.frames_free == free_before

    def test_out_of_memory(self):
        tiny = PhysicalMemory(total_bytes=1 << 20)  # 256 frames
        tiny.alloc_block(8)  # whole arena
        with pytest.raises(OutOfMemoryError):
            tiny.alloc_block(8)

    def test_invalid_order(self, physical):
        with pytest.raises(ValueError):
            physical.alloc_block(-1)
        # Requests beyond the arena are allocation failures, not bugs —
        # policies catch them and degrade.
        with pytest.raises(OutOfMemoryError):
            physical.alloc_block(physical.max_order + 1)

    def test_misaligned_free_rejected(self, physical):
        with pytest.raises(ValueError):
            physical.free_block(1, 3)


class TestContiguous:
    def test_exact_length(self, physical):
        free_before = physical.frames_free
        pfn = physical.alloc_contiguous(300)
        assert physical.frames_free == free_before - 300
        physical.free_contiguous(pfn, 300)
        assert physical.frames_free == free_before

    def test_2mb_alignment_of_large_runs(self, physical):
        # Runs >= 512 pages start on a block aligned to their covering
        # power of two, so 2MB-aligned offsets stay 2MB-aligned.
        pfn = physical.alloc_contiguous(1000)
        assert pfn % 512 == 0

    def test_invalid_npages(self, physical):
        with pytest.raises(ValueError):
            physical.alloc_contiguous(0)

    def test_runs_do_not_overlap(self, physical):
        runs = [(physical.alloc_contiguous(100), 100) for _ in range(10)]
        claimed = set()
        for pfn, npages in runs:
            span = set(range(pfn, pfn + npages))
            assert not span & claimed
            claimed |= span


class TestScatteredFrames:
    def test_frames_unique(self, physical):
        frames = physical.alloc_frames(5000)
        assert len(set(frames)) == 5000

    def test_frames_are_shuffled(self, physical):
        frames = physical.alloc_frames(1000)
        ascending = sum(1 for a, b in zip(frames, frames[1:]) if b == a + 1)
        assert ascending < 100  # far from contiguous

    def test_deterministic_given_seed(self):
        a = PhysicalMemory(1 << 28, seed=5).alloc_frames(500)
        b = PhysicalMemory(1 << 28, seed=5).alloc_frames(500)
        assert a == b

    def test_different_seeds_differ(self):
        a = PhysicalMemory(1 << 28, seed=5).alloc_frames(500)
        b = PhysicalMemory(1 << 28, seed=6).alloc_frames(500)
        assert a != b

    def test_free_frame_returns_capacity(self, physical):
        frames = physical.alloc_frames(100)
        used_before = physical.frames_used
        for pfn in frames:
            physical.free_frame(pfn)
        assert physical.frames_used == used_before - 100

    @pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 10000])
    def test_alloc_frames_matches_alloc_frame_loop(self, count):
        # Twin allocators; the pool starts part-drained, and two calls in
        # a row cross at least one refill for every count above 4096.
        bulk = PhysicalMemory(1 << 30, seed=3)
        single = PhysicalMemory(1 << 30, seed=3)
        assert list(bulk.alloc_frames(100)) == [single.alloc_frame() for _ in range(100)]
        for _ in range(2):
            assert list(bulk.alloc_frames(count)) == [single.alloc_frame() for _ in range(count)]
            assert bulk.state_dict() == single.state_dict()

    def test_alloc_frames_exhaustion_matches_alloc_frame_loop(self):
        bulk = PhysicalMemory(1 << 22, seed=1)  # 1024 frames
        single = PhysicalMemory(1 << 22, seed=1)
        with pytest.raises(OutOfMemoryError):
            bulk.alloc_frames(2000)
        with pytest.raises(OutOfMemoryError):
            [single.alloc_frame() for _ in range(2000)]
        assert bulk.state_dict() == single.state_dict()

    def test_fragment_pins_fraction(self, physical):
        free_before = physical.frames_free
        pinned = physical.fragment(0.25)
        assert len(pinned) == int(free_before * 0.25)
        with pytest.raises(ValueError):
            physical.fragment(1.5)


class TestScatterPoolRefill:
    """A refill permutes one buddy block with the allocator's seeded generator."""

    @pytest.mark.parametrize("total_bytes, order", [(1 << 30, 12), (1 << 22, 10)])
    def test_refill_permutes_the_block_alloc_block_returns(self, total_bytes, order):
        mem = PhysicalMemory(total_bytes, seed=9)
        twin = PhysicalMemory(total_bytes, seed=9)
        first = mem.alloc_frame()  # the first call refills the empty pool
        base = twin.alloc_block(order)
        rest = mem.state_dict()["scatter_pool"]
        assert sorted(rest + [first]) == list(range(base, base + (1 << order)))
        assert rest != sorted(rest) and rest != sorted(rest, reverse=True)
        assert all(type(pfn) is int for pfn in rest)
        assert mem.state_dict()["free"] == twin.state_dict()["free"]

    def test_one_seed_fills_one_pool(self):
        a = PhysicalMemory(1 << 30, seed=11)
        b = PhysicalMemory(1 << 30, seed=11)
        a.alloc_frames(10_000)  # three refills
        b.alloc_frames(10_000)
        assert a.state_dict() == b.state_dict()
        assert a.state_dict()["scatter_pool"]

    def test_fragment_reseeds_the_generator(self):
        a = PhysicalMemory(1 << 28, seed=1)
        b = PhysicalMemory(1 << 28, seed=2)
        assert a.fragment(0.01, seed=7) == b.fragment(0.01, seed=7)


class TestExhaustion:
    def test_exhaust_and_recover(self):
        mem = PhysicalMemory(1 << 22, seed=1)  # 1024 frames
        blocks = []
        while True:
            try:
                blocks.append(mem.alloc_block(4))
            except OutOfMemoryError:
                break
        assert mem.frames_free == 0
        for pfn in blocks:
            mem.free_block(pfn, 4)
        assert mem.frames_free == 1024
        # After merging we can allocate the whole arena again.
        assert mem.alloc_block(10) == 0


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["block", "contig", "frame"]), st.integers(0, 8)),
        min_size=2,  # an overlap takes two allocations
        max_size=60,
    )
)
def test_allocations_never_overlap_and_frees_conserve(ops):
    """No two live allocations share a frame; freeing restores capacity."""
    mem = PhysicalMemory(1 << 24, seed=2)  # 4096 frames
    live: list[tuple[str, int, int]] = []
    claimed: set[int] = set()
    for kind, size in ops:
        try:
            if kind == "block":
                pfn = mem.alloc_block(size % 6)
                npages = 1 << (size % 6)
            elif kind == "contig":
                npages = size * 37 + 1
                pfn = mem.alloc_contiguous(npages)
            else:
                pfn = mem.alloc_frame()
                npages = 1
        except OutOfMemoryError:
            continue
        span = set(range(pfn, pfn + npages))
        assert not span & claimed
        claimed |= span
        live.append((kind, pfn, npages))
    for kind, pfn, npages in live:
        if kind == "block":
            mem.free_block(pfn, npages.bit_length() - 1)
        elif kind == "contig":
            mem.free_contiguous(pfn, npages)
        else:
            mem.free_frame(pfn)
    # Scatter-pool frames stay parked, everything else is free again.
    assert mem.frames_free + len(mem._scatter_pool) == mem.total_frames
