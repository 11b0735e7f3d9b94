"""Unit tests for the four-level radix page table."""

import tracemalloc
from array import array
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressSpaceError
from repro.mem.paging import TransparentHugePaging
from repro.mem.physical import PhysicalMemory
from repro.mem.process import Process
from repro.mmu.page_table import UNMAPPED, VPN_LIMIT, PageFault, PageTable, PageTableNode
from repro.mmu.translation import PAGES_PER_1GB, PAGES_PER_2MB, PageSize, Translation


class TestMapping:
    def test_map_and_lookup_4kb(self):
        pt = PageTable()
        pt.map(Translation(42, 99, PageSize.SIZE_4KB))
        leaf = pt.lookup(42)
        assert leaf.pfn == 99
        assert pt.lookup(43) is None

    def test_map_and_lookup_2mb(self):
        pt = PageTable()
        pt.map(Translation(512, 1024, PageSize.SIZE_2MB))
        assert pt.lookup(512).page_size is PageSize.SIZE_2MB
        assert pt.lookup(1023) is pt.lookup(512)
        assert pt.lookup(1024) is None

    def test_map_and_lookup_1gb(self):
        pt = PageTable()
        size = PageSize.SIZE_1GB
        pt.map(Translation(int(size), 0, size))
        assert pt.lookup(int(size) + 12345).page_size is size

    def test_translate(self):
        pt = PageTable()
        pt.map(Translation(512, 2048, PageSize.SIZE_2MB))
        assert pt.translate(600) == 2048 + 88

    def test_double_map_rejected(self):
        pt = PageTable()
        pt.map(Translation(7, 1, PageSize.SIZE_4KB))
        with pytest.raises(ValueError):
            pt.map(Translation(7, 2, PageSize.SIZE_4KB))

    def test_4kb_under_huge_page_rejected(self):
        pt = PageTable()
        pt.map(Translation(0, 0, PageSize.SIZE_2MB))
        with pytest.raises(ValueError):
            pt.map(Translation(5, 1, PageSize.SIZE_4KB))

    def test_huge_page_over_4kb_rejected(self):
        pt = PageTable()
        pt.map(Translation(5, 1, PageSize.SIZE_4KB))
        with pytest.raises(ValueError):
            pt.map(Translation(0, 0, PageSize.SIZE_2MB))

    def test_walk_raises_on_unmapped(self):
        pt = PageTable()
        with pytest.raises(PageFault) as excinfo:
            pt.walk(1234)
        assert excinfo.value.vpn4k == 1234


class TestUnmapping:
    def test_unmap_returns_leaf(self):
        pt = PageTable()
        pt.map(Translation(42, 99, PageSize.SIZE_4KB))
        leaf = pt.unmap(42)
        assert leaf.pfn == 99
        assert pt.lookup(42) is None

    def test_unmap_huge_by_interior_page(self):
        pt = PageTable()
        pt.map(Translation(512, 1024, PageSize.SIZE_2MB))
        leaf = pt.unmap(700)  # any page inside works
        assert leaf.page_size is PageSize.SIZE_2MB
        assert pt.lookup(512) is None

    def test_unmap_unmapped_raises(self):
        pt = PageTable()
        with pytest.raises(PageFault):
            pt.unmap(1)

    def test_mapped_bytes_accounting(self):
        pt = PageTable()
        pt.map(Translation(0, 0, PageSize.SIZE_2MB))
        pt.map(Translation(PAGES_PER_2MB, 600, PageSize.SIZE_4KB))
        assert pt.mapped_bytes == (2 << 20) + 4096
        pt.unmap(0)
        assert pt.mapped_bytes == 4096


class TestIntrospection:
    def test_iter_translations_in_address_order(self):
        pt = PageTable()
        pt.map(Translation(1024, 4096, PageSize.SIZE_2MB))
        pt.map(Translation(5, 1, PageSize.SIZE_4KB))
        pt.map(Translation(3, 2, PageSize.SIZE_4KB))
        vpns = [t.vpn for t in pt.iter_translations()]
        assert vpns == [3, 5, 1024]

    def test_count_nodes(self):
        pt = PageTable()
        pt.map(Translation(0, 0, PageSize.SIZE_4KB))
        counts = pt.count_nodes()
        assert counts == {4: 1, 3: 1, 2: 1, 1: 1}
        pt.map(Translation(PAGES_PER_2MB, 512, PageSize.SIZE_2MB))
        counts = pt.count_nodes()
        assert counts[1] == 1  # 2MB leaf lives at level 2, no new PT node


class TestFrameNumberLeaves:
    """Level-1 tables hold frame numbers; readers hand out Translations."""

    def test_huge_leaves_yields_only_huge_leaves_in_address_order(self):
        pt = PageTable()
        one_gb = Translation(PAGES_PER_1GB, PAGES_PER_1GB, PageSize.SIZE_1GB)
        high_2mb = Translation(2 * PAGES_PER_1GB + PAGES_PER_2MB, 0, PageSize.SIZE_2MB)
        low_2mb = Translation(PAGES_PER_2MB, 4 * PAGES_PER_2MB, PageSize.SIZE_2MB)
        for leaf in (one_gb, high_2mb, low_2mb):  # not in address order
            pt.map(leaf)
        pt.map_run(PAGES_PER_2MB - 3, [1, 2, 3])
        pt.map_run(2 * PAGES_PER_2MB, [4, 5])
        pt.map_run(PAGES_PER_1GB - 2, [6, 7])
        pt.map_run(2 * PAGES_PER_1GB, [8])
        pt.map_run(2 * PAGES_PER_1GB + 2 * PAGES_PER_2MB, [9])
        assert list(pt.huge_leaves()) == [low_2mb, one_gb, high_2mb]
        assert list(PageTable().huge_leaves()) == []

    def test_lookup_and_unmap_return_the_mapped_translation(self):
        pt = PageTable()
        leaf = Translation(700, 1234, PageSize.SIZE_4KB)
        pt.map(leaf)
        pt.map_run(701, [55])
        assert pt.lookup(700) == leaf
        assert pt.walk(700) == leaf
        assert pt.lookup(701) == Translation(701, 55, PageSize.SIZE_4KB)
        assert pt.unmap(700) == leaf
        assert pt.lookup(700) is None
        assert pt.unmap(701) == Translation(701, 55, PageSize.SIZE_4KB)

    def test_map_run_over_a_mapped_page_names_it(self):
        pt = PageTable()
        pt.map_run(1000, [5, 6, 7])
        with pytest.raises(
            AddressSpaceError,
            match=r"vpn 0x3e8 already mapped \(Translation\(vpn=1000, pfn=5,",
        ):
            pt.map_run(998, list(range(10)))
        assert [pt.translate(v) for v in range(1000, 1003)] == [5, 6, 7]
        assert pt.lookup(998) is None


def leaf_tables(node):
    """Every level-1 table under ``node``, in address order."""
    if node.level == 1:
        return [node]
    children = (node.entries[index] for index in sorted(node.entries))
    return [
        table
        for child in children
        if isinstance(child, PageTableNode)
        for table in leaf_tables(child)
    ]


class TestPackedLeaves:
    """A level-1 table is one array of 512 PTEs and a count of mapped ones."""

    def test_full_tables_cost_under_9_bytes_per_page(self):
        pages = 64 * PAGES_PER_2MB
        pfns = array("q", range(1 << 40, (1 << 40) + pages))  # no cached small ints
        tracemalloc.start()
        try:
            pt = PageTable()
            pt.map_run(5 * PAGES_PER_1GB, pfns)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pt.mapped_bytes == pages << 12
        assert live <= 9 * pages

    def test_tables_stay_whole_after_partial_runs(self):
        pt = PageTable()
        pt.map_run(300, frames(1000))  # starts and ends mid-table
        pt.map_run(1400, frames(10, first=5))
        pt.unmap(700)
        tables = leaf_tables(pt.root)
        assert [len(table.entries) for table in tables] == [PAGES_PER_2MB] * 3
        assert [table.mapped for table in tables] == [212, 511, 10 + 1300 - 1024]
        for table in tables:
            assert table.mapped == sum(pfn != UNMAPPED for pfn in table.entries)


def per_page(vpn, pfns):
    """Reference: the run installed with one ``map`` per page."""
    pt = PageTable()
    for offset, pfn in enumerate(pfns):
        pt.map(Translation(vpn + offset, pfn, PageSize.SIZE_4KB))
    return pt


def snapshot(pt):
    """Everything a rejected run must leave untouched."""
    return pt.state_dict(), pt.mapped_bytes, list(pt.iter_translations()), pt.count_nodes()


class TestMapRun:
    @pytest.mark.parametrize(
        "vpn, count",
        [
            (0, 1),
            (0, PAGES_PER_2MB),
            (500, 30),  # crosses a 512-entry leaf table
            (3, 3 * PAGES_PER_2MB),  # unaligned head and tail, several tables
            (PAGES_PER_1GB - 10, 20),  # crosses a level-2 (1 GB) boundary
            ((1 << 27) - 7, 9),  # crosses a level-3 (512 GB) boundary
            (VPN_LIMIT - 600, 600),  # ends exactly at the top of the space
        ],
    )
    def test_matches_per_page_map(self, vpn, count):
        pfns = [7 * i + 1 for i in range(count)]
        pt = PageTable()
        pt.map_run(vpn, pfns)
        assert snapshot(pt) == snapshot(per_page(vpn, pfns))
        assert pt.translate(vpn + count - 1) == pfns[-1]

    def test_accepts_a_range_of_frames(self):
        pt = PageTable()
        pt.map_run(510, range(4096, 4100))
        assert [pt.translate(v) for v in range(510, 514)] == [4096, 4097, 4098, 4099]

    def test_empty_run_is_a_noop(self):
        pt = PageTable()
        pt.map(Translation(4, 4, PageSize.SIZE_4KB))
        before = snapshot(pt)
        pt.map_run(4, [])
        pt.map_run(VPN_LIMIT + 1, [])
        assert snapshot(pt) == before

    def test_between_existing_leaves_of_one_table(self):
        pt = PageTable()
        pt.map_run(0, [1, 2])
        pt.map_run(5, [6, 7])
        pt.map_run(2, [3, 4, 5])
        assert [pt.translate(v) for v in range(7)] == [1, 2, 3, 4, 5, 6, 7]
        assert pt.mapped_bytes == 7 * 4096

    def test_refills_a_lingering_empty_subtree(self):
        pt = PageTable()
        pt.map_run(PAGES_PER_2MB, range(PAGES_PER_2MB))
        for vpn in range(PAGES_PER_2MB, 2 * PAGES_PER_2MB):
            pt.unmap(vpn)
        nodes = pt.count_nodes()  # the emptied leaf table lingers
        pt.map_run(PAGES_PER_2MB + 100, [9, 10])
        assert pt.count_nodes() == nodes
        assert pt.translate(PAGES_PER_2MB + 101) == 10
        # A huge page still reclaims the subtree once it is empty again.
        pt.unmap(PAGES_PER_2MB + 100)
        pt.unmap(PAGES_PER_2MB + 101)
        pt.map(Translation(PAGES_PER_2MB, 0, PageSize.SIZE_2MB))
        assert pt.mapped_bytes == 2 << 20


class TestMapRunRejection:
    """A rejected run names its first offending page and changes nothing."""

    def rejected(self, pt, vpn, count, offending, frame=None):
        """Map ``count`` pages from ``vpn``; ``frame`` goes to ``offending``."""
        pfns = list(range(count))
        if frame is not None:
            pfns[offending - vpn] = frame
        before = snapshot(pt)
        with pytest.raises(AddressSpaceError, match=f"vpn {offending:#x} "):
            pt.map_run(vpn, pfns)
        assert snapshot(pt) == before

    def test_already_mapped(self):
        pt = PageTable()
        pt.map(Translation(700, 1, PageSize.SIZE_4KB))
        pt.map(Translation(900, 2, PageSize.SIZE_4KB))
        # The run's first table is fresh; the conflicts sit in the second.
        self.rejected(pt, 400, 600, offending=700)

    def test_already_mapped_last_page(self):
        pt = PageTable()
        pt.map(Translation(2 * PAGES_PER_2MB, 1, PageSize.SIZE_4KB))
        self.rejected(pt, 10, 2 * PAGES_PER_2MB - 9, offending=2 * PAGES_PER_2MB)

    def test_under_a_2mb_leaf(self):
        pt = PageTable()
        pt.map(Translation(PAGES_PER_2MB, 0, PageSize.SIZE_2MB))
        self.rejected(pt, PAGES_PER_2MB - 5, 10, offending=PAGES_PER_2MB)

    def test_under_a_1gb_leaf(self):
        pt = PageTable()
        pt.map(Translation(PAGES_PER_1GB, 0, PageSize.SIZE_1GB))
        self.rejected(pt, PAGES_PER_1GB - 600, 700, offending=PAGES_PER_1GB)

    def test_negative_vpn(self):
        self.rejected(PageTable(), -3, 10, offending=-3)

    def test_past_the_page_number_space(self):
        self.rejected(PageTable(), VPN_LIMIT - 4, 10, offending=VPN_LIMIT)
        self.rejected(PageTable(), VPN_LIMIT + 4, 1, offending=VPN_LIMIT + 4)

    def test_first_offence_wins_over_the_bound(self):
        pt = PageTable()
        pt.map(Translation(VPN_LIMIT - 2, 1, PageSize.SIZE_4KB))
        self.rejected(pt, VPN_LIMIT - 4, 10, offending=VPN_LIMIT - 2)

    @pytest.mark.parametrize(
        "frame", [UNMAPPED, -5, 1 << 63, 1 << 70], ids=("unmapped", "negative", "2**63", "2**70")
    )
    def test_frame_outside_a_pte(self, frame):
        """A frame that would alias an unmapped PTE, or overflow one."""
        pt = PageTable()
        pt.map_run(PAGES_PER_2MB + 400, [1, 2])  # in the run's second table
        self.rejected(pt, PAGES_PER_2MB - 300, 600, offending=PAGES_PER_2MB + 150, frame=frame)
        self.rejected(pt, 0, 1, offending=0, frame=frame)


# ----------------------------------------------------------------------
# Checkpoint state: maximal runs of 4 KB frames plus huge leaves
# ----------------------------------------------------------------------
def expand(state):
    """Oracle: the ``(vpn, pfn, size)`` leaves a state describes, by address."""
    leaves = [tuple(leaf) for leaf in state["huge"]]
    for vpn, pfns in state["runs"]:
        for offset, pfn in enumerate(pfns):
            leaves.append((vpn + offset, pfn, 1))
    return sorted(leaves)


def checked_state(pt):
    """``pt.state_dict()``, checked against the table's own leaves."""
    state = pt.state_dict()
    assert set(state) == {"runs", "huge"}
    assert expand(state) == [
        (t.vpn, t.pfn, int(t.page_size)) for t in pt.iter_translations()
    ]
    runs = state["runs"]
    assert all(pfns for _, pfns in runs), "empty run"
    for (vpn, pfns), (next_vpn, _) in zip(runs, runs[1:]):
        assert vpn + len(pfns) < next_vpn, "runs out of order or not maximal"
    huge_vpns = [vpn for vpn, _, _ in state["huge"]]
    assert huge_vpns == sorted(huge_vpns)
    return state


def frames(count, first=1000):
    return list(range(first, first + 7 * count, 7))


class TestRunState:
    def test_run_across_a_leaf_table(self):
        pt = PageTable()
        pt.map_run(500, frames(30))
        assert checked_state(pt) == {"runs": [[500, frames(30)]], "huge": []}

    def test_run_across_a_1gb_boundary(self):
        pt = PageTable()
        pt.map_run(PAGES_PER_1GB - 10, frames(20))
        assert checked_state(pt)["runs"] == [[PAGES_PER_1GB - 10, frames(20)]]

    def test_two_vmas_share_a_leaf_table(self):
        pt = PageTable()
        pt.map_run(0, frames(10))
        pt.map_run(20, frames(5, first=9))
        assert checked_state(pt)["runs"] == [[0, frames(10)], [20, frames(5, first=9)]]

    @pytest.mark.parametrize("size", [PageSize.SIZE_2MB, PageSize.SIZE_1GB])
    def test_4kb_leaves_around_a_huge_leaf(self, size):
        pages = int(size)
        pt = PageTable()
        pt.map_run(pages - 3, [1, 2, 3])
        pt.map(Translation(pages, 4 * pages, size))
        pt.map_run(2 * pages, [4, 5])
        assert checked_state(pt) == {
            "runs": [[pages - 3, [1, 2, 3]], [2 * pages, [4, 5]]],
            "huge": [[pages, 4 * pages, pages]],
        }

    def test_demoted_huge_pages(self):
        process = Process(PhysicalMemory(1 << 30, seed=3), TransparentHugePaging())
        process.mmap(PAGES_PER_2MB * 4, name="heap")
        start = next(iter(process.address_space)).start_vpn
        first = process.break_huge_page(start + PAGES_PER_2MB)
        second = process.break_huge_page(start + 2 * PAGES_PER_2MB)
        state = checked_state(process.page_table)
        # The two demoted chunks are adjacent, so they form one run.
        demoted = list(range(first.pfn, first.pfn + PAGES_PER_2MB))
        demoted += range(second.pfn, second.pfn + PAGES_PER_2MB)
        assert [start + PAGES_PER_2MB, demoted] in state["runs"]
        assert [vpn for vpn, _, _ in state["huge"]] == [start, start + 3 * PAGES_PER_2MB]

    def test_empty_table(self):
        assert checked_state(PageTable()) == {"runs": [], "huge": []}


class TestRunStateIsCanonical:
    """The state depends on the mapping, not on how it was installed."""

    def test_install_order_does_not_matter(self):
        pfns = frames(600)
        in_bulk = PageTable()
        in_bulk.map_run(300, pfns)
        backwards = PageTable()
        for offset in reversed(range(len(pfns))):
            backwards.map(Translation(300 + offset, pfns[offset], PageSize.SIZE_4KB))
        assert checked_state(backwards) == checked_state(in_bulk)

    def test_remapped_page_rejoins_its_run(self):
        pt = PageTable()
        pt.map_run(0, frames(1000))
        leaf = pt.unmap(700)
        pt.map(leaf)
        fresh = PageTable()
        fresh.map_run(0, frames(1000))
        assert checked_state(pt) == checked_state(fresh)

    def test_lingering_empty_leaf_table(self):
        pt = PageTable()
        pt.map_run(0, frames(600))
        for vpn in range(PAGES_PER_2MB, 600):
            pt.unmap(vpn)
        assert pt.count_nodes()[1] == 2  # the emptied leaf table lingers
        fresh = PageTable()
        fresh.map_run(0, frames(PAGES_PER_2MB))
        assert checked_state(pt) == checked_state(fresh)


#: One page-table edit: map a 4 KB run, map a 2 MB leaf, or unmap a page.
EDITS = st.one_of(
    st.tuples(st.just("run"), st.integers(0, 4 * PAGES_PER_2MB), st.integers(1, 700)),
    st.tuples(st.just("huge"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("unmap"), st.integers(0, 4 * PAGES_PER_2MB), st.just(0)),
)


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(EDITS, max_size=12))
def test_state_round_trips_after_random_edits(edits):
    """Random edits agree with a plain model of the mapping."""
    pt = PageTable()
    small: dict[int, int] = {}  # 4 KB page -> frame
    huge: dict[int, int] = {}  # first page of a 2 MB leaf -> frame
    edited: set[int] = set()

    def covered(vpn):
        return vpn in small or vpn - vpn % PAGES_PER_2MB in huge

    for step, (kind, where, count) in enumerate(edits):
        if kind == "run":
            pages = range(where, where + count)
            pfns = frames(count, first=step * 1000)
            edit = partial(pt.map_run, where, pfns)
        elif kind == "huge":
            pages = range(where * PAGES_PER_2MB, (where + 1) * PAGES_PER_2MB)
            pfn = pages[0] + 8 * PAGES_PER_2MB
            edit = partial(pt.map, Translation(pages[0], pfn, PageSize.SIZE_2MB))
        else:
            pages = range(where, where + 1)
            edit = partial(pt.unmap, where)
        accepted = covered(where) if kind == "unmap" else not any(map(covered, pages))
        edited.update(pages)
        try:
            edit()
        except (AddressSpaceError, PageFault):
            assert not accepted
            continue
        assert accepted
        if kind == "run":
            small.update(zip(pages, pfns))
        elif kind == "huge":
            huge[pages[0]] = pfn
        elif where in small:
            del small[where]
        else:
            del huge[where - where % PAGES_PER_2MB]

    for vpn in edited:
        base = vpn - vpn % PAGES_PER_2MB
        if vpn in small:
            expected = Translation(vpn, small[vpn], PageSize.SIZE_4KB)
        elif base in huge:
            expected = Translation(base, huge[base], PageSize.SIZE_2MB)
        else:
            expected = None
        assert pt.lookup(vpn) == expected
    assert pt.mapped_bytes == (len(small) + PAGES_PER_2MB * len(huge)) << 12
    assert expand(checked_state(pt)) == sorted(
        [(vpn, pfn, 1) for vpn, pfn in small.items()]
        + [(vpn, pfn, PAGES_PER_2MB) for vpn, pfn in huge.items()]
    )


@settings(max_examples=40, deadline=None)
@given(
    vpns=st.lists(
        st.integers(min_value=0, max_value=1 << 24), min_size=1, max_size=60, unique=True
    )
)
def test_map_lookup_unmap_roundtrip(vpns):
    pt = PageTable()
    for index, vpn in enumerate(vpns):
        pt.map(Translation(vpn, index * 2, PageSize.SIZE_4KB))
    for index, vpn in enumerate(vpns):
        assert pt.translate(vpn) == index * 2
    assert sorted(t.vpn for t in pt.iter_translations()) == sorted(vpns)
    for vpn in vpns:
        pt.unmap(vpn)
    assert pt.mapped_bytes == 0


@settings(max_examples=30, deadline=None)
@given(chunks=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=30, unique=True))
def test_mixed_sizes_cover_disjoint_pages(chunks):
    """Alternating 2MB/4KB mappings translate consistently."""
    pt = PageTable()
    expected = {}
    for index, chunk in enumerate(chunks):
        base = chunk * PAGES_PER_2MB
        if index % 2 == 0:
            pt.map(Translation(base, base + PAGES_PER_2MB, PageSize.SIZE_2MB))
            expected[base + 37] = base + PAGES_PER_2MB + 37
        else:
            pt.map(Translation(base + 3, 7 * index, PageSize.SIZE_4KB))
            expected[base + 3] = 7 * index
    for vpn, pfn in expected.items():
        assert pt.translate(vpn) == pfn
