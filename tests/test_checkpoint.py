"""Tests for the checkpoint protocol, snapshots, and divergence bisection.

The acceptance bar of the checkpoint work:

* every TLB organization round-trips through ``state_dict`` /
  ``load_state_dict`` mid-run — a snapshot taken at a boundary restores
  onto a freshly built pipeline to the exact same state;
* a snapshot records the process by its digest: a restore re-fires the
  run's OS events, checks the rebuilt process against the digest, and
  rejects a pipeline built with another seed;
* that digest is streamed from the page table's leaves: it equals the
  digest of ``Process.state_dict()`` on every workload and random table
  without building the state;
* a run killed mid-cell and resumed from its snapshot finishes with a
  byte-identical result (and identical per-boundary state digests),
  OS events on both sides of the kill point included;
* a sweep killed mid-cell resumes mid-trace and produces byte-identical
  rows to an uninterrupted sweep;
* on both executors, a sweep restores only snapshots its own experiment
  wrote, and a snapshot that fails to restore leaves no half-restored
  cell behind;
* snapshot files are compact canonical JSON around a payload hashed as
  written, and reject non-UTF-8 text, version and checksum mismatches;
* ``bisect-divergence`` pinpoints the first diverging interval boundary
  and the diverging component on a seeded fault-injected run.
"""

import contextlib
import hashlib
import json
import random
import tracemalloc
import warnings
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentSettings, prepare_run
from repro.core.organizations import EXTENDED_CONFIG_NAMES, paging_policy_for
from repro.errors import AddressSpaceError, CheckpointError
from repro.ioutils import atomic_write_json, atomic_write_text
from repro.mem.physical import PhysicalMemory
from repro.mem.process import Process
from repro.mmu.page_table import PageFault, PageTable
from repro.mmu.translation import PAGES_PER_1GB, PAGES_PER_2MB, PageSize, Translation
from repro.resilience import checkpoint, sweep
from repro.resilience.bisect import describe_divergence, record_resumed, record_trail
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    AbortSimulation,
    DigestTrail,
    SimulationCheckpointer,
    canonical_json,
    claim_snapshot,
    component_digests,
    first_divergence,
    process_state_digest,
    read_snapshot,
    resume_from_snapshot,
    simulation_state,
    state_digest,
    write_snapshot,
)
from repro.resilience.faults import (
    adversarial_events,
    inject_duplicate_bursts,
    inject_out_of_range,
)
from repro.resilience.sweep import SweepJournal, run_resilient_sweep
from repro.stateful import rng_state_to_json
from repro.workloads.base import VMASpec, Workload
from repro.workloads.patterns import Zipf
from repro.workloads.registry import all_workloads, get_workload

SETTINGS = ExperimentSettings(trace_accesses=6_000, seed=5, physical_bytes=1 << 28)


def small_workload(name: str = "ckpt") -> Workload:
    return Workload(
        name,
        "TEST",
        [VMASpec("heap", 6), VMASpec("stack", 1, thp_eligible=False)],
        lambda regions: Zipf(regions["heap"].subregion(0, 24), alpha=1.1, burst=3),
        instructions_per_access=3.0,
    )


def storm_workload() -> Workload:
    """Six 2 MB-eligible pages, so each demotion storm under THP breaks some."""
    return Workload(
        "storms",
        "TEST",
        [VMASpec("heap", 12), VMASpec("stack", 1, thp_eligible=False)],
        lambda regions: Zipf(regions["heap"].subregion(0, 3072), alpha=1.1, burst=3),
        instructions_per_access=3.0,
    )


def prepare_with_events(config_name, engine):
    """A ``storm_workload`` cell whose schedule fires a storm at access 514,
    a shootdown at 1570, a storm at 4869 and a shootdown at 5025."""
    prepared = prepare_run(storm_workload(), config_name, SETTINGS, engine=engine)
    prepared.events = adversarial_events(
        prepared.process, len(prepared.trace), shootdowns=2, demotion_storms=2, seed=2
    )
    return prepared


#: Worker processes rebuild cells from the registry, so the sweep tests
#: that run on both executors use a registered workload.
POVRAY = get_workload("povray")

#: The first bytes of a PNG file: not UTF-8, so not a snapshot.
PNG_HEADER = b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR"


def registry_settings(seed: int) -> ExperimentSettings:
    return ExperimentSettings(trace_accesses=6_000, seed=seed)


def kill_every_cell(journal, configs, seed: int) -> None:
    """An in-process sweep whose cells all abort mid-trace, leaving snapshots."""
    report = run_resilient_sweep(
        [POVRAY], configs, registry_settings(seed),
        journal_path=journal, retries=0, checkpoint_every=1,
        checkpoint_hook_factory=lambda cp: setattr(cp, "abort_after", 3),
    )
    assert all(cell.status == "failed" for cell in report.cells)


def killed_snapshot(workload, config_name, path, abort_after=3, settings=SETTINGS):
    """Run a cell until ``abort_after`` boundaries, leaving a snapshot."""
    prepared = prepare_run(workload, config_name, settings)
    checkpointer = SimulationCheckpointer(
        prepared.simulator,
        prepared.process,
        path=path,
        checkpoint_every=1,
        abort_after=abort_after,
    )
    with pytest.raises(AbortSimulation):
        prepared.run(checkpoint_hook=checkpointer)
    return checkpointer


def process_digest(prepared) -> str:
    """What a snapshot records for the cell's process."""
    return state_digest(prepared.process.state_dict())


def assert_streamed_digest(process, case) -> None:
    """The streamed digest hashes exactly ``canonical_json(state_dict())``."""
    assert process_state_digest(process) == state_digest(process.state_dict()), case


def first_config_per_policy() -> tuple[str, ...]:
    """One configuration for each paging policy the 13 configurations build."""
    firsts: dict[str, str] = {}
    for name in EXTENDED_CONFIG_NAMES:
        firsts.setdefault(paging_policy_for(name).describe(), name)
    return tuple(firsts.values())


POLICY_CONFIGS = first_config_per_policy()


def leaf_state(table: PageTable) -> dict:
    """Oracle for ``PageTable.state_dict()``, from the table's leaves one by one."""
    runs, huge = [], []
    for leaf in table.iter_translations():
        if leaf.page_size is not PageSize.SIZE_4KB:
            huge.append([leaf.vpn, leaf.pfn, int(leaf.page_size)])
        elif runs and runs[-1][0] + len(runs[-1][1]) == leaf.vpn:
            runs[-1][1].append(leaf.pfn)
        else:
            runs.append([leaf.vpn, [leaf.pfn]])
    return {"runs": runs, "huge": huge}


#: Where random 4 KB runs start and pages are unmapped: the first few
#: leaf tables, or the last tables below a 1 GB edge (so runs cross
#: level-2 nodes), with table edges drawn often.
_VPNS = st.builds(
    int.__add__,
    st.sampled_from([0, PAGES_PER_1GB - 2 * PAGES_PER_2MB]),
    st.one_of(
        st.integers(0, 4 * PAGES_PER_2MB - 1), st.sampled_from([0, 1, 511, 512, 1023, 1024])
    ),
)

#: Random page-table changes as ``(kind, vpn, pages, pfn)``.  A ``run`` of
#: 0 pages fills its leaf table up to the edge.
TABLE_OPERATIONS = st.one_of(
    st.tuples(
        st.just("run"),
        _VPNS,
        st.one_of(st.integers(0, 1100), st.sampled_from([512, 513, 1024])),
        st.integers(0, 1 << 40),
    ),
    *(
        st.tuples(
            st.just("huge"),
            st.integers(0, count).map(lambda index, size=size: index * size),
            st.just(size),
            st.integers(0, 1 << 20).map(lambda index, size=size: index * size),
        )
        for size, count in ((PAGES_PER_2MB, 5), (PAGES_PER_1GB, 2))
    ),
    st.tuples(st.just("unmap"), _VPNS, st.just(1), st.just(0)),
)


def apply_operation(table: PageTable, operation) -> None:
    kind, vpn, pages, pfn = operation
    if kind == "run":
        pages = pages or PAGES_PER_2MB - vpn % PAGES_PER_2MB
        table.map_run(vpn, range(pfn, pfn + pages))
    elif kind == "huge":
        table.map(Translation(vpn, pfn, PageSize(pages)))
    else:
        table.unmap(vpn)


# ----------------------------------------------------------------------
# State round-trips: every organization, mid-run
# ----------------------------------------------------------------------
class TestStateRoundTrip:
    @pytest.mark.parametrize("config_name", EXTENDED_CONFIG_NAMES)
    def test_midrun_snapshot_restores_exactly(self, config_name, tmp_path):
        """Snapshot at boundary 3 → restore on a fresh pipeline → equal state."""
        workload = small_workload()
        path = tmp_path / "cell.ckpt"
        killed_snapshot(workload, config_name, path)
        saved_state, meta = read_snapshot(path)

        rebuilt = prepare_run(workload, config_name, SETTINGS)
        loop_state = resume_from_snapshot(rebuilt, path)
        restored_state = simulation_state(
            rebuilt.simulator, process_digest(rebuilt), loop_state
        )
        assert restored_state == saved_state
        assert component_digests(restored_state) == component_digests(saved_state)

    def test_lite_history_round_trips(self, tmp_path):
        workload = small_workload()
        path = tmp_path / "cell.ckpt"
        # The first Lite interval ends around boundary 32 at these settings;
        # kill at 35 so the snapshot carries at least one history record.
        killed_snapshot(workload, "TLB_Lite", path, abort_after=35)
        saved_state, _ = read_snapshot(path)
        assert saved_state["lite"]["history"], "no Lite intervals before the kill"

        rebuilt = prepare_run(workload, "TLB_Lite", SETTINGS)
        loop_state = resume_from_snapshot(rebuilt, path)
        assert rebuilt.organization.lite.state_dict() == saved_state["lite"]
        records = rebuilt.organization.lite.history
        assert records and records[-1].instructions_seen > 0

    def test_lite_mismatch_rejected(self, tmp_path):
        """A Lite snapshot cannot restore onto a Lite-less organization."""
        workload = small_workload()
        path = tmp_path / "cell.ckpt"
        killed_snapshot(workload, "TLB_Lite", path)
        rebuilt = prepare_run(workload, "THP", SETTINGS)
        with pytest.raises(CheckpointError):
            resume_from_snapshot(rebuilt, path)

    @pytest.mark.parametrize("config_name", ("4KB", "THP", "TLB_Lite"))
    def test_pipeline_built_with_another_seed_rejected(self, config_name, tmp_path):
        """The rebuilt process must match the digest the snapshot recorded."""
        path = tmp_path / "cell.ckpt"
        killed_snapshot(
            POVRAY, config_name, path, abort_after=5,
            settings=ExperimentSettings(trace_accesses=20_000, seed=5),
        )
        rebuilt = prepare_run(
            POVRAY, config_name, ExperimentSettings(trace_accesses=20_000, seed=6)
        )
        with pytest.raises(CheckpointError, match="rebuilt process differs"):
            resume_from_snapshot(rebuilt, path)

    def test_snapshot_holds_no_page_table(self, tmp_path):
        """mcf maps 444,416 4 KB pages under 4KB; the snapshot holds their digest."""
        path = tmp_path / "cell.ckpt"
        killed_snapshot(
            get_workload("mcf"), "4KB", path, abort_after=40,
            settings=ExperimentSettings(trace_accesses=20_000, seed=42),
        )
        state, _meta = read_snapshot(path)
        assert sorted(state) == ["hierarchy", "loop", "process_digest"]
        assert path.stat().st_size < 64 << 10


# ----------------------------------------------------------------------
# The process digest: what a snapshot records instead of the process
# ----------------------------------------------------------------------
class TestProcessDigest:
    @pytest.mark.parametrize("engine", ("reference", "fast"))
    @pytest.mark.parametrize("config_name", EXTENDED_CONFIG_NAMES)
    def test_event_free_run_leaves_the_process_unchanged(self, config_name, engine):
        """The invariant the checkpointer's digest cache relies on."""
        prepared = prepare_run(
            get_workload("omnetpp"), config_name,
            ExperimentSettings(trace_accesses=20_000, seed=42), engine=engine,
        )
        before = process_digest(prepared)
        prepared.run()
        assert process_digest(prepared) == before

    def test_digest_computed_once_per_fired_event_count(self, monkeypatch):
        encodes = []
        original = checkpoint.process_state_digest
        monkeypatch.setattr(
            checkpoint,
            "process_state_digest",
            lambda process: encodes.append(1) or original(process),
        )
        # A hook that neither snapshots nor digests never encodes the process.
        quiet = prepare_with_events("THP", "reference")
        quiet.run(checkpoint_hook=SimulationCheckpointer(quiet.simulator, quiet.process))
        assert encodes == []

        fired = set()
        run = record_trail(
            prepare_with_events("THP", "reference"),
            on_boundary=lambda loop: fired.add(loop["event_index"]),
        )
        assert len(encodes) == len(fired) == 4
        # The first boundary is the first storm; the second storm changes
        # the process again, the shootdowns do not.
        assert len({digests["process"] for digests in run.trail.digests}) == 2

    @pytest.mark.parametrize("config_name", POLICY_CONFIGS)
    def test_streamed_digest_matches_the_state(self, config_name):
        """Every registry workload, before and after demotions and munmaps."""
        for name, workload in all_workloads().items():
            process = workload.build_process(
                paging_policy_for(config_name),
                physical=PhysicalMemory(ExperimentSettings().physical_bytes, seed=42),
            )
            assert_streamed_digest(process, name)
            if process.break_huge_pages(0.5, seed=7):
                assert_streamed_digest(process, f"{name} after demotions")
            vmas = sorted(process.address_space, key=lambda vma: vma.start_vpn)
            for vma in vmas[1::2]:
                process.munmap(vma)
            assert_streamed_digest(process, f"{name} after munmaps")

    @settings(max_examples=150, deadline=None)
    @given(operations=st.lists(TABLE_OPERATIONS, max_size=12))
    def test_streamed_digest_matches_random_tables(self, operations):
        """Full and partial leaf tables, runs at and across table edges,
        2 MB and 1 GB leaves, and the empty table."""
        process = Process(PhysicalMemory(1 << 24))
        table = process.page_table = PageTable()
        for operation in operations:
            with contextlib.suppress(AddressSpaceError, PageFault):
                apply_operation(table, operation)
        assert table.state_dict() == leaf_state(table)
        assert_streamed_digest(process, operations)

    def test_digest_of_mcf_4kb_holds_no_state(self):
        """mcf's 4KB table maps 444,416 pages; its state peaks at 23.4 MiB."""
        process = get_workload("mcf").build_process(
            paging_policy_for("4KB"),
            physical=PhysicalMemory(ExperimentSettings().physical_bytes, seed=42),
        )
        tracemalloc.start()
        try:
            digest = process_state_digest(process)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert digest == state_digest(process.state_dict())

    def test_killed_mcf_4kb_cell_resumes_from_its_snapshot(self, monkeypatch, tmp_path):
        """A digest mismatch on restore only warns and reruns the cell from
        access 0, so warnings are errors here and the restore is watched."""
        mcf = get_workload("mcf")
        cell = ExperimentSettings(trace_accesses=20_000, seed=42)
        journal = tmp_path / "sweep.journal"
        killed = run_resilient_sweep(
            [mcf], ("4KB",), cell, journal_path=journal, retries=0, checkpoint_every=1,
            checkpoint_hook_factory=lambda cp: setattr(cp, "abort_after", 20),
        )
        assert killed.cells[0].status == "failed"

        restored = []
        original = sweep.restore_simulation
        monkeypatch.setattr(
            sweep,
            "restore_simulation",
            lambda prepared, state: restored.append(state["loop"]["boundary"])
            or original(prepared, state),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resumed = run_resilient_sweep(
                [mcf], ("4KB",), cell,
                journal_path=journal, resume=True, retries=0, checkpoint_every=1,
            )
        assert resumed.summary() == "ok: 1", resumed.cells[0].error
        assert restored == [20]
        assert resumed.rows() == run_resilient_sweep([mcf], ("4KB",), cell).rows()


# ----------------------------------------------------------------------
# Kill-and-resume determinism
# ----------------------------------------------------------------------
class TestResumeDeterminism:
    @pytest.mark.parametrize(
        "config_name", ("4KB", "TLB_Lite", "RMM_Lite", "FA_Lite", "Banked")
    )
    def test_resumed_run_is_byte_identical(self, config_name, tmp_path):
        workload = small_workload()
        fresh = record_trail(prepare_run(workload, config_name, SETTINGS))
        resumed = record_resumed(
            partial(prepare_run, workload, config_name, SETTINGS),
            4,
            tmp_path / "cell.ckpt",
        )
        assert first_divergence(fresh.trail, resumed.trail) is None
        assert resumed.result == fresh.result

    @pytest.mark.parametrize("engine", ("reference", "fast"))
    @pytest.mark.parametrize("config_name", ("THP", "TLB_PP", "RMM_Lite"))
    def test_resume_across_os_events(self, config_name, engine, tmp_path):
        """The restore re-fires the events fired before the kill point."""
        prepare = partial(prepare_with_events, config_name, engine)
        fresh = record_trail(prepare())
        path = tmp_path / "cell.ckpt"
        resumed = record_resumed(prepare, 25, path)
        assert first_divergence(fresh.trail, resumed.trail) is None
        assert resumed.result == fresh.result

        # A shootdown and a demotion storm fire on each side of the kill.
        state, _meta = read_snapshot(path)
        built = prepare()
        kinds = [event.__name__ for _position, event in built.events]
        fired = state["loop"]["event_index"]
        assert sorted(kinds[:fired]) == sorted(kinds[fired:]) == ["flush", "storm"]
        # Where the process has 2 MB pages, the storm changed it, so only
        # a re-fired schedule matches the recorded digest.
        huge_pages = built.process.page_size_histogram()[PageSize.SIZE_2MB]
        assert (state["process_digest"] != process_digest(built)) == (huge_pages > 0)

    def test_sweep_killed_mid_cell_resumes_byte_identical(self, tmp_path):
        """The tentpole scenario: kill every cell mid-trace, resume, compare."""
        workload = small_workload()
        configs = ("4KB", "THP", "TLB_Lite")
        reference = run_resilient_sweep(
            [workload], configs, SETTINGS,
            journal_path=tmp_path / "ref.journal", checkpoint_every=1,
        )
        assert reference.summary() == "ok: 3"

        journal = tmp_path / "sweep.journal"
        killed = run_resilient_sweep(
            [workload], configs, SETTINGS,
            journal_path=journal, retries=0, checkpoint_every=1,
            checkpoint_hook_factory=lambda cp: setattr(cp, "abort_after", 4),
        )
        assert all(cell.status == "failed" for cell in killed.cells)
        snapshots = list(tmp_path.glob("sweep.journal.*.ckpt"))
        assert len(snapshots) == len(configs)

        resumed = run_resilient_sweep(
            [workload], configs, SETTINGS,
            journal_path=journal, resume=True, checkpoint_every=1,
        )
        assert resumed.summary() == "ok: 3"
        assert resumed.rows() == reference.rows()
        # Completed cells delete their resume points.
        assert list(tmp_path.glob("sweep.journal.*.ckpt")) == []

    @pytest.mark.parametrize("workers", [None, 1])
    def test_fresh_sweep_discards_stale_snapshots(self, workers, tmp_path):
        """A resume never restores a snapshot an earlier experiment left."""
        journal = tmp_path / "sweep.journal"
        kill_every_cell(journal, ("4KB", "THP"), seed=1)
        assert (tmp_path / "sweep.journal.povray--THP.ckpt").exists()
        # A fresh seed-2 sweep on the same journal path stops after 4KB…
        sweep = dict(
            journal_path=journal, checkpoint_every=1, workers=workers
        )
        run_resilient_sweep(
            [POVRAY], ("4KB", "THP"), registry_settings(2), max_cells=1, **sweep
        )
        # …so its resume runs THP, which must start clean, not from seed 1.
        resumed = run_resilient_sweep(
            [POVRAY], ("4KB", "THP"), registry_settings(2), resume=True, **sweep
        )
        clean = run_resilient_sweep([POVRAY], ("THP",), registry_settings(2))
        assert resumed.cell("povray", "THP").status == "ok"
        assert resumed.cell("povray", "THP").row == clean.rows()[0]

    @pytest.mark.parametrize("workers", [None, 1])
    def test_unrestorable_snapshot_reruns_cell_clean(self, workers, tmp_path):
        """A snapshot that fails mid-restore is dropped and the cell rebuilt."""
        journal = tmp_path / "sweep.journal"
        kill_every_cell(journal, ("THP",), seed=5)
        snapshot = tmp_path / "sweep.journal.povray--THP.ckpt"
        state, meta = read_snapshot(snapshot)
        # Still checksum-valid; the restore fails only after the L1 TLBs
        # have been loaded, leaving the first build half-restored.
        state["hierarchy"]["structures"]["L2-4KB"]["ways"] += 1
        write_snapshot(snapshot, state, meta)
        warns = (
            pytest.warns(UserWarning, match="failed to restore")
            if workers is None
            else contextlib.nullcontext()  # warned in the worker process
        )
        with warns:
            resumed = run_resilient_sweep(
                [POVRAY], ("THP",), registry_settings(5),
                journal_path=journal, checkpoint_every=1, resume=True,
                workers=workers,
            )
        clean = run_resilient_sweep([POVRAY], ("THP",), registry_settings(5))
        cell = resumed.cell("povray", "THP")
        assert (cell.status, cell.attempts) == ("ok", 1)
        assert cell.row == clean.rows()[0]
        assert not snapshot.exists()

    @pytest.mark.parametrize("workers", [None, 1])
    def test_non_utf8_snapshot_reruns_cell_clean(self, workers, tmp_path):
        """A snapshot file that is not text is discarded, not failed on."""
        journal = tmp_path / "sweep.journal"
        configs = ("THP", "4KB")
        sweep = dict(journal_path=journal, checkpoint_every=1, workers=workers)
        run_resilient_sweep(
            [POVRAY], configs, registry_settings(5), max_cells=1, **sweep
        )
        snapshot = tmp_path / "sweep.journal.povray--4KB.ckpt"
        snapshot.write_bytes(PNG_HEADER)
        warns = (
            pytest.warns(UserWarning, match="discarding unusable snapshot")
            if workers is None
            else contextlib.nullcontext()  # warned in the worker process
        )
        with warns:
            resumed = run_resilient_sweep(
                [POVRAY], configs, registry_settings(5), resume=True, **sweep
            )
        clean = run_resilient_sweep([POVRAY], ("4KB",), registry_settings(5))
        cell = resumed.cell("povray", "4KB")
        assert (cell.status, cell.attempts) == ("ok", 1)
        assert cell.row == clean.rows()[0]
        assert SweepJournal(journal).load_state(None).completed["povray|4KB"] == cell.row
        assert not snapshot.exists()

    def test_resume_state_rejects_different_trace(self, tmp_path):
        workload = small_workload()
        path = tmp_path / "cell.ckpt"
        killed_snapshot(workload, "THP", path)
        other_settings = ExperimentSettings(
            trace_accesses=4_000, seed=5, physical_bytes=1 << 28
        )
        rebuilt = prepare_run(workload, "THP", other_settings)
        loop_state = resume_from_snapshot(rebuilt, path)
        with pytest.raises(CheckpointError):
            rebuilt.run(resume_state=loop_state)


# ----------------------------------------------------------------------
# Snapshot file integrity
# ----------------------------------------------------------------------
class TestSnapshotFiles:
    def test_round_trip_with_meta(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        state = {"hierarchy": {"l1_misses": 3}, "loop": {"boundary": 7}}
        write_snapshot(path, state, meta={"cell": "w|c"})
        loaded, meta = read_snapshot(path)
        assert loaded == state
        assert meta == {"cell": "w|c"}

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        write_snapshot(path, {"loop": {}})
        envelope = json.loads(path.read_text())
        envelope["checkpoint_version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="version"):
            read_snapshot(path)

    def test_checksum_mismatch_rejected(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        write_snapshot(path, {"loop": {"boundary": 1}})
        envelope = json.loads(path.read_text())
        envelope["payload"]["loop"]["boundary"] = 2  # corrupt the payload
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="checksum"):
            read_snapshot(path)

    def test_garbage_and_missing_rejected(self, tmp_path):
        garbage = tmp_path / "garbage.ckpt"
        garbage.write_text('{"checkpoint_version": 1, "truncat')
        with pytest.raises(CheckpointError):
            read_snapshot(garbage)
        binary = tmp_path / "binary.ckpt"
        binary.write_bytes(PNG_HEADER)
        with pytest.raises(CheckpointError, match="unreadable"):
            read_snapshot(binary)
        with pytest.raises(CheckpointError):
            read_snapshot(tmp_path / "missing.ckpt")

    @pytest.mark.parametrize("meta", [None, {"cell": "w|c", "boundary": 7}])
    def test_file_is_canonical_json_with_payload_digest(self, meta, tmp_path):
        path = tmp_path / "snap.ckpt"
        state = {"loop": {"boundary": 7}, "hierarchy": {"b": [1, 2.5, None], "a": "é"}}
        write_snapshot(path, state, meta)
        text = path.read_text()
        envelope = json.loads(text)
        assert text == canonical_json(envelope) + "\n"
        assert envelope == {
            "checkpoint_version": CHECKPOINT_VERSION,
            "meta": meta or {},
            "payload": state,
            "sha256": envelope["sha256"],
        }
        start = text.index('"payload":') + len('"payload":')
        payload_text = text[start : text.rindex(',"sha256":')]
        assert json.loads(payload_text) == state
        assert envelope["sha256"] == hashlib.sha256(payload_text.encode()).hexdigest()

    #: A payload in the layout of each retired snapshot version.
    OLD_PAYLOADS = {
        # Version 1 listed every leaf as a [vpn, pfn, size] triple.
        1: {"process": {"page_table": {"translations": [[0, 7, 1], [1, 9, 1]]}}},
        # Version 2 held the allocator's Mersenne Twister state.
        2: {
            "process": {
                "page_table": {"runs": [[0, [7, 9]]], "huge": []},
                "physical": {"rng": rng_state_to_json(random.Random(0).getstate())},
            }
        },
        # Version 5 held the whole process; version 6 holds its digest.
        5: {"process": Process(PhysicalMemory(1 << 20)).state_dict()},
        # Version 6's Lite state restated its last record and kept
        # aggregate counts; its timeline samples carried Lite's ways.
        6: {
            "process_digest": "0" * 64,
            "lite": {
                "rng": rng_state_to_json(random.Random(0).getstate()),
                "previous_mpki": 12.5,
                "instructions_seen": 10_000,
                "stats": {
                    "intervals": 1,
                    "downsizes": 0,
                    "random_reactivations": 0,
                    "degradation_reactivations": 0,
                },
                "counters": {"L1-4KB": [0, 0, 0]},
                "history": [
                    {
                        "instructions_seen": 10_000,
                        "actual_mpki": 12.5,
                        "action": "decide",
                        "active_units": {"L1-4KB": 4},
                    }
                ],
            },
            "loop": {"boundary": 3, "timeline": [[3_000, 12.5, {"L1-4KB": 4}]]},
        },
    }

    @pytest.mark.parametrize("version", sorted(OLD_PAYLOADS))
    def test_version_1_snapshot_is_discarded(self, tmp_path, version):
        """A snapshot in an older layout reruns its cell from access 0."""
        path = tmp_path / "old.ckpt"
        payload = {"loop": {"boundary": 3}, **self.OLD_PAYLOADS[version]}
        envelope = {
            "checkpoint_version": version,
            "meta": {"boundary": 3},
            "payload": payload,
            "sha256": hashlib.sha256(canonical_json(payload).encode()).hexdigest(),
        }
        path.write_text(json.dumps(envelope, sort_keys=True) + "\n")
        with pytest.raises(CheckpointError, match=f"version {version} unsupported"):
            read_snapshot(path)
        with pytest.warns(UserWarning, match="discarding unusable snapshot"):
            assert claim_snapshot(path) is None
        assert not path.exists()

    def test_atomic_writers_leave_no_temp_files(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "first\n")
        atomic_write_json(target, {"b": 2, "a": 1})
        assert json.loads(target.read_text()) == {"a": 1, "b": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


# ----------------------------------------------------------------------
# Digest trails and bisection
# ----------------------------------------------------------------------
def trail_from(digest_lists) -> DigestTrail:
    trail = DigestTrail()
    for boundary, digest_map in enumerate(digest_lists, start=1):
        trail.record(boundary, digest_map)
    return trail


class TestBisection:
    def test_identical_trails_have_no_divergence(self):
        maps = [{"a": "1"}, {"a": "2"}, {"a": "3"}]
        assert first_divergence(trail_from(maps), trail_from(maps)) is None

    @pytest.mark.parametrize("diverge_at", range(6))
    def test_binary_search_finds_first_difference(self, diverge_at):
        base = [{"x": str(i), "y": "same"} for i in range(6)]
        other = [dict(digest_map) for digest_map in base]
        for index in range(diverge_at, 6):
            other[index]["x"] = f"{index}-diverged"
        divergence = first_divergence(trail_from(base), trail_from(other))
        assert divergence.index == diverge_at
        assert divergence.boundary == diverge_at + 1
        assert divergence.components == ("x",)

    def test_mismatched_trails_rejected(self):
        with pytest.raises(CheckpointError):
            first_divergence(trail_from([{"a": "1"}]), trail_from([]))

    def test_trail_json_round_trip(self):
        trail = trail_from([{"a": "1"}, {"a": "2"}])
        assert DigestTrail.from_json(trail.to_json()).boundaries == trail.boundaries

    def test_state_digest_is_order_insensitive(self):
        assert state_digest({"a": 1, "b": 2}) == state_digest({"b": 2, "a": 1})
        assert state_digest({"a": 1}) != state_digest({"a": 2})

    def test_fault_injected_run_pinpoints_component(self):
        """Seeded trace fault → first diverging boundary + component named."""
        workload = small_workload()
        clean = record_trail(prepare_run(workload, "4KB", SETTINGS))
        faulty = prepare_run(workload, "4KB", SETTINGS, on_fault="record")
        faulty.trace = inject_duplicate_bursts(faulty.trace, seed=7)
        divergence = first_divergence(clean.trail, record_trail(faulty).trail)
        assert divergence is not None
        assert divergence.boundary > 1  # the burst lands mid-trace
        assert divergence.components == ("hierarchy.structures.L1-4KB",)
        assert "L1-4KB" in describe_divergence(divergence)

    def test_out_of_range_fault_diverges_hierarchy_and_loop(self):
        workload = small_workload()
        clean = record_trail(prepare_run(workload, "TLB_Lite", SETTINGS))
        faulty = prepare_run(workload, "TLB_Lite", SETTINGS, on_fault="record")
        faulty.trace = inject_out_of_range(faulty.trace, seed=7)
        divergence = first_divergence(clean.trail, record_trail(faulty).trail)
        assert divergence is not None
        assert "loop" in divergence.components  # recorded fault entries
        assert any(c.startswith("hierarchy.") for c in divergence.components)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_bisect_divergence_exit_codes(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                ["bisect-divergence", "povray", "--config", "TLB_Lite",
                 "--accesses", "6000", "--abort-after", "3"]
            )
            == 0
        )
        assert "no divergence" in capsys.readouterr().out
        assert (
            main(
                ["bisect-divergence", "povray", "--config", "4KB",
                 "--accesses", "6000", "--fault", "out_of_range"]
            )
            == 1
        )
        assert "first divergence at boundary" in capsys.readouterr().out
        assert (
            main(
                ["bisect-divergence", "povray", "--config", "THP",
                 "--accesses", "6000", "--seed-b", "6"]
            )
            == 1
        )
        assert "first divergence" in capsys.readouterr().out

    def test_sweep_checkpoint_every_requires_journal(self, capsys):
        from repro.__main__ import main

        code = main(["sweep", "povray", "--accesses", "6000", "--checkpoint-every", "2"])
        assert code == 2
        assert "journal" in capsys.readouterr().err
