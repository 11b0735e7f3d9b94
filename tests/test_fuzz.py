"""Differential fuzzing harness tests: oracles, minimizer, corpus, CLI glue.

The acceptance bar of the fuzzing work: a clean tree passes generated
cases, a deliberately seeded checkpoint-restore defect is caught by the
resume oracle, minimized to a handful of trace entries, written as a
self-contained reproducer, and replayed deterministically into the same
bucket fingerprint — then passes again once the defect is reverted.
"""

import hashlib
import json
from dataclasses import dataclass, replace

import pytest

from repro.core.organizations import EXTENDED_CONFIG_NAMES
from repro.errors import ConfigurationError, FuzzError
from repro.resilience.faults import ChaosPolicy, dataclass_from_json
from repro.resilience.fuzz import (
    CORPUS_VERSION,
    FUZZ_CASE_VERSION,
    ORACLE_NAMES,
    FuzzCase,
    FuzzFailure,
    corpus_paths,
    generate_case,
    load_reproducer,
    minimize_reproducer,
    replay_corpus,
    rng_stream,
    run_case,
    run_fuzz,
    write_reproducer,
)
from repro.resilience.minimize import minimize_case
from repro.tlb.set_assoc import SetAssociativeTLB


def _install_restore_defect(monkeypatch) -> None:
    """Seeded bug: restoring a snapshot silently drops pending counters.

    This is exactly the class of defect the resume oracle exists for —
    the restored hierarchy is *almost* right, and nothing crashes; only
    the digest trail of the resumed run splits from the fresh one.
    """
    original = SetAssociativeTLB.load_state_dict

    def broken(self, state):
        original(self, state)
        self._pending_hits = 0
        self._pending_misses = 0
        self._pending_fills = 0

    monkeypatch.setattr(SetAssociativeTLB, "load_state_dict", broken)


def _install_telemetry_defect(monkeypatch) -> None:
    """Seeded bug: end-of-run telemetry mutates the result it publishes.

    Only the observability oracle's run carries a hub, so only that run
    is perturbed — the exact inertness violation the oracle exists for.
    """
    from repro.observability import SimulatorInstrumentation

    original = SimulatorInstrumentation.finish

    def broken(self, result, events_fired):
        result.l1_misses += 1
        original(self, result, events_fired=events_fired)

    monkeypatch.setattr(SimulatorInstrumentation, "finish", broken)


# ----------------------------------------------------------------------
# Seeded RNG streams + case generation
# ----------------------------------------------------------------------
class TestGeneration:
    def test_rng_stream_is_deterministic_and_path_separated(self):
        a = rng_stream(7, "case", 3).integers(0, 1 << 30, 8)
        b = rng_stream(7, "case", 3).integers(0, 1 << 30, 8)
        c = rng_stream(7, "case", 4).integers(0, 1 << 30, 8)
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    def test_generate_case_is_deterministic(self):
        for index in range(6):
            first = generate_case(11, index)
            again = generate_case(11, index)
            assert first.to_json() == again.to_json()

    def test_generated_cases_are_well_formed(self):
        seen_configs = set()
        for index in range(24):
            case = generate_case(0, index)
            assert case.config in EXTENDED_CONFIG_NAMES
            assert set(case.oracles) <= set(ORACLE_NAMES)
            assert case.trace_entries() > 0
            # every case must survive its own JSON round trip
            assert FuzzCase.from_json(case.to_json()) == case
            seen_configs.add(case.config)
        assert len(seen_configs) >= 5, "generator should cover many organizations"

    def test_draws_are_byte_stable(self):
        """Campaign seed 7's first 60 cases, pinned by digest.

        The generator draws configurations in ``EXTENDED_CONFIG_NAMES``
        order, so reordering the configuration table (or any other
        change to the draw sequence) would silently reshuffle every
        fuzz campaign and orphan the corpus's provenance.
        """
        cases = [generate_case(7, index).to_json() for index in range(60)]
        digest = hashlib.sha256(json.dumps(cases, sort_keys=True).encode()).hexdigest()
        assert digest == "bae8fde55df4a4c7c69ba09c236837a41d9358b3d5f82362c0c01c76a6b5728b"


class TestCaseSchema:
    def test_round_trip(self):
        case = generate_case(3, 0)
        assert FuzzCase.from_json(case.to_json()) == case

    def test_rejects_wrong_version(self):
        payload = generate_case(3, 0).to_json()
        payload["case_version"] = FUZZ_CASE_VERSION + 1
        with pytest.raises(ConfigurationError, match="version"):
            FuzzCase.from_json(payload)

    def test_rejects_unknown_key(self):
        payload = generate_case(3, 0).to_json()
        payload["surprise"] = 1
        with pytest.raises(ConfigurationError, match="unknown keys: surprise"):
            FuzzCase.from_json(payload)

    def test_rejects_missing_key(self):
        payload = generate_case(3, 0).to_json()
        del payload["digest_every"]
        with pytest.raises(ConfigurationError, match="missing keys: digest_every"):
            FuzzCase.from_json(payload)

    def test_rejects_unknown_oracle(self):
        payload = generate_case(3, 0).to_json()
        payload["oracles"] = ["engines", "vibes"]
        with pytest.raises(ConfigurationError, match="unknown oracle 'vibes'"):
            FuzzCase.from_json(payload)

    def test_rejects_non_object(self):
        with pytest.raises(ConfigurationError, match="expected an object"):
            FuzzCase.from_json([1, 2, 3])


class TestFingerprints:
    def test_fingerprint_is_stable_and_shape_sensitive(self):
        a = FuzzFailure("resume", "divergence", "boundary 3", ("l1_tlb_4kb",))
        b = FuzzFailure("resume", "divergence", "different detail", ("l1_tlb_4kb",))
        c = FuzzFailure("resume", "divergence", "boundary 3", ("l2_tlb",))
        assert a.fingerprint == b.fingerprint  # detail is not bucket material
        assert a.fingerprint != c.fingerprint  # components are
        assert a.same_bucket_shape(c)
        assert not a.same_bucket_shape(FuzzFailure("engines", "divergence", ""))


# ----------------------------------------------------------------------
# The oracle stack end to end
# ----------------------------------------------------------------------
class TestOracles:
    def test_clean_tree_passes_generated_cases(self):
        for index in range(3):
            outcome = run_case(generate_case(0, index))
            assert outcome.ok, outcome.failure.to_json()

    def test_seeded_restore_defect_end_to_end(self, tmp_path):
        """ISSUE acceptance: defect -> caught -> minimized <=64 -> replays."""
        case = generate_case(0, 0)
        with pytest.MonkeyPatch.context() as patch:
            _install_restore_defect(patch)
            outcome = run_case(case)
            assert not outcome.ok
            assert outcome.failure.oracle == "resume"

            result = minimize_case(case, outcome.failure, max_evaluations=80)
            assert result.entries <= 64
            assert result.entries < result.original_entries
            assert result.failure.same_bucket_shape(outcome.failure)

            path = write_reproducer(
                tmp_path / f"{result.failure.fingerprint}.json",
                result.case,
                result.failure,
                found={"campaign_seed": 0, "case_index": 0},
            )
            loaded_case, envelope = load_reproducer(path)
            assert loaded_case == result.case
            assert envelope["fingerprint"] == result.failure.fingerprint

            replayed = replay_corpus([path])
            assert [r.status for r in replayed] == ["fail"]
            assert (
                replayed[0].outcome.failure.fingerprint == result.failure.fingerprint
            ), "replay must land in the same bucket deterministically"

        # Defect reverted: the reproducer must now pass — the corpus
        # contract for an entry whose underlying bug has been fixed.
        assert [r.status for r in replay_corpus([path])] == ["pass"]

    def test_run_fuzz_writes_then_dedupes_reproducers(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        with pytest.MonkeyPatch.context() as patch:
            _install_restore_defect(patch)
            report = run_fuzz(
                seed=0,
                cases=1,
                corpus_dir=corpus,
                minimize=True,
                minimize_evaluations=40,
            )
            assert not report.ok
            assert report.cases_run == 1
            assert len(report.new_reproducers) == 1
            assert corpus_paths(corpus) == report.new_reproducers

            again = run_fuzz(seed=0, cases=1, corpus_dir=corpus, minimize=False)
            assert not again.ok
            assert again.new_reproducers == []  # fingerprint already on disk

    def test_run_fuzz_respects_time_budget(self):
        report = run_fuzz(seed=0, cases=50, max_seconds=0.0)
        assert report.budget_exhausted
        assert report.cases_run == 0


class TestObservabilityOracle:
    def test_oracle_registered(self):
        assert "observability" in ORACLE_NAMES

    def test_oracle_toggle_is_independent_of_case_draws(self):
        """The toggle rides its own rng stream: the generator must both
        include and omit the oracle across a campaign, and flipping it
        must leave every other case field untouched (corpus stability).
        """
        included = set()
        for index in range(16):
            case = generate_case(5, index)
            included.add("observability" in case.oracles)
            bare = replace(
                case,
                oracles=tuple(n for n in ORACLE_NAMES if n != "observability"),
            )
            payload, bare_payload = case.to_json(), bare.to_json()
            payload.pop("oracles"), bare_payload.pop("oracles")
            assert payload == bare_payload
        assert included == {True, False}

    def test_seeded_telemetry_defect_end_to_end(self, tmp_path):
        """A hub that perturbs the run is caught, banked, and replays."""
        case = replace(generate_case(0, 1), oracles=ORACLE_NAMES)
        with pytest.MonkeyPatch.context() as patch:
            _install_telemetry_defect(patch)
            outcome = run_case(case)
            assert not outcome.ok
            assert outcome.failure.oracle == "observability"
            assert outcome.failure.kind == "result-mismatch"
            assert "l1_misses" in outcome.failure.components

            path = write_reproducer(
                tmp_path / f"{outcome.failure.fingerprint}.json",
                case,
                outcome.failure,
            )
            replayed = replay_corpus([path])
            assert [r.status for r in replayed] == ["fail"]
            assert replayed[0].outcome.failure.oracle == "observability"

        # Defect reverted: telemetry is inert again and the entry passes.
        assert [r.status for r in replay_corpus([path])] == ["pass"]

    def test_clean_tree_passes_with_oracle_forced_on(self):
        for index in range(2):
            case = replace(generate_case(9, index), oracles=ORACLE_NAMES)
            outcome = run_case(case)
            assert outcome.ok, outcome.failure.to_json()


# ----------------------------------------------------------------------
# Reproducer envelopes + the committed corpus
# ----------------------------------------------------------------------
class TestReproducerEnvelope:
    def _write_clean(self, tmp_path):
        case = generate_case(0, 0)
        failure = FuzzFailure("resume", "divergence", "synthetic")
        return write_reproducer(tmp_path / "r.json", case, failure)

    def test_rejects_wrong_corpus_version(self, tmp_path):
        path = self._write_clean(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["corpus_version"] = CORPUS_VERSION + 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(ConfigurationError, match="corpus version"):
            load_reproducer(path)

    def test_rejects_schema_drift(self, tmp_path):
        path = self._write_clean(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["extra"] = True
        path.write_text(json.dumps(envelope))
        with pytest.raises(ConfigurationError, match="unknown keys: extra"):
            load_reproducer(path)

    def test_missing_file_is_structured(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no reproducer"):
            load_reproducer(tmp_path / "absent.json")

    def test_minimize_reproducer_refuses_passing_case(self, tmp_path):
        path = self._write_clean(tmp_path)
        with pytest.raises(FuzzError, match="no longer fails"):
            minimize_reproducer(path, max_evaluations=4)


class TestCommittedCorpus:
    def test_committed_corpus_replays_clean(self):
        import repro

        repo_root = __import__("pathlib").Path(repro.__file__).resolve().parents[2]
        paths = corpus_paths(repo_root / "corpus")
        assert paths, "the committed regression corpus must not be empty"
        for replayed in replay_corpus(paths):
            assert replayed.status == "pass", (
                f"{replayed.path.name}: regression re-awakened "
                f"({replayed.outcome.failure and replayed.outcome.failure.to_json()})"
            )


# ----------------------------------------------------------------------
# Strict JSON for the fuzz and chaos campaigns' task specs
# ----------------------------------------------------------------------
@dataclass
class _Record:
    """A schema with required and defaulted fields."""

    name: str
    count: int
    note: str | None = None


class TestStrictCampaignJson:
    def test_chaos_policy_round_trip(self):
        policy = ChaosPolicy(kill_probability=0.25, oom_at_boundary=3, seed=9)
        assert ChaosPolicy.from_json(policy.to_json()) == policy

    def test_chaos_policy_rejects_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown keys: kill_prob"):
            ChaosPolicy.from_json({"kill_prob": 0.5})

    def test_chaos_policy_rejects_non_object(self):
        with pytest.raises(ConfigurationError, match="expected an object"):
            ChaosPolicy.from_json([0.5])

    def test_dataclass_from_json_rejects_missing_required_key(self):
        with pytest.raises(ConfigurationError, match="missing keys: name"):
            dataclass_from_json(_Record, {"count": 1}, "record")

    def test_dataclass_from_json_allows_defaulted_omissions(self):
        record = dataclass_from_json(_Record, {"name": "x", "count": 1}, "record")
        assert record == _Record("x", 1)
        assert record.note is None
