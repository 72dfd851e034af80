"""Tests for repro.obs.ledger: records, appends, gc, crash safety, diffs.

The acceptance-critical properties live in ``TestCrashSafety``: a failed
append (a failing ``fsync``, an injected ``store.write`` fault) leaves
the ledger as it found it; a ledger cut at any byte — a crash mid-write —
reads back exactly its complete records and takes the next append; and
the one rename left (``gc``'s rewrite) keeps the old file when it fails.
``TestJournalCrashSafety`` runs the same tests over the server's job
journal, which is the same JSON-lines code under another record shape.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.chaos import DEFAULT_STORE_RETRY, ChaosPlan, use_chaos
from repro.errors import PersistError
from repro.obs.ledger import (
    Ledger,
    RunRecord,
    append_run,
    diff_records,
    flatten_work,
    render_history_list,
)
from repro.persist.lines import JsonLines
from repro.serve import ResultStore
from repro.serve.store_index import JOURNAL_SCHEMA


def _record(fingerprint="f" * 64, kind="solve", **kwargs):
    kwargs.setdefault("work", {"safety.pairs_explored": 9})
    return RunRecord(kind=kind, fingerprint=fingerprint, **kwargs)


def write_legacy_ledger(path, records) -> None:
    """Write *records* as a schema-1 ledger: one indented envelope."""
    body = {
        "kind": "ledger",
        "schema": 1,
        "next_id": records[-1].run_id + 1,
        "entries": [r.to_json_dict() for r in records],
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    envelope = {
        "schema": 1,
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "body": body,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh, indent=2, sort_keys=True)
        fh.write("\n")


def legacy_records(n=3):
    return [
        _record("a" * 64, work={"pairs": i}, run_id=i + 1, created_at=1.0 + i)
        for i in range(n)
    ]


class LedgerFile:
    """The run ledger as a JSON-lines file under test.

    ``write(path, i)`` makes the *i*-th append of a fixed sequence;
    ``read(path)`` is what a reader rebuilds from the file, comparable
    across files written at different times.
    """

    name = "ledger.json"

    @staticmethod
    def write(path: str, i: int) -> None:
        append_run(path, kind="solve", fingerprint="a" * 64,
                   work={"pairs": i})

    @staticmethod
    def read(path: str):
        return [(r.run_id, r.fingerprint, dict(r.work))
                for r in Ledger(path).read()]

    @staticmethod
    def rewrite(path: str) -> None:
        Ledger(path).gc(keep=1)


class JournalFile:
    """The derivation server's job journal as a JSON-lines file under test.

    Write *i* admits job ``j<i // 2>`` when *i* is even and moves it to
    ``done`` when *i* is odd; a read is the replay (records and next job
    sequence number) plus the journal's raw lines.
    """

    name = "journal.json"

    @staticmethod
    def write(path: str, i: int) -> None:
        store = ResultStore(os.path.dirname(path))
        seq = i // 2
        record = {
            "schema": 1, "job_id": f"j{seq}", "seq": seq, "kind": "solve",
            "label": "", "priority": 0, "fingerprint": f"{seq:064d}",
            "state": "queued", "cache": "miss", "outcome": None,
            "verdict": None, "error": None, "attempts": 0,
            "resumed": False, "request": {"kind": "solve", "payload": {}},
        }
        if i % 2:
            record.update(state="done", outcome="complete", attempts=1,
                          verdict="converter")
        store.save_job(record, admit=not i % 2)

    @staticmethod
    def read(path: str):
        lines = JsonLines(path, kind="journal", schema=JOURNAL_SCHEMA)
        return ResultStore(os.path.dirname(path)).load_jobs(), lines.read()

    @staticmethod
    def rewrite(path: str) -> None:
        store = ResultStore(os.path.dirname(path))
        store.save_state(store.load_jobs()[0])


@pytest.fixture(scope="class")
def five_appends(request, tmp_path_factory):
    """The bytes of a file after each of six appends, and its reads."""
    subject = request.cls.subject
    path = str(tmp_path_factory.mktemp("lines") / subject.name)
    raws, reads = [b""], [subject.read(path)]
    for i in range(6):
        subject.write(path, i)
        with open(path, "rb") as fh:
            raws.append(fh.read())
        reads.append(subject.read(path))
    return raws, reads


class TestRunRecord:
    def test_round_trips_through_json(self):
        record = _record(
            label="S/B",
            outcome="partial-budget",
            verdict="converter",
            work={"a": 1, "b": 2.5},
            phases={"safety": {"pairs": 1}},
            wall_time_s=0.25,
            created_at=123.0,
            artifacts={"checkpoint": "run.ckpt"},
        )
        assert RunRecord.from_json_dict(record.to_json_dict()) == record

    def test_json_dict_is_json_serializable_and_sorted(self):
        doc = _record(work={"z": 1, "a": 2}).to_json_dict()
        json.dumps(doc)
        assert list(doc["work"]) == ["a", "z"]

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            _record(outcome="exploded")

    def test_rejects_unknown_fields(self):
        doc = _record().to_json_dict()
        doc["surprise"] = 1
        with pytest.raises(PersistError, match="unknown field"):
            RunRecord.from_json_dict(doc)

    def test_rejects_wrong_schema(self):
        doc = _record().to_json_dict()
        doc["schema"] = 99
        with pytest.raises(PersistError, match="schema"):
            RunRecord.from_json_dict(doc)

    def test_rejects_missing_required_field(self):
        doc = _record().to_json_dict()
        del doc["fingerprint"]
        with pytest.raises(PersistError, match="fingerprint"):
            RunRecord.from_json_dict(doc)


class TestFlattenWork:
    def test_nests_and_drops_nondeterministic(self):
        counters = {
            "safety": {
                "pairs_explored": 9,
                "exists": True,        # bool: dropped
                "elapsed_s": 1.23,     # wall time: dropped
            },
            "progress": {
                "rounds": [{"round": 0}, {"round": 1}],  # list -> count
                "states_removed": 0,
            },
            "emptied_by": None,        # None: dropped
            "label": "S/B",            # str: dropped
            "duration_ms": 5,          # wall time: dropped
            "gc.collections.gen0": 7,  # collector work: dropped
        }
        assert flatten_work(counters) == {
            "safety.pairs_explored": 9,
            "progress.rounds.count": 2,
            "progress.states_removed": 0,
        }


class TestLedger:
    def test_read_missing_file_is_empty(self, tmp_path):
        assert Ledger(str(tmp_path / "none.json")).read() == ()

    def test_append_assigns_sequential_ids(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        first = append_run(path, kind="solve", fingerprint="a" * 64)
        second = append_run(path, kind="solve", fingerprint="a" * 64)
        assert (first.run_id, second.run_id) == (1, 2)
        assert [r.run_id for r in Ledger(path).read()] == [1, 2]

    def test_append_stamps_created_at(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        record = append_run(path, kind="solve", fingerprint="a" * 64)
        assert record.created_at is not None

    def test_get_and_missing_run(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        append_run(path, kind="solve", fingerprint="a" * 64)
        assert Ledger(path).get(1).run_id == 1
        with pytest.raises(PersistError, match="no run 7"):
            Ledger(path).get(7)

    def test_runs_of_filters_fingerprint_and_kind(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        append_run(path, kind="solve", fingerprint="a" * 64)
        append_run(path, kind="analyze", fingerprint="a" * 64)
        append_run(path, kind="solve", fingerprint="b" * 64)
        ledger = Ledger(path)
        assert len(ledger.runs_of("a" * 64)) == 2
        assert len(ledger.runs_of("a" * 64, kind="solve")) == 1
        assert ledger.runs_of("c" * 64) == ()

    def test_gc_keeps_newest_per_group(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        for _ in range(5):
            append_run(path, kind="solve", fingerprint="a" * 64)
        append_run(path, kind="solve", fingerprint="b" * 64)
        removed = Ledger(path).gc(keep=2)
        assert removed == 3
        survivors = Ledger(path).read()
        assert [r.run_id for r in survivors] == [4, 5, 6]
        # ids are never reused after gc
        assert append_run(path, kind="solve", fingerprint="a" * 64).run_id == 7

    def test_gc_rejects_bad_keep(self, tmp_path):
        with pytest.raises(ValueError):
            Ledger(str(tmp_path / "ledger.json")).gc(keep=0)

    def test_file_is_json_lines_with_a_hash_per_record(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        first = append_run(path, kind="solve", fingerprint="a" * 64)
        append_run(path, kind="solve", fingerprint="b" * 64)
        header, line, _, end = Path(path).read_bytes().split(b"\n")
        assert json.loads(header) == {"kind": "ledger", "schema": 2}
        assert end == b""
        doc = json.loads(line)
        assert doc["record"] == first.to_json_dict()
        canonical = json.dumps(
            doc["record"], sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        assert doc["sha256"] == hashlib.sha256(canonical).hexdigest()

    def test_corrupt_inner_record_is_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        for i in range(3):
            append_run(path, kind="solve", fingerprint="a" * 64,
                       work={"pairs": i})
        raw = Path(path).read_bytes()
        flipped = raw.replace(b'"pairs": 1', b'"pairs": 7', 1)
        assert flipped != raw
        Path(path).write_bytes(flipped)
        with obs.use_collector() as collector:
            assert [r.run_id for r in Ledger(path).read()] == [1, 3]
        assert collector.snapshot().counters["ledger.corrupt_skipped"] == 1
        assert append_run(path, kind="solve", fingerprint="a" * 64).run_id == 4

    def test_rejects_non_ledger_envelope(self, tmp_path):
        from repro.persist.store import write_envelope

        path = str(tmp_path / "other.json")
        write_envelope(path, {"kind": "something-else"}, kind="document")
        with pytest.raises(PersistError, match="not a ledger"):
            Ledger(path).read()

    def test_render_history_list(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        assert render_history_list(Ledger(path).read()) == "(ledger is empty)"
        append_run(
            path, kind="solve", fingerprint="a" * 64,
            label="S/B", verdict="converter",
        )
        text = render_history_list(Ledger(path).read())
        assert "run" in text and "solve" in text and "S/B" in text
        assert ("a" * 12) in text and ("a" * 64) not in text


class TestCrashSafety:
    """A crash mid-append must never lose previously recorded runs."""

    subject = LedgerFile

    def _seed(self, tmp_path, n=3):
        path = str(tmp_path / self.subject.name)
        for i in range(n):
            self.subject.write(path, i)
        return path

    def test_crash_at_replace_keeps_old_ledger(self, tmp_path, monkeypatch):
        # appends rename nothing; the ledger's gc and the journal's
        # compaction rewrite the file through the one rename left
        path = self._seed(tmp_path)
        before = Path(path).read_bytes()
        read = self.subject.read(path)
        real_replace = os.replace

        def exploding_replace(src, dst):
            if dst == path:
                raise OSError("simulated crash at rename")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(PersistError):
            self.subject.rewrite(path)
        monkeypatch.undo()
        assert Path(path).read_bytes() == before
        assert self.subject.read(path) == read
        stray = [n for n in os.listdir(tmp_path) if ".tmp" in n]
        assert stray == []

    def test_crash_during_write_leaves_no_torn_ledger(self, tmp_path, monkeypatch):
        path = self._seed(tmp_path)
        before = Path(path).read_bytes()
        calls = {"n": 0}

        def exploding_fsync(fd):
            calls["n"] += 1
            raise OSError("simulated crash before durability")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(PersistError):
            self.subject.write(path, 3)
        monkeypatch.undo()
        # transient OSErrors are retried before the append gives up
        assert calls["n"] == DEFAULT_STORE_RETRY.max_attempts
        assert Path(path).read_bytes() == before
        # the failed attempt left no stray tmp files behind
        stray = [n for n in os.listdir(tmp_path) if ".tmp" in n]
        assert stray == []

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ledger_cut_at_any_byte_reads_its_complete_lines(
        self, five_appends, data
    ):
        self._cut_at_any_byte(five_appends, data)

    def _cut_at_any_byte(self, five_appends, data):
        raws, reads = five_appends
        raw = raws[5]
        ends = [i for i, byte in enumerate(raw) if byte == ord("\n")]
        cut = data.draw(
            st.integers(0, len(raw))
            | st.sampled_from([i + d for i in ends for d in (0, 1)])
        )
        # the header is the first complete line
        whole = max(raw[:cut].count(b"\n") - 1, 0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, self.subject.name)
            with open(path, "wb") as fh:
                fh.write(raw[:cut])
            assert self.subject.read(path) == reads[whole]
            # the next append cuts the torn line off and lands whole
            self.subject.write(path, whole)
            assert self.subject.read(path) == reads[whole + 1]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_store_write_chaos_over_appends(self, tmp_path, seed):
        path = str(tmp_path / "chaos" / self.subject.name)
        clean = str(tmp_path / "clean" / self.subject.name)
        for p in (path, clean):
            os.makedirs(os.path.dirname(p))
        acknowledged = []
        failed = 0
        plan = ChaosPlan(seed=seed, p_write_enospc=0.3, p_write_partial=0.3)
        with use_chaos(plan):
            for i in range(24):
                try:
                    self.subject.write(path, i)
                except PersistError:
                    failed += 1
                else:
                    acknowledged.append(i)
        assert acknowledged and failed
        # every append that returned reads back exactly once, and
        # nothing else does: the file reads as one written without faults
        for i in acknowledged:
            self.subject.write(clean, i)
        assert self.subject.read(path) == self.subject.read(clean)


class TestJournalCrashSafety(TestCrashSafety):
    """The same crash-safety tests over the server's job journal."""

    subject = JournalFile

    # Hypothesis keys its example database by the test function, and
    # refuses one function run from two classes: so this one is its own
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ledger_cut_at_any_byte_reads_its_complete_lines(
        self, five_appends, data
    ):
        self._cut_at_any_byte(five_appends, data)


class TestRefusedFiles:
    """A file that does not start with its header is never touched."""

    @pytest.mark.parametrize("subject", [LedgerFile, JournalFile])
    def test_schema1_ledger_is_refused_on_read_and_append(
        self, tmp_path, subject
    ):
        path = str(tmp_path / subject.name)
        write_legacy_ledger(path, legacy_records())
        before = Path(path).read_bytes()
        with pytest.raises(PersistError, match="does not start with"):
            subject.read(path)
        with pytest.raises(PersistError, match="does not start with"):
            subject.write(path, 0)
        assert Path(path).read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == sorted(
            {subject.name, *(["results", "checkpoints"]
                             if subject is JournalFile else [])}
        )


class TestDiffRecords:
    def test_detects_injected_regression(self):
        base = _record(work={"safety.pairs_explored": 100, "states": 40})
        new = _record(work={"safety.pairs_explored": 150, "states": 40})
        diff = diff_records(base, new)
        assert diff.regressed
        assert diff.regressions == (("safety.pairs_explored", 100, 150),)
        assert "REGRESSED" in diff.render_text()

    def test_no_regression_when_equal_or_improved(self):
        base = _record(work={"pairs": 100})
        for value in (100, 80):
            diff = diff_records(base, _record(work={"pairs": value}))
            assert not diff.regressed
            assert "no work regression" in diff.render_text()

    def test_threshold_grants_headroom(self):
        base = _record(work={"pairs": 100})
        new = _record(work={"pairs": 104})
        assert not diff_records(base, new, threshold=0.05).regressed
        assert diff_records(base, new, threshold=0.03).regressed

    def test_zero_baseline_regresses_on_any_increase(self):
        diff = diff_records(
            _record(work={"pairs": 0}),
            _record(work={"pairs": 1}),
            threshold=10.0,
        )
        assert diff.regressed

    def test_one_sided_counters_never_regress(self):
        diff = diff_records(
            _record(work={"old": 5}), _record(work={"new": 9})
        )
        assert not diff.regressed
        assert {name for name, *_ in diff.rows} == {"old", "new"}

    def test_mismatched_fingerprints_rejected(self):
        with pytest.raises(PersistError, match="different"):
            diff_records(_record("a" * 64), _record("b" * 64))

    def test_mismatched_kinds_rejected(self):
        with pytest.raises(PersistError, match="kinds"):
            diff_records(_record(kind="solve"), _record(kind="analyze"))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            diff_records(_record(), _record(), threshold=-1.0)

    def test_json_dict_shape(self):
        diff = diff_records(
            _record(work={"pairs": 1}), _record(work={"pairs": 2})
        )
        doc = diff.to_json_dict()
        json.dumps(doc)
        assert doc["regressed"] is True
        assert doc["counters"][0]["name"] == "pairs"
