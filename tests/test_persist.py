"""Tests for :mod:`repro.persist`: durable snapshots and exact resume.

The contract under test:

* snapshot files are atomic and integrity-checked — a truncated or
  bit-flipped write is *detected* (sha256 mismatch) and the loader falls
  back to the rotated previous-good snapshot;
* checkpoints round-trip exactly through JSON, and unknown future schema
  fields are rejected with a clear :class:`~repro.errors.PersistError`;
* a solve interrupted at a deterministic charge boundary and resumed from
  its checkpoint produces results **identical** to the uninterrupted run,
  on the compiled-kernel and reference paths alike (and across them);
* a checkpoint taken for a different problem is rejected by lint rule
  ``QUOT104`` before any state is replayed.
"""

import json
import signal

import pytest

from repro import obs
from repro.errors import (
    BudgetExceeded,
    InterruptRequested,
    LintError,
    PersistError,
)
from repro.obs import MetricsCollector
from repro.persist import (
    Checkpoint,
    InterruptController,
    anytime_summary,
    load_checkpoint,
    problem_fingerprint,
    render_anytime_text,
    save_checkpoint,
    spec_fingerprint,
)
from repro.persist.interrupt import DEADLINE_CHECK_INTERVAL
from repro.persist.store import PREV_SUFFIX
from repro.quotient import Budget, solve_quotient
from repro.spec import use_kernel
from repro.spec.random_specs import random_quotient_instance


def make_ckpt(n=0):
    return Checkpoint(
        kind="quotient",
        fingerprint=format(n, "064d"),
        phase="safety",
        payload={"n": n},
    )


@pytest.fixture(scope="module")
def instance():
    # seed 1 gives a converter and a run long enough (~40 charges) to
    # interrupt in either phase
    service, component, internal, _ = random_quotient_instance(seed=1)
    return service, component, internal


def _solve(instance, **kwargs):
    service, component, internal = instance
    return solve_quotient(service, component, int_events=internal, **kwargs)


def _key(result):
    """Everything a resumed run must reproduce byte-for-byte."""
    return (
        result.exists,
        result.converter,
        result.f,
        result.c0,
        result.c0_f,
        result.safety.spec,
        result.safety.f,
        result.safety.explored,
        result.safety.rejected,
        None if result.progress is None else result.progress.rounds,
        None
        if result.verification is None
        else result.verification.holds,
    )


def _total_charges(instance):
    probe = InterruptController()
    _solve(instance, interrupt=probe)
    return probe.charges


# ----------------------------------------------------------------------
# store: atomic writes, integrity checks, fallback
# ----------------------------------------------------------------------
class TestStore:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        ckpt = make_ckpt(7)
        assert save_checkpoint(path, ckpt) == path
        assert load_checkpoint(path) == ckpt

    def test_rotation_keeps_previous_good_snapshot(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, make_ckpt(1))
        save_checkpoint(path, make_ckpt(2))
        assert load_checkpoint(path) == make_ckpt(2)
        assert load_checkpoint(path + PREV_SUFFIX) == make_ckpt(1)

    def test_no_stray_tmp_files(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, make_ckpt(1))
        save_checkpoint(path, make_ckpt(2))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["run.ckpt", "run.ckpt.prev"]

    def test_truncated_file_falls_back(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, make_ckpt(1))
        save_checkpoint(path, make_ckpt(2))
        text = (tmp_path / "run.ckpt").read_text()
        (tmp_path / "run.ckpt").write_text(text[: len(text) // 2])
        with obs.use_collector(MetricsCollector()) as collector:
            assert load_checkpoint(path) == make_ckpt(1)
        counters = collector.snapshot().counters
        assert counters["persist.fallbacks"] == 1

    def test_bit_flip_detected_and_recovered(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, make_ckpt(1))
        save_checkpoint(path, make_ckpt(2))
        raw = (tmp_path / "run.ckpt").read_bytes()
        # flip one bit inside the payload region, keeping the JSON valid
        flipped = raw.replace(b'"n": 2', b'"n": 3', 1)
        assert flipped != raw
        (tmp_path / "run.ckpt").write_bytes(flipped)
        with pytest.raises(PersistError, match="bit-flipped"):
            load_checkpoint(path, fallback=False)
        assert load_checkpoint(path) == make_ckpt(1)

    def test_both_snapshots_bad_is_a_combined_error(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, make_ckpt(1))
        save_checkpoint(path, make_ckpt(2))
        (tmp_path / "run.ckpt").write_text("not json")
        (tmp_path / "run.ckpt.prev").write_text("{}")
        with pytest.raises(PersistError, match="both snapshots are unusable"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistError, match="no checkpoint at"):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_unknown_envelope_field_rejected(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, make_ckpt(1))
        doc = json.loads((tmp_path / "run.ckpt").read_text())
        doc["surprise"] = True
        (tmp_path / "run.ckpt").write_text(json.dumps(doc))
        with pytest.raises(PersistError, match="unknown envelope field"):
            load_checkpoint(path, fallback=False)


# ----------------------------------------------------------------------
# checkpoint bodies: JSON round-trips and strict decoding
# ----------------------------------------------------------------------
class TestCheckpointCodec:
    def test_budget_round_trips_through_json(self):
        budget = Budget(max_pairs=5, max_states=9, wall_time_s=1.5)
        doc = budget.to_json_dict()
        assert json.loads(json.dumps(doc)) == doc

    def test_checkpoint_round_trips_through_json(self):
        ckpt = make_ckpt(42)
        doc = ckpt.to_json_dict()
        restored = Checkpoint.from_json_dict(json.loads(json.dumps(doc)))
        assert restored == ckpt
        assert restored.to_json_dict() == doc

    def test_unknown_future_field_rejected(self):
        doc = make_ckpt().to_json_dict()
        doc["quantum_state"] = [1, 2, 3]
        with pytest.raises(PersistError, match="unknown field.*quantum_state"):
            Checkpoint.from_json_dict(doc)

    def test_unsupported_schema_rejected(self):
        doc = make_ckpt().to_json_dict()
        doc["schema"] = 999
        with pytest.raises(PersistError, match="unsupported checkpoint schema"):
            Checkpoint.from_json_dict(doc)

    def test_unknown_kind_rejected(self):
        doc = make_ckpt().to_json_dict()
        doc["kind"] = "espresso"
        with pytest.raises(PersistError, match="unknown checkpoint kind"):
            Checkpoint.from_json_dict(doc)

    def test_missing_field_rejected(self):
        doc = make_ckpt().to_json_dict()
        del doc["fingerprint"]
        with pytest.raises(PersistError, match="missing field"):
            Checkpoint.from_json_dict(doc)

    def test_fingerprint_ignores_names_but_not_structure(self, instance):
        service, component, internal = instance
        renamed = service.renamed("other-name")
        assert spec_fingerprint(service) == spec_fingerprint(renamed)
        assert spec_fingerprint(service) != spec_fingerprint(component)


# ----------------------------------------------------------------------
# the interrupt controller
# ----------------------------------------------------------------------
class TestInterruptController:
    def test_validation(self):
        with pytest.raises(ValueError):
            InterruptController(deadline_s=0)
        with pytest.raises(ValueError):
            InterruptController(at_charge=0)

    def test_at_charge_fires_exactly(self):
        ctrl = InterruptController(at_charge=3)
        assert ctrl.tick() is None
        assert ctrl.tick() is None
        assert ctrl.tick() == "test interrupt at charge 3"
        assert ctrl.charges == 3

    def test_request_fires_at_next_tick(self):
        ctrl = InterruptController()
        assert ctrl.tick() is None
        ctrl.request("operator said stop")
        assert ctrl.requested
        assert ctrl.tick() == "operator said stop"

    def test_parent_request_fires_at_next_tick(self):
        parent = InterruptController()
        ctrl = InterruptController(parent=parent)
        assert ctrl.tick() is None
        parent.request("server drain")
        assert ctrl.tick() == "server drain"
        assert ctrl.tick() == "server drain"

    def test_deadline_with_fake_clock(self):
        now = [10.0]
        ctrl = InterruptController(deadline_s=5.0, clock=lambda: now[0])
        assert ctrl.tick() is None  # first tick reads the clock: 0.0s
        now[0] = 20.0
        reasons = [ctrl.tick() for _ in range(DEADLINE_CHECK_INTERVAL)]
        assert reasons[-1] == "deadline of 5.0s exceeded"
        assert all(r is None for r in reasons[:-1])

    def test_sigint_is_cooperative(self):
        ctrl = InterruptController()
        with ctrl.install_sigint():
            signal.raise_signal(signal.SIGINT)  # no KeyboardInterrupt
            assert ctrl.requested
            assert ctrl.tick() == "SIGINT received"
        # handler restored: outside the context Ctrl-C is hard again
        with pytest.raises(KeyboardInterrupt):
            signal.raise_signal(signal.SIGINT)

    def test_second_sigint_falls_through(self):
        ctrl = InterruptController()
        with ctrl.install_sigint():
            signal.raise_signal(signal.SIGINT)
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)

    def test_sigterm_is_cooperative(self):
        """install_signals treats a polite SIGTERM like Ctrl-C: stop at
        the next charge boundary, not summary death."""
        ctrl = InterruptController()
        previous = signal.getsignal(signal.SIGTERM)
        with ctrl.install_signals():
            signal.raise_signal(signal.SIGTERM)  # process survives
            assert ctrl.requested
            assert ctrl.tick() == "SIGTERM received"
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_sigterm_in_subprocess_checkpoints_cooperatively(self, tmp_path):
        """End to end in a real child process: SIGTERM mid-run leaves a
        cooperative stop (exit 0 with the reason), not a 143 corpse."""
        import os
        import subprocess
        import sys

        code = (
            "import sys, time\n"
            "from repro.persist import InterruptController\n"
            "ctrl = InterruptController()\n"
            "with ctrl.install_signals():\n"
            "    print('ready', flush=True)\n"
            "    for _ in range(3000):\n"
            "        reason = ctrl.tick()\n"
            "        if reason is not None:\n"
            "            print('stopped: ' + reason, flush=True)\n"
            "            sys.exit(0)\n"
            "        time.sleep(0.01)\n"
            "sys.exit(1)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            assert proc.stdout is not None
            assert proc.stdout.readline().strip() == "ready"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out
        assert "stopped: SIGTERM received" in out


# ----------------------------------------------------------------------
# interrupt → checkpoint → resume: exactness
# ----------------------------------------------------------------------
class TestExactResume:
    def _interrupted_checkpoint(self, instance, at_charge):
        with pytest.raises(InterruptRequested) as exc:
            _solve(instance, interrupt=InterruptController(at_charge=at_charge))
        ckpt = exc.value.checkpoint
        assert ckpt is not None and ckpt.kind == "quotient"
        # survive a trip through the store's JSON serialization
        return Checkpoint.from_json_dict(
            json.loads(json.dumps(ckpt.to_json_dict()))
        )

    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "ref"])
    def test_resume_is_identical_early_and_late(self, instance, kernel):
        with use_kernel(kernel):
            baseline = _key(_solve(instance))
            total = _total_charges(instance)
            for at_charge in {2, total // 2, total - 1}:
                ckpt = self._interrupted_checkpoint(instance, at_charge)
                resumed = _solve(instance, resume_from=ckpt)
                assert _key(resumed) == baseline, f"at_charge={at_charge}"

    def test_resume_crosses_kernel_paths(self, instance):
        with use_kernel(True):
            baseline = _key(_solve(instance))
            total = _total_charges(instance)
            ckpt = self._interrupted_checkpoint(instance, total // 2)
        with use_kernel(False):
            assert _key(_solve(instance, resume_from=ckpt)) == baseline
            ckpt2 = self._interrupted_checkpoint(instance, total // 3)
        with use_kernel(True):
            assert _key(_solve(instance, resume_from=ckpt2)) == baseline

    def test_budget_trip_carries_resumable_checkpoint(self, instance):
        baseline = _key(_solve(instance))
        with pytest.raises(BudgetExceeded) as exc:
            _solve(instance, budget=Budget(max_pairs=4))
        ckpt = exc.value.checkpoint
        assert ckpt is not None and ckpt.phase == "safety"
        # budgets are per-run: the resumed run gets fresh meters
        resumed = _solve(instance, resume_from=ckpt, budget=Budget(max_pairs=10**6))
        assert _key(resumed) == baseline

    def test_stale_checkpoint_rejected(self, instance):
        total = _total_charges(instance)
        ckpt = self._interrupted_checkpoint(instance, total // 2)
        other_service, other_component, other_internal, _ = (
            random_quotient_instance(seed=18)
        )
        with pytest.raises(LintError, match="QUOT104"):
            solve_quotient(
                other_service,
                other_component,
                int_events=other_internal,
                resume_from=ckpt,
            )

    def test_checkpoint_fingerprint_matches_problem(self, instance):
        total = _total_charges(instance)
        ckpt = self._interrupted_checkpoint(instance, total // 2)
        result = _solve(instance)
        assert ckpt.fingerprint == problem_fingerprint(result.problem)


# ----------------------------------------------------------------------
# anytime output
# ----------------------------------------------------------------------
class TestAnytime:
    def test_summary_is_partial_and_json_safe(self, instance):
        with pytest.raises(InterruptRequested) as exc:
            _solve(instance, interrupt=InterruptController(at_charge=2))
        summary = anytime_summary(exc.value.checkpoint)
        assert summary["guarantees"] == "partial"
        assert summary["kind"] == "quotient"
        assert summary["safety"]["pairs_explored"] >= 1
        assert json.loads(json.dumps(summary)) == summary
        text = render_anytime_text(summary)
        assert text.startswith("guarantees: partial")
        assert "safety so far" in text

    def test_interrupted_error_is_structured(self, instance):
        with pytest.raises(InterruptRequested) as exc:
            _solve(instance, interrupt=InterruptController(at_charge=2))
        doc = exc.value.to_json_dict()
        assert doc["error"] == "interrupted"
        assert doc["phase"] == "safety"
        assert json.loads(json.dumps(doc)) == doc


# ----------------------------------------------------------------------
# Store.gc: pruning the write protocol's crash debris
# ----------------------------------------------------------------------
class TestStoreGC:
    def _store(self, tmp_path):
        from repro.persist import Store

        store = Store(str(tmp_path))
        store.write("a.json", {"n": 1})
        store.write("a.json", {"n": 2})       # rotates a healthy .prev
        store.write("sub/b.json", {"n": 3})   # nested: gc walks the tree
        return store

    def test_gc_on_a_healthy_tree_touches_nothing(self, tmp_path):
        store = self._store(tmp_path)
        stats = store.gc()
        assert stats == {
            "scanned": 2, "tmp_removed": 0, "healed": 0,
            "corrupt_removed": 0, "prev_removed": 0,
        }
        assert store.read("a.json") == {"n": 2}
        assert store.read("a.json" + PREV_SUFFIX) == {"n": 1}
        assert store.read("sub/b.json") == {"n": 3}

    def test_gc_removes_orphaned_tmp_files(self, tmp_path):
        store = self._store(tmp_path)
        (tmp_path / "a.json.k3j2.tmp").write_text("half-writ")
        (tmp_path / "sub" / "b.json.x9.tmp").write_text("")
        stats = store.gc()
        assert stats["tmp_removed"] == 2
        assert not list(tmp_path.rglob("*.tmp"))
        assert store.read("a.json") == {"n": 2}

    def test_gc_heals_torn_primary_from_prev(self, tmp_path):
        """The regression the write protocol makes possible: a crash (or
        injected partial write) after the .prev rotation leaves a torn
        primary shadowing a healthy fallback.  gc must promote the
        fallback, not delete the pair."""
        store = self._store(tmp_path)
        text = (tmp_path / "a.json").read_text()
        (tmp_path / "a.json").write_text(text[: len(text) // 3])
        stats = store.gc()
        assert stats["healed"] == 1
        assert stats["corrupt_removed"] == 0
        assert store.read("a.json") == {"n": 1}  # the previous good body
        assert not (tmp_path / ("a.json" + PREV_SUFFIX)).exists()

    def test_gc_removes_corrupt_primary_without_fallback(self, tmp_path):
        store = self._store(tmp_path)
        (tmp_path / "sub" / "b.json").write_text("{ not json")
        stats = store.gc()
        assert stats["corrupt_removed"] == 1
        assert not store.exists("sub/b.json")
        assert store.read("a.json") == {"n": 2}  # the healthy neighbour

    def test_gc_removes_corrupt_prev_beside_healthy_primary(self, tmp_path):
        store = self._store(tmp_path)
        (tmp_path / ("a.json" + PREV_SUFFIX)).write_text("torn too")
        stats = store.gc()
        assert stats["prev_removed"] == 1
        assert store.read("a.json") == {"n": 2}

    def test_gc_promotes_orphaned_prev(self, tmp_path):
        """A crash between the two renames leaves only the .prev — the
        previous good snapshot — which gc promotes back to primary."""
        store = self._store(tmp_path)
        (tmp_path / "a.json").unlink()
        stats = store.gc()
        assert stats["healed"] == 1
        assert store.read("a.json") == {"n": 1}

    def test_gc_counts_its_work_into_obs(self, tmp_path):
        store = self._store(tmp_path)
        (tmp_path / "a.json.zz.tmp").write_text("")
        text = (tmp_path / "a.json").read_text()
        (tmp_path / "a.json").write_text(text[:20])
        with obs.use_collector(MetricsCollector()) as collector:
            store.gc()
        counters = collector.snapshot().counters
        assert counters["persist.gc.runs"] == 1
        assert counters["persist.gc.scanned"] == 2
        assert counters["persist.gc.tmp_removed"] == 1
        assert counters["persist.gc.healed"] == 1
        assert "persist.gc.corrupt_removed" not in counters  # zero: uncounted
