"""Differential acceptance tests for the derivation server.

The serving contract: no matter *how* a job executed — fresh, retried
after a transient fault, resumed from a checkpoint, replayed from a
cache hit, or re-run after the server was killed — its result body is
byte-identical to a direct :func:`~repro.quotient.solve_quotient` call
on the same inputs.  These tests sweep that claim over dozens of random
instances under several distinct ``REPRO_CHAOS`` schedules, and pin the
overload/crash story end to end (bounded queue, deterministic
backpressure, SIGTERM mid-load, SIGKILL mid-job, restart-and-resume: an
accepted job is never lost).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.chaos import ChaosPlan, use_chaos
from repro.errors import ServeError
from repro.io.json_codec import spec_to_dict
from repro.obs.core import ThreadSafeCollector
from repro.obs.ledger import Ledger
from repro.quotient.solve import solve_quotient
from repro.serve import (
    DerivationServer,
    JobRequest,
    ResultStore,
    ServeClient,
    WorkerSupervisor,
)
from repro.spec import random_quotient_instance

from .test_compiled_kernel import _relay

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def solve_doc(seed: int, **extra) -> dict:
    service, component, internal, _ = random_quotient_instance(seed=seed)
    doc = {
        "kind": "solve",
        "payload": {
            "service": spec_to_dict(service),
            "component": spec_to_dict(component),
            "int_events": sorted(internal),
        },
    }
    doc.update(extra)
    return doc


@functools.lru_cache(maxsize=None)
def canonical(seed: int) -> str:
    """The canonical JSON body of a direct, unserved solve."""
    service, component, internal, _ = random_quotient_instance(seed=seed)
    result = solve_quotient(service, component, int_events=internal)
    body = result.to_json_dict()
    body.pop("stats", None)
    return json.dumps(body, sort_keys=True)


def journal_states(root: str) -> dict[str, dict]:
    """Every job's record, by id, as a replay of the journal rebuilds it."""
    records, _ = ResultStore(root).load_jobs()
    return {record["job_id"]: record for record in records}


def served(outcome) -> str:
    assert outcome.state == "done", outcome.error
    return json.dumps(outcome.body, sort_keys=True)


#: Distinct fault schedules the byte-identity sweep runs under: one
#: attacks the serve execution path, one the persistence layer
#: underneath it, and one both at once.
SCHEDULES = {
    "raises": ChaosPlan(seed=303, p_raise=0.7, sites=("serve.job",)),
    "mixed": ChaosPlan(
        seed=404, p_raise=0.3, p_write_partial=0.3,
        sites=("serve.job", "store.write"),
    ),
    "torn-store": ChaosPlan(
        seed=505, p_write_partial=0.3, sites=("store.write",)
    ),
}

#: Instance seeds each schedule sweeps (3 schedules x 13 = 39 problems).
SWEEP_SEEDS = tuple(range(60, 73))


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_served_solves_are_byte_identical_under_chaos(name, tmp_path):
    plan = SCHEDULES[name]
    collector = ThreadSafeCollector()
    supervisor = WorkerSupervisor(sleep=lambda s: None)
    with obs.use_collector(collector), use_chaos(plan):
        for seed in SWEEP_SEEDS:
            store = ResultStore(str(tmp_path / name / str(seed)))
            request = JobRequest.from_json_dict(solve_doc(seed))
            outcome = supervisor.run_job(request, store)
            assert served(outcome) == canonical(seed), (
                f"schedule {name}, instance seed {seed}: served body "
                f"diverged from the direct solve"
            )
            # the torn-store schedule attacks the cache layer instead:
            # a torn result write must read back as a miss (recompute
            # and rewrite), never as a wrong answer
            fingerprint = request.fingerprint()

            def cache_roundtrip():
                store.put_result(
                    fingerprint, kind="solve", label="",
                    spec_fingerprints=[], body=outcome.body,
                    verdict=outcome.verdict,
                )
                return store.get_result(fingerprint)

            cached = cache_roundtrip()
            rewrites = 0
            while cached is None:
                rewrites += 1
                assert rewrites <= 10, "cache never became readable"
                cached = cache_roundtrip()
            assert (json.dumps(cached["result"], sort_keys=True)
                    == canonical(seed))
    # non-vacuity: the schedule actually injected faults ...
    injected = {
        k: v for k, v in collector.counters.items()
        if k.startswith("chaos.injected.")
    }
    assert sum(injected.values()) > 0, f"schedule {name} injected nothing"
    # ... at every site it names ...
    for site in plan.sites:
        assert any(k.startswith(f"chaos.injected.{site}") for k in injected)
    # ... and the recovery machinery it targets actually engaged
    if name in ("raises", "mixed"):
        assert collector.counters["retry.recoveries"] > 0
    assert collector.counters["serve.jobs.completed"] == len(SWEEP_SEEDS)


def test_cache_hit_and_joined_submissions_are_byte_identical(tmp_path):
    server = DerivationServer(str(tmp_path / "store"), capacity=8)
    for seed in SWEEP_SEEDS[:6]:
        doc = solve_doc(seed)
        status, first = server._submit(doc)
        assert status == 202
        # a twin submitted while the first is in flight joins it
        status, twin = server._submit(doc)
        assert status == 202 and twin["joined"]
        assert twin["job"]["job_id"] == first["job"]["job_id"]
        server._run_one(first["job"]["job_id"])
        server._finalize(first["job"]["job_id"])
        # a resubmission after completion is a cache hit, byte-identical
        status, hit = server._submit(doc)
        assert status == 200 and hit["job"]["cache"] == "hit"
        assert json.dumps(hit["result"], sort_keys=True) == canonical(seed)


def test_resume_checkpoint_crosses_server_lives(tmp_path):
    """A drain-interrupted job finishes byte-identically after restart."""
    from repro.persist import InterruptController
    from repro.serve.workers import DRAIN_REASON

    store = ResultStore(str(tmp_path))
    request = JobRequest.from_json_dict(solve_doc(seed=73))
    drain = InterruptController()
    drain.request(DRAIN_REASON)
    first_life = WorkerSupervisor(sleep=lambda s: None)
    parked = first_life.run_job(request, store, drain=drain)
    assert parked.state == "interrupted" and parked.checkpointed
    # "restart": a brand-new supervisor over the same durable store
    second_life = WorkerSupervisor(sleep=lambda s: None)
    outcome = second_life.run_job(request, store)
    assert outcome.resumed
    assert served(outcome) == canonical(73)


class TestOverload:
    """Bounded admission under load: deterministic, lossless."""

    def test_backpressure_is_deterministic(self, tmp_path):
        server = DerivationServer(str(tmp_path / "store"), capacity=3)
        accepted = [
            server._submit(solve_doc(seed))[1]["job"]["job_id"]
            for seed in (80, 81, 82)
        ]
        # queue full, equal priority: deterministic 429 + retry hint
        for attempt in range(2):
            with pytest.raises(ServeError) as info:
                server._submit(solve_doc(seed=83 + attempt))
            assert info.value.status == 429
        assert server.queue.retry_after() == pytest.approx(0.05 * 4)
        # a higher-priority submission sheds the youngest lowest instead
        status, vip = server._submit(solve_doc(seed=85, priority=9))
        assert status == 202
        shed = server._records[accepted[-1]]
        assert shed["state"] == "shed" and "resubmit" in shed["error"]
        # every accepted job is accounted for: still queued, or shed
        # with a structured, persisted answer — nothing vanished
        records = journal_states(server.store.root)
        states = {
            job_id: records[job_id]["state"]
            for job_id in accepted + [vip["job"]["job_id"]]
        }
        assert sorted(states.values()) == ["queued", "queued", "queued",
                                           "shed"]

    def test_lossless_under_http_load(self, tmp_path):
        """Real async load past capacity, end to end.

        Every submission gets a structured answer — 202 accepted or 429
        with a retry hint — and every *accepted* job completes with a
        body byte-identical to the direct solve.  (How many 429s occur
        depends on worker timing; the deterministic count is pinned by
        ``test_backpressure_is_deterministic`` above.)
        """
        server = DerivationServer(
            str(tmp_path / "store"), capacity=2, workers=1
        )
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(
                server.run(ready=lambda s: ready.set())
            ),
            daemon=True,
        )
        thread.start()
        assert ready.wait(10)
        client = ServeClient("127.0.0.1", server.port)
        try:
            accepted = {}
            for seed in range(86, 94):
                status, doc = client.submit(solve_doc(seed))
                assert status in (202, 429)
                if status == 429:
                    assert doc["retry_after_s"] > 0
                else:
                    accepted[seed] = doc["job"]["job_id"]
            assert accepted, "nothing was admitted"
            for seed, job_id in accepted.items():
                final = client.wait(job_id, timeout_s=120)
                assert final["job"]["state"] == "done", final["job"]
                assert (json.dumps(final["result"], sort_keys=True)
                        == canonical(seed))
        finally:
            try:
                client.shutdown()
            except (ServeError, OSError):
                pass
            thread.join(30)


def _serve_process(store_root: str) -> subprocess.Popen:
    """A real ``repro serve`` process with one worker, on a free port."""
    env = {**os.environ, "PYTHONPATH": "src"}
    env.pop("REPRO_CHAOS", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--store", store_root,
         "--port", "0", "--capacity", "16", "--workers", "1"],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )


@contextlib.contextmanager
def _second_life(store_root: str):
    """An in-process server over a store a killed server left behind."""
    server = DerivationServer(store_root, capacity=16, workers=2)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.run(ready=lambda s: ready.set())),
        daemon=True,
    )
    thread.start()
    assert ready.wait(10)
    client = ServeClient("127.0.0.1", server.port)
    try:
        yield server, client
    finally:
        try:
            client.shutdown()
        except (ServeError, OSError):
            pass
        thread.join(30)
    assert not thread.is_alive()


def _assert_served_in_ledger(store: ResultStore, job_ids) -> None:
    served_fingerprints = {
        r.fingerprint for r in Ledger(store.ledger_path).read()
        if r.kind == "served"
    }
    records = journal_states(store.root)
    for job_id in job_ids:
        assert records[job_id]["fingerprint"] in served_fingerprints


def test_sigterm_under_load_then_restart_resumes_all(tmp_path):
    """Kill a loaded server with SIGTERM; a restart finishes every job.

    The acceptance scenario end to end: a real ``repro serve`` process,
    real signal delivery, more submissions than workers, then a second
    server life over the same durable store.  Every accepted job must
    reach ``done`` with a body byte-identical to the direct solve.
    """
    store_root = str(tmp_path / "store")
    proc = _serve_process(store_root)
    try:
        serving = json.loads(proc.stdout.readline())
        client = ServeClient("127.0.0.1", serving["serving"]["port"])
        seeds = (91, 92, 93, 94, 95, 96, 97)
        job_ids = {}
        for seed in seeds:
            status, doc = client.submit(solve_doc(seed))
            assert status == 202
            job_ids[seed] = doc["job"]["job_id"]
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert json.loads(stdout.splitlines()[-1]) == {"drained": True}
    # the drained store accounts for every accepted job: done already,
    # or parked in a recoverable state — none lost
    store = ResultStore(store_root)
    records = journal_states(store_root)
    first_life = {
        seed: records[job_id]["state"] for seed, job_id in job_ids.items()
    }
    assert set(first_life.values()) <= {
        "done", "queued", "running", "interrupted"
    }
    unfinished = [s for s in first_life.values() if s != "done"]
    assert unfinished, "SIGTERM landed after all jobs finished; no drain " \
        "was exercised — raise the load"
    # the drain flushed ledger records for whatever did complete
    with _second_life(store_root) as (server, client):
        assert server.collector is not None
        for seed, job_id in job_ids.items():
            final = client.wait(job_id, timeout_s=120)
            assert final["job"]["state"] == "done", final["job"]
            assert (json.dumps(final["result"], sort_keys=True)
                    == canonical(seed))
        recovered = server.collector.snapshot().counters[
            "serve.jobs.recovered"
        ]
        assert recovered == len(unfinished)
        # interrupted jobs resumed from their checkpoints
        interrupted = [
            seed for seed, state in first_life.items()
            if state in ("running", "interrupted")
        ]
        for seed in interrupted:
            record = client.job(job_ids[seed])["job"]
            if first_life[seed] == "interrupted":
                assert record["resumed"]
    # the ledger saw every completed job across both lives
    _assert_served_in_ledger(store, job_ids.values())


def _relay_job(k: int) -> tuple[dict, str]:
    """The SEC7 relay as a job document, and its batch-solve body."""
    service, component = _relay(k)
    relay_doc = {
        "kind": "solve",
        "payload": {"service": spec_to_dict(service),
                    "component": spec_to_dict(component)},
    }
    relay_body = solve_quotient(service, component).to_json_dict()
    relay_body.pop("stats", None)
    return relay_doc, json.dumps(relay_body, sort_keys=True)


def _wait_solving(client: ServeClient) -> None:
    """Return once the server's one running job has started solving.

    The safety phase compiles its problem (``kernel.problem_cache_misses``)
    inside the job's supervised run.  By then the job's ``running`` line
    is in the journal and its own interrupt controller exists, so a
    signal from here on reaches a job already solving, not one that
    has yet to start.  ``GET /metrics`` is a small counters-and-gauges
    document, so each poll stays short next to the window between
    that compile and the solve's last charge boundary.
    """
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        counters = client.metrics()["counters"]
        if counters.get("kernel.problem_cache_misses", 0):
            return
        time.sleep(0.01)
    pytest.fail("the relay job never started solving")


def test_sigterm_mid_solve_parks_the_running_job_then_resumes(tmp_path):
    """SIGTERM a server mid-solve; the running job stops and resumes.

    The drain reaches a job that is already solving: it stops at its
    next charge boundary and its record reads ``interrupted``, with a
    checkpoint on disk.  A second server life resumes it from that
    checkpoint to ``done``, byte-identical to the batch solve.
    """
    relay_doc, relay_body = _relay_job(5)
    store_root = str(tmp_path / "store")
    store = ResultStore(store_root)
    proc = _serve_process(store_root)
    try:
        serving = json.loads(proc.stdout.readline())
        client = ServeClient("127.0.0.1", serving["serving"]["port"])
        status, doc = client.submit(relay_doc)
        assert status == 202
        relay_id = doc["job"]["job_id"]
        _wait_solving(client)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert json.loads(stdout.splitlines()[-1]) == {"drained": True}
    record = journal_states(store_root)[relay_id]
    assert record["state"] == "interrupted", record
    assert record["outcome"] == "partial-interrupt"
    assert store.load_job_checkpoint(record["fingerprint"]) is not None
    with _second_life(store_root) as (server, client):
        final = client.wait(relay_id, timeout_s=120)
        assert final["job"]["state"] == "done", final["job"]
        assert final["job"]["resumed"]
        assert json.dumps(final["result"], sort_keys=True) == relay_body
    assert store.load_job_checkpoint(record["fingerprint"]) is None
    _assert_served_in_ledger(store, [relay_id])


def test_sigkill_mid_job_then_restart_finishes_all(tmp_path):
    """SIGKILL a server mid-job; a restart finishes every job.

    Workers are threads, so the real crash is the whole process dying,
    with no drain.  The killed job's record still reads ``running`` and
    it left no checkpoint, so the next server life re-runs it from its
    start; the queued jobs behind it are recovered untouched.  Every
    accepted job must reach ``done`` byte-identical to the direct solve.
    """
    relay_doc, relay_body = _relay_job(5)
    store_root = str(tmp_path / "store")
    store = ResultStore(store_root)
    proc = _serve_process(store_root)
    try:
        serving = json.loads(proc.stdout.readline())
        client = ServeClient("127.0.0.1", serving["serving"]["port"])
        status, doc = client.submit(relay_doc)
        assert status == 202
        relay_id = doc["job"]["job_id"]
        expected = {relay_id: relay_body}
        for seed in (110, 111, 112, 113):
            status, doc = client.submit(solve_doc(seed))
            assert status == 202
            expected[doc["job"]["job_id"]] = canonical(seed)
        _wait_solving(client)
        proc.send_signal(signal.SIGKILL)
        proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == -signal.SIGKILL
    records = journal_states(store_root)
    first_life = {job_id: records[job_id]["state"] for job_id in expected}
    assert first_life == {
        job_id: "running" if job_id == relay_id else "queued"
        for job_id in expected
    }
    with _second_life(store_root) as (server, client):
        for job_id, body in expected.items():
            final = client.wait(job_id, timeout_s=120)
            assert final["job"]["state"] == "done", final["job"]
            assert json.dumps(final["result"], sort_keys=True) == body
        assert server.collector is not None
        counters = server.collector.snapshot().counters
        assert counters["serve.jobs.recovered"] == len(expected)
    _assert_served_in_ledger(store, expected)
