"""Unit tests of the serve layer: jobs, queue, store, supervisor, server.

The end-to-end byte-identity sweeps live in
``tests/test_serve_differential.py``; this file pins the pieces —
request validation and content addressing, admission policy, the durable
store, the supervisor's recovery ladder, and the HTTP surface.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro import obs
from repro.chaos import ChaosPlan, use_chaos
from repro.cli import main
from repro.errors import InterruptRequested, ReproError, ServeError
from repro.io.json_codec import spec_to_dict
from repro.obs.core import ThreadSafeCollector
from repro.obs.ledger import Ledger
from repro.persist import InterruptController
from repro.persist.checkpoint import problem_fingerprint
from repro.quotient.solve import solve_quotient
from repro.quotient.types import QuotientProblem
from repro.serve import (
    AdmissionQueue,
    DerivationServer,
    JobRequest,
    ResultStore,
    ServeClient,
    WorkerSupervisor,
    execute_job,
)
from repro.serve.app import MAX_BODY_BYTES
from repro.serve.workers import DRAIN_REASON
from repro.spec import random_quotient_instance


def solve_doc(seed: int = 3, **extra) -> dict:
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


def canonical_body(seed: int) -> dict:
    """What a direct, unserved solve of the same instance produces."""
    service, component, internal, _ = random_quotient_instance(seed=seed)
    result = solve_quotient(service, component, int_events=internal)
    body = result.to_json_dict()
    body.pop("stats", None)
    return body


class TestJobRequest:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServeError, match="unknown job kind"):
            JobRequest(kind="transmogrify", payload={})

    def test_priority_must_be_int_not_bool(self):
        with pytest.raises(ServeError, match="priority"):
            JobRequest(kind="solve", payload={}, priority=True)
        with pytest.raises(ServeError, match="priority"):
            JobRequest(kind="solve", payload={}, priority="high")

    def test_deadline_must_be_positive(self):
        with pytest.raises(ServeError, match="deadline_s"):
            JobRequest(kind="solve", payload={}, deadline_s=0)

    def test_budget_unknown_fields_rejected(self):
        with pytest.raises(ServeError, match="max_pears"):
            JobRequest(kind="solve", payload={},
                       budget={"max_pears": 10})

    def test_codec_roundtrip(self):
        doc = solve_doc(priority=3, deadline_s=1.5,
                        budget={"max_pairs": 100}, label="x")
        request = JobRequest.from_json_dict(doc)
        assert JobRequest.from_json_dict(request.to_json_dict()) == request

    def test_codec_rejects_unknown_fields(self):
        with pytest.raises(ServeError, match="sneaky"):
            JobRequest.from_json_dict({**solve_doc(), "sneaky": 1})

    def test_codec_rejects_wrong_schema(self):
        with pytest.raises(ServeError, match="schema"):
            JobRequest.from_json_dict({**solve_doc(), "schema": 99})

    def test_solve_fingerprint_is_problem_fingerprint(self):
        service, component, internal, _ = random_quotient_instance(seed=5)
        request = JobRequest.from_json_dict(solve_doc(seed=5))
        problem = QuotientProblem.build(service, component, internal)
        assert request.fingerprint() == problem_fingerprint(problem)

    def test_fingerprint_is_name_insensitive(self):
        doc = solve_doc(seed=6)
        renamed = json.loads(json.dumps(doc))
        renamed["payload"]["service"]["name"] = "a-different-name"
        assert (JobRequest.from_json_dict(doc).fingerprint()
                == JobRequest.from_json_dict(renamed).fingerprint())

    def test_fingerprint_ignores_execution_shaping(self):
        base = JobRequest.from_json_dict(solve_doc(seed=7))
        shaped = JobRequest.from_json_dict(
            solve_doc(seed=7, priority=9, deadline_s=2.0,
                      budget={"max_pairs": 5}, label="urgent")
        )
        assert base.fingerprint() == shaped.fingerprint()

    def test_fingerprint_rejects_malformed_payload_at_admission(self):
        request = JobRequest(kind="solve", payload={"service": {}})
        with pytest.raises(ReproError):
            request.fingerprint()

    def test_analyze_fingerprint_is_order_insensitive(self):
        service, component, _, _ = random_quotient_instance(seed=8)
        a = JobRequest(kind="analyze", payload={
            "specs": [spec_to_dict(service), spec_to_dict(component)]})
        b = JobRequest(kind="analyze", payload={
            "specs": [spec_to_dict(component), spec_to_dict(service)]})
        assert a.fingerprint() == b.fingerprint()


class TestExecuteJob:
    def test_solve_body_is_canonical(self):
        request = JobRequest.from_json_dict(solve_doc(seed=9))
        outcome = execute_job(request)
        assert "stats" not in outcome.body
        assert "degradations" not in outcome.body
        assert outcome.verdict in ("converter", "no-converter")
        assert outcome.body == canonical_body(9)
        assert outcome.counters  # phase counters for the ledger

    def test_analyze_single_spec(self):
        service, _, _, _ = random_quotient_instance(seed=10)
        request = JobRequest(
            kind="analyze", payload={"specs": [spec_to_dict(service)]}
        )
        outcome = execute_job(request)
        assert outcome.verdict in ("clean", "findings")
        assert set(outcome.counters) == {"diagnostics", "errors", "warnings"}


class TestAdmissionQueue:
    def test_accepts_to_capacity_then_rejects(self):
        q = AdmissionQueue(2)
        assert q.offer("a").accepted
        assert q.offer("b").accepted
        rejected = q.offer("c")
        assert not rejected.accepted
        # deterministic, depth-derived backpressure hint
        assert rejected.retry_after_s == pytest.approx(0.05 * 3)
        assert q.depth == 2

    def test_higher_priority_sheds_youngest_lowest(self):
        q = AdmissionQueue(2)
        q.offer("old", priority=0)
        q.offer("young", priority=0)
        admission = q.offer("vip", priority=5)
        assert admission.accepted
        assert admission.shed == "young"  # youngest among the lowest tie
        assert q.pop() == "vip"
        assert q.pop() == "old"

    def test_equal_priority_never_sheds(self):
        q = AdmissionQueue(1)
        q.offer("a", priority=2)
        admission = q.offer("b", priority=2)
        assert not admission.accepted and admission.shed is None

    def test_pop_is_fifo_within_priority(self):
        q = AdmissionQueue(4)
        for name in ("a", "b"):
            q.offer(name, priority=0)
        for name in ("hi1", "hi2"):
            q.offer(name, priority=1)
        assert [q.pop() for _ in range(4)] == ["hi1", "hi2", "a", "b"]

    def test_push_bypasses_the_bound(self):
        q = AdmissionQueue(1)
        q.offer("a")
        q.push("recovered")  # restart recovery: already admitted once
        assert q.depth == 2

    def test_counters(self):
        collector = obs.MetricsCollector()
        with obs.use_collector(collector):
            q = AdmissionQueue(1)
            q.offer("a")
            q.offer("b")                 # rejected
            q.offer("vip", priority=1)   # sheds a
        assert collector.counters["serve.queue.accepted"] == 2
        assert collector.counters["serve.queue.rejected"] == 1
        assert collector.counters["serve.queue.shed"] == 1
        assert collector.gauges["serve.queue.depth"] == 1


class TestResultStore:
    def test_state_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.load_state() == {"next_seq": 0}
        store.save_state({"next_seq": 7})
        assert ResultStore(str(tmp_path)).load_state()["next_seq"] == 7

    def test_result_roundtrip_and_index(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put_result("f" * 64, kind="solve", label="x",
                         spec_fingerprints=["s1", "s2"],
                         body={"exists": True}, verdict="converter")
        doc = store.get_result("f" * 64)
        assert doc["result"] == {"exists": True}
        assert doc["verdict"] == "converter"
        assert store.entries_for_spec("s1")["f" * 64]["kind"] == "solve"
        assert store.entries_for_spec("nope") == {}

    def test_index_is_rebuilt_from_results(self, tmp_path):
        ResultStore(str(tmp_path)).put_result(
            "f" * 64, kind="solve", label="x", spec_fingerprints=["s1"],
            body={}, verdict="converter")
        # a result cached before documents carried their index entry
        old = ResultStore(str(tmp_path))
        old._results.write("a" * 64 + ".json", {
            "kind": "analyze", "fingerprint": "a" * 64, "verdict": "clean",
            "result": {}}, kind="result")
        old._docs.write("index.json", {
            "kind": "serve-index", "schema": 1, "entries": {"a" * 64: {
                "kind": "analyze", "label": "old", "verdict": "clean",
                "specs": ["s1"]}}}, kind="serve-index")
        entries = ResultStore(str(tmp_path)).entries_for_spec("s1")
        assert entries == {
            "f" * 64: {"kind": "solve", "label": "x",
                       "verdict": "converter", "specs": ["s1"]},
            "a" * 64: {"kind": "analyze", "label": "old",
                       "verdict": "clean", "specs": ["s1"]},
        }

    def test_index_map_under_concurrent_puts(self, tmp_path):
        import sys

        def put(store, fingerprint):
            store.put_result(fingerprint, kind="solve", label="",
                             spec_fingerprints=["s"], body={}, verdict=None)

        for i in range(40):  # so the first index() scan takes a while
            put(ResultStore(str(tmp_path)), f"x{i:063d}")
        errors: list[BaseException] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for rnd in range(8):
                # a fresh store: its first index() races the puts
                store = ResultStore(str(tmp_path))
                done = threading.Event()
                start = threading.Barrier(5, timeout=30)

                def writer(w, store=store, start=start, rnd=rnd):
                    start.wait()
                    for i in range(10):
                        put(store, f"{rnd}{w}{i:062d}")

                def reader(store=store, start=start, done=done):
                    start.wait()
                    try:
                        while not done.is_set():
                            json.dumps(store.index())
                            store.entries_for_spec("s")
                    except BaseException as exc:  # asserted below
                        errors.append(exc)

                writers = [threading.Thread(target=writer, args=(w,))
                           for w in range(4)]
                watcher = threading.Thread(target=reader)
                for t in (watcher, *writers):
                    t.start()
                for t in writers:
                    t.join(60)
                done.set()
                watcher.join(60)
                assert not any(t.is_alive() for t in (*writers, watcher))
                assert errors == []
                # no put was lost to the map being built
                assert len(store.index()["entries"]) == 40 + 40 * (rnd + 1)
        finally:
            sys.setswitchinterval(interval)

    def test_corrupt_result_reads_as_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put_result("a" * 64, kind="solve", label="",
                         spec_fingerprints=[], body={}, verdict=None)
        path = tmp_path / "results" / ("a" * 64 + ".json")
        path.write_text(path.read_text()[: 40])  # tear it
        collector = obs.MetricsCollector()
        with obs.use_collector(collector):
            assert store.get_result("a" * 64) is None
        assert collector.counters["serve.cache.corrupt"] == 1

    def test_job_records_and_recovery_filter(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for seq, state in enumerate(
            ("done", "queued", "running", "failed", "interrupted")
        ):
            store.save_job({"job_id": f"j{seq}", "seq": seq, "state": state,
                            "fingerprint": f"f{seq}",
                            "request": solve_doc(seed=seq)})
        assert [r["seq"] for r in store.load_jobs()] == [0, 1, 2, 3, 4]
        # a restarted server re-enqueues exactly the unfinished jobs
        server = DerivationServer(str(tmp_path))
        server._recover()
        assert sorted(server._records) == ["j1", "j2", "j4"]
        assert server.queue.depth == 3
        assert store.load_job("j0")["state"] == "done"
        assert store.load_job("missing") is None

    def test_checkpoint_lifecycle(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.load_job_checkpoint("b" * 64) is None
        request = JobRequest.from_json_dict(solve_doc(seed=12))
        controller = InterruptController(at_charge=2)
        with pytest.raises(InterruptRequested) as info:
            execute_job(request, interrupt=controller)
        store.save_job_checkpoint("b" * 64, info.value.checkpoint)
        loaded = store.load_job_checkpoint("b" * 64)
        assert loaded is not None and loaded.phase == info.value.phase
        store.drop_job_checkpoint("b" * 64)
        assert store.load_job_checkpoint("b" * 64) is None


class TestWorkerSupervisor:
    def _run(self, seed, store, supervisor, **request_extra):
        request = JobRequest.from_json_dict(solve_doc(seed, **request_extra))
        return supervisor.run_job(request, store)

    def test_healthy_run_is_byte_identical(self, tmp_path):
        supervisor = WorkerSupervisor(sleep=lambda s: None)
        outcome = self._run(21, ResultStore(str(tmp_path)), supervisor)
        assert outcome.state == "done"
        assert outcome.body == canonical_body(21)
        assert outcome.attempts == 1

    def test_injected_raise_is_retried_transparently(self, tmp_path):
        collector = ThreadSafeCollector()
        plan = ChaosPlan(seed=1, raise_at=(0,), sites=("serve.job",))
        supervisor = WorkerSupervisor(sleep=lambda s: None)
        with obs.use_collector(collector), use_chaos(plan):
            outcome = self._run(22, ResultStore(str(tmp_path)), supervisor)
        assert outcome.state == "done"
        assert outcome.attempts == 2
        assert outcome.body == canonical_body(22)
        assert collector.counters["chaos.injected.serve.job.raise"] == 1
        assert collector.counters["retry.retries"] == 1
        assert collector.counters["retry.recoveries"] == 1

    def test_budget_trip_checkpoints_then_resubmit_resumes(self, tmp_path):
        store = ResultStore(str(tmp_path))
        supervisor = WorkerSupervisor(sleep=lambda s: None)
        first = self._run(27, store, supervisor, budget={"max_pairs": 2})
        assert first.state == "failed"
        assert first.outcome == "partial-budget"
        assert first.checkpointed
        # an unbudgeted resubmission of the same fingerprint resumes
        collector = ThreadSafeCollector()
        with obs.use_collector(collector):
            second = self._run(27, store, supervisor)
        assert second.state == "done" and second.resumed
        assert second.body == canonical_body(27)
        assert collector.counters["serve.jobs.resumed"] == 1

    def test_drain_interrupt_parks_job_as_recoverable(self, tmp_path):
        store = ResultStore(str(tmp_path))
        supervisor = WorkerSupervisor(sleep=lambda s: None)
        drain = InterruptController()
        drain.request(DRAIN_REASON)
        request = JobRequest.from_json_dict(solve_doc(seed=26))
        outcome = supervisor.run_job(request, store, drain=drain)
        assert outcome.state == "interrupted"
        assert outcome.outcome == "partial-interrupt"
        assert outcome.checkpointed
        # and the checkpoint resumes to the exact answer
        resumed = supervisor.run_job(request, store)
        assert resumed.state == "done" and resumed.resumed
        assert resumed.body == canonical_body(26)

    def test_unservable_job_fails_cleanly(self, tmp_path):
        supervisor = WorkerSupervisor(sleep=lambda s: None)
        request = JobRequest(kind="analyze", payload={"specs": [{}]})
        outcome = supervisor.run_job(
            request, ResultStore(str(tmp_path)), fingerprint="x" * 64
        )
        assert outcome.state == "failed"
        assert outcome.outcome == "failed"
        assert outcome.error


class TestServerAdmission:
    """The event-loop admission logic, driven directly (no sockets)."""

    def _server(self, tmp_path, **kw):
        kw.setdefault("capacity", 2)
        return DerivationServer(str(tmp_path / "store"), **kw)

    def test_accept_then_join_then_cache(self, tmp_path):
        server = self._server(tmp_path)
        doc = solve_doc(seed=31)
        status, first = server._submit(doc)
        assert status == 202 and first["job"]["state"] == "queued"
        status, joined = server._submit(doc)
        assert status == 202 and joined["joined"]
        assert joined["job"]["job_id"] == first["job"]["job_id"]
        # complete it, then the same submission is a cache hit
        server._run_one(first["job"]["job_id"])
        server._finalize(first["job"]["job_id"])
        status, hit = server._submit(doc)
        assert status == 200 and hit["job"]["cache"] == "hit"
        assert hit["result"] == canonical_body(31)

    def test_overflow_rejects_with_retry_after(self, tmp_path):
        server = self._server(tmp_path, capacity=2)
        server._submit(solve_doc(seed=32))
        server._submit(solve_doc(seed=33))
        with pytest.raises(ServeError) as info:
            server._submit(solve_doc(seed=34))
        assert info.value.status == 429

    def test_overflow_sheds_lowest_priority(self, tmp_path):
        server = self._server(tmp_path, capacity=2)
        server._submit(solve_doc(seed=35))
        _, low = server._submit(solve_doc(seed=36))
        status, vip = server._submit(solve_doc(seed=37, priority=5))
        assert status == 202
        shed = server._records[low["job"]["job_id"]]
        assert shed["state"] == "shed"
        assert "resubmit" in shed["error"]
        # the shed record is persisted — the client gets a structured
        # answer, not a lost job
        assert server.store.load_job(shed["job_id"])["state"] == "shed"

    def test_job_ids_survive_a_lost_server_state(self, tmp_path):
        server = self._server(tmp_path)
        _, first = server._submit(solve_doc(seed=39))
        server._run_one(first["job"]["job_id"])
        finished = server.store.load_job("j0")
        assert finished["state"] == "done"
        for name in ("server.json", "server.json.prev"):
            (tmp_path / "store" / name).unlink(missing_ok=True)
        restarted = self._server(tmp_path)
        restarted._recover()
        _, second = restarted._submit(solve_doc(seed=40))
        # every job the last life finished still owns its id
        assert second["job"]["job_id"] == "j1"
        assert restarted.store.load_job("j0") == finished

    def test_cache_hit_writes_its_record_once(self, tmp_path, monkeypatch):
        server = self._server(tmp_path)
        doc = solve_doc(seed=31)
        _, first = server._submit(doc)
        server._run_one(first["job"]["job_id"])
        saved = []
        monkeypatch.setattr(server.store, "save_job",
                            lambda record: saved.append(dict(record)))
        status, _ = server._submit(doc)
        assert status == 200
        assert [(r["state"], r["outcome"]) for r in saved] == [
            ("done", "complete")
        ]

    def test_draining_rejects_with_503(self, tmp_path):
        server = self._server(tmp_path)
        server.draining = True
        with pytest.raises(ServeError) as info:
            server._submit(solve_doc(seed=38))
        assert info.value.status == 503

    def test_malformed_submission_is_a_structured_400(self, tmp_path):
        server = self._server(tmp_path)
        with pytest.raises(ServeError) as info:
            server._submit({"kind": "solve", "payload": {"service": {}}})
        assert info.value.status == 400


@pytest.fixture
def live_server(tmp_path):
    """A real server on an ephemeral port, drained at teardown."""
    started: list[tuple[DerivationServer, threading.Thread]] = []

    def start(**kw) -> tuple[DerivationServer, ServeClient]:
        kw.setdefault("capacity", 8)
        kw.setdefault("workers", 2)
        root = kw.pop("root", None) or str(tmp_path / "store")
        server = DerivationServer(root, **kw)
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(
                server.run(ready=lambda s: ready.set())
            ),
            daemon=True,
        )
        thread.start()
        assert ready.wait(10), "server did not come up"
        started.append((server, thread))
        return server, ServeClient("127.0.0.1", server.port)

    yield start
    for server, thread in started:
        if thread.is_alive():
            try:
                ServeClient("127.0.0.1", server.port).shutdown()
            except Exception:
                pass
            thread.join(15)


class TestServerHTTP:
    def test_solve_roundtrip_and_cache(self, live_server):
        _, client = live_server()
        doc = solve_doc(seed=41)
        status, accepted = client.submit(doc)
        assert status == 202
        final = client.wait(accepted["job"]["job_id"], timeout_s=60)
        assert final["job"]["state"] == "done"
        assert final["result"] == canonical_body(41)
        assert any(e["event"] == "done" for e in final["progress"])
        status, hit = client.submit(doc)
        assert status == 200 and hit["result"] == canonical_body(41)

    def test_analyze_roundtrip(self, live_server):
        _, client = live_server()
        service, component, _, _ = random_quotient_instance(seed=42)
        status, accepted = client.submit({
            "kind": "analyze",
            "payload": {"specs": [spec_to_dict(service),
                                  spec_to_dict(component)]},
        })
        assert status == 202
        final = client.wait(accepted["job"]["job_id"], timeout_s=60)
        assert final["job"]["state"] == "done"
        assert final["job"]["verdict"] in ("clean", "findings")
        assert "diagnostics" in final["result"]

    def test_operational_endpoints(self, live_server):
        server, client = live_server()
        health = client.health()
        assert health["status"] == "ok"
        doc = solve_doc(seed=43)
        _, accepted = client.submit(doc)
        client.wait(accepted["job"]["job_id"], timeout_s=60)
        metrics = client.metrics()
        assert metrics["counters"]["serve.jobs.submitted"] >= 1
        index = client.index()
        assert len(index["entries"]) == 1
        (fp,) = index["entries"]
        assert client.result(fp)["result"] == canonical_body(43)
        spec_fp = index["entries"][fp]["specs"][0]
        assert fp in client.index(spec=spec_fp)["entries"]
        assert client.gc()["scanned"] >= 1
        jobs = client.jobs()["jobs"]
        assert [j["job_id"] for j in jobs] == [accepted["job"]["job_id"]]

    def test_gc_keeps_the_ledger(self, live_server):
        server, client = live_server()
        for seed in (45, 46):
            _, accepted = client.submit(solve_doc(seed=seed))
            client.wait(accepted["job"]["job_id"], timeout_s=60)
        ledger = Ledger(server.store.ledger_path)
        # a job reads done just before its ledger append
        deadline = time.monotonic() + 10
        while len(ledger.read()) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        served = ledger.read()
        assert [r.kind for r in served] == ["served", "served"]
        assert client.gc()["corrupt_removed"] == 0
        assert ledger.read() == served

    def test_error_surfaces(self, live_server):
        _, client = live_server()
        with pytest.raises(ServeError) as info:
            client.job("j999")
        assert info.value.status == 404
        status, doc = client.call("GET", "/no/such/route")
        assert status == 404
        status, doc = client.call("POST", "/jobs", {"kind": "nope",
                                                    "payload": {}})
        assert status == 400 and "unknown job kind" in doc["error"]

    @staticmethod
    def _raw_request(port: int, head: str) -> tuple[int, dict]:
        """Send *head* (request line and headers only) and read the reply.

        The socket times out if the server waits for a body it was never
        sent, so a reply proves the request was answered from its headers.
        """
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(head.encode("latin-1"))
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        _, _, body = rest.partition(b"\r\n\r\n")
        return int(status_line.split()[1]), json.loads(body)

    def test_oversized_body_is_refused_before_it_is_read(self, live_server):
        server, client = live_server()
        # the last has more digits than int() converts from a string
        for value in (MAX_BODY_BYTES + 1, "0" * 30 + "9" * 20, "9" * 5000):
            status, doc = self._raw_request(
                server.port,
                f"POST /jobs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n",
            )
            assert status == 413
            assert str(MAX_BODY_BYTES) in doc["error"]
        assert client.health()["status"] == "ok"

    def test_malformed_content_length_is_a_400(self, live_server):
        server, client = live_server()
        for value in ("-1", "12abc", "+5", ""):
            status, doc = self._raw_request(
                server.port,
                f"POST /jobs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n",
            )
            assert (status, doc) == (400, {"error": "malformed Content-Length"})
        assert client.health()["status"] == "ok"

    def test_shutdown_drains_cleanly(self, live_server):
        server, client = live_server()
        assert client.shutdown()["draining"]
        # a draining (or already-closed) server refuses new work
        try:
            client.submit(solve_doc(seed=44))
        except ServeError as exc:
            assert exc.status == 503
        except OSError:
            pass  # socket already closed: fully drained
        else:
            pytest.fail("draining server accepted a submission")


RESILIENCE_DSL = """
spec service
    initial 0
    0 -> 1 : acc
    1 -> 0 : del
end

spec component
    initial 0
    0 -> 1 : acc
    1 -> 2 : fwd
    2 -> 0 : del
end

spec converter
    initial 0
    0 -> 0 : fwd
end
"""


class TestServeCli:
    """``serve``'s argument checks; ``submit`` and ``status`` against a
    live server."""

    @pytest.fixture
    def dsl(self, tmp_path):
        path = tmp_path / "system.dsl"
        path.write_text(RESILIENCE_DSL)
        return str(path)

    def _resilience(self, dsl, port, *extra):
        return main(
            ["submit", dsl, "--kind", "resilience", "--service", "service",
             "--components", "component", "--converter", "converter",
             "--port", str(port), *extra]
        )

    def test_submit_wait_json_is_the_solve_output(
        self, live_server, dsl, capsys
    ):
        # the batch run goes first: the server installs its own (recording)
        # collector, which would add a stats block to an in-process solve
        assert main(["solve", dsl, "service", "component", "--format", "json"]) == 0
        batch = capsys.readouterr().out
        server, _ = live_server()
        assert main(
            ["submit", dsl, "--service", "service", "--component", "component",
             "--port", str(server.port), "--wait", "--format", "json"]
        ) == 0
        assert capsys.readouterr().out == batch

    def test_target_index_and_name_agree(self, live_server, dsl, capsys):
        server, _ = live_server()
        results = []
        for target in ("0", "component"):
            code = self._resilience(
                dsl, server.port, "--target", target, "--severities", "1",
                "--wait", "--format", "json",
            )
            results.append((code, capsys.readouterr().out))
        (code, body), other = results
        assert code in (0, 1)
        assert json.loads(body)["target"] == "component"
        assert other == (code, body)

    def test_bad_severities_is_a_usage_error(self, live_server, dsl, capsys):
        server, _ = live_server()
        assert self._resilience(dsl, server.port, "--severities", "1,x") == 2
        assert "bad --severities" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--workers", "0"), ("--capacity", "0"), ("--capacity", "-3")],
    )
    def test_serve_rejects_non_positive_sizes(
        self, tmp_path, capsys, flag, value
    ):
        store = tmp_path / "store"
        assert main(["serve", "--store", str(store), flag, value]) == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err
        assert not store.exists()

    def test_status_tail(self, live_server, dsl, capsys):
        server, client = live_server()
        assert main(
            ["submit", dsl, "--service", "service", "--component", "component",
             "--port", str(server.port), "--wait"]
        ) == 0
        (job,) = client.jobs()["jobs"]
        capsys.readouterr()
        status = ["status", job["job_id"], "--port", str(server.port)]
        assert main(status + ["--tail", "0"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1
        assert main(status + ["--tail", "1"]) == 0
        header, event = capsys.readouterr().out.splitlines()
        assert json.loads(event)["event"] == "done"
        assert main(status + ["--tail", "-1"]) == 2
        assert "--tail must be >= 0" in capsys.readouterr().err
