"""The derivation server: asyncio HTTP front, threaded supervised back.

``DerivationServer`` turns the library's batch entry points into a
crash-tolerant service.  One asyncio event loop owns all bookkeeping
(admission, dedup, job records); jobs execute on worker threads via
:func:`asyncio.to_thread` under :class:`~repro.serve.workers.
WorkerSupervisor`; every state transition is appended to the job journal
of :class:`~repro.serve.store_index.ResultStore`, so a killed server
restarts into the same job set and resumes solves from their
checkpoints.

Every write a served job causes costs O(1) in the size of the store:
one journal line per state transition (a cache hit is born ``done`` and
written once), one result document, and one appended ledger line.

Protocol (JSON over HTTP/1.1, ``Connection: close``; bodies are one
line with sorted keys, from CPython's C encoder — ``indent`` would
select the pure-Python one, about eight times slower — and the CLI
re-indents what it prints)::

    POST /jobs          submit a JobRequest document
                          200  cache hit: job record + result body
                          202  accepted (or joined to an in-flight twin)
                          429  queue full: {"retry_after_s": ...}
                          503  server draining, or its store failed
    GET  /jobs          all job summaries, earlier server lives' included
    GET  /jobs/<id>     record + progress tail (+ result when done);
                          ?wait=1[&timeout_s=N] long-polls for a
                          terminal state
    GET  /results/<fp>  a cached result document by fingerprint
    GET  /index[?spec=<fp>]  the artifact-graph index
    GET  /healthz       {"status": "ok" | "draining", ...}
    GET  /metrics       the server collector's counters and gauges
    POST /gc            run store garbage collection
    POST /shutdown      begin the drain (same path as SIGTERM)

Any request whose ``Content-Length`` is not a decimal number is answered
400, one declaring a body over :data:`MAX_BODY_BYTES` is answered 413
before the body is read, and one with a request line or a header line
over :data:`MAX_HEADER_LINE_BYTES` is answered 414 or 431.

**Single-flight dedup**: a submission whose fingerprint matches a queued
or running job returns that job's id (``serve.dedup.joined``) instead of
computing twice; a fingerprint with a cached complete result returns it
immediately (``serve.cache.hit``) without touching the queue.

**Drain** (SIGTERM, SIGINT, or ``POST /shutdown``): admission closes
(503), queued jobs stay persisted as ``queued``, a running job stops at
its next charge boundary and is checkpointed as ``interrupted``, the
ledger is flushed, and the process exits cleanly.
A restarted server re-enqueues every unfinished job
(``serve.jobs.recovered``) past the admission bound — an accepted job
is never lost, SIGKILL included.
"""

from __future__ import annotations

import asyncio
import collections
import json
import signal
import threading
import time
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

from .. import obs
from ..errors import PersistError, ReproError, ServeError
from ..obs.core import ThreadSafeCollector
from ..obs.ledger import append_run, flatten_work
from ..obs.progress import ProgressReporter, set_reporter
from ..persist import InterruptController
from .jobs import JobRequest
from .queue import AdmissionQueue
from .store_index import RECOVERABLE_STATES, ResultStore
from .workers import DEFAULT_JOB_RETRY, DRAIN_REASON, WorkerSupervisor

__all__ = [
    "DerivationServer",
    "MAX_BODY_BYTES",
    "MAX_HEADER_LINE_BYTES",
    "TERMINAL_STATES",
]

#: Job states after which a record never changes again.
TERMINAL_STATES = ("done", "failed", "shed", "interrupted")

#: Progress events retained per job (a bounded tail, newest last).
PROGRESS_TAIL = 256

#: Largest request body the server reads, in bytes.  A request declaring
#: a longer ``Content-Length`` is answered 413 before any of its body is
#: read, so one client cannot make the server buffer what it likes.  The
#: largest real requests are solve jobs carrying big components: the SEC7
#: relay at k=6 (a 4096-state component) is 7.4 MiB.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Longest request line or header line the server reads, in bytes (the
#: ``asyncio`` stream reader's limit).  A longer request line is answered
#: 414 and a longer header line 431, once the rest of the request head
#: has been read and dropped.
MAX_HEADER_LINE_BYTES = 64 * 1024

#: Default long-poll ceiling for ``GET /jobs/<id>?wait=1``.
WAIT_TIMEOUT_S = 30.0


class _Tail:
    """A line-buffered text sink keeping the last N JSONL events.

    Fed by the job's :class:`~repro.obs.progress.ProgressReporter` from
    its worker thread; read (as parsed objects) by the event loop for
    ``GET /jobs/<id>``.  Append/snapshot are each a single deque
    operation, safe under the GIL.
    """

    def __init__(self, maxlen: int = PROGRESS_TAIL) -> None:
        self.lines: collections.deque[str] = collections.deque(maxlen=maxlen)
        self._partial = ""

    def write(self, text: str) -> None:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            if line:
                self.lines.append(line)

    def flush(self) -> None:  # TextIO duck-typing
        pass

    def events(self) -> list[dict]:
        out = []
        for line in list(self.lines):
            try:
                out.append(json.loads(line))
            except ValueError:
                continue
        return out


class DerivationServer:
    """Quotient derivation as a service (see module docstring)."""

    def __init__(
        self,
        root: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity: int = 16,
        workers: int = 2,
        retry=DEFAULT_JOB_RETRY,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.store = ResultStore(root)
        self.host = host
        self.port = port
        self.queue = AdmissionQueue(capacity)
        self.supervisor = WorkerSupervisor(retry=retry, sleep=sleep, clock=clock)
        self.workers = workers
        self.drain = InterruptController(clock=clock)
        self.draining = False
        # the next job's sequence number; _recover replays it
        self._seq = 0
        self._records: dict[str, dict] = {}
        self._requests: dict[str, JobRequest] = {}
        self._inflight: dict[str, str] = {}
        self._done_events: dict[str, asyncio.Event] = {}
        self._progress: dict[str, _Tail] = {}
        # serializes ledger appends, and keeps POST /gc's sweep away
        # from result and ledger writes
        self._store_lock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        # open connections: handler task -> its stream writer
        self._handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.collector: ThreadSafeCollector | None = None

    # ------------------------------------------------------------------
    # job bookkeeping (event-loop thread only)
    # ------------------------------------------------------------------
    def _new_job(
        self,
        request: JobRequest,
        fingerprint: str,
        *,
        state: str,
        cache: str,
        outcome: str | None = None,
        verdict: str | None = None,
    ) -> dict:
        job_id = f"j{self._seq}"
        record = {
            "schema": 1,
            "job_id": job_id,
            "seq": self._seq,
            "kind": request.kind,
            "label": request.label,
            "priority": request.priority,
            "fingerprint": fingerprint,
            "state": state,
            "cache": cache,
            "outcome": outcome,
            "verdict": verdict,
            "error": None,
            "attempts": 0,
            "resumed": False,
        }
        self._seq += 1
        # the request is kept, on the admission line and in _requests,
        # only while the job has still to run
        queued = state == "queued"
        line = {**record, "request": request.to_json_dict()} if queued else record
        # durable before the reply; a failed append fails the submission
        self.store.save_job(line, admit=True)
        self._records[job_id] = record
        if queued:
            self._requests[job_id] = request
        self._done_events[job_id] = asyncio.Event()
        self._progress[job_id] = _Tail()
        return record

    def _ledger_job(self, record: dict, work: dict | None = None) -> None:
        with self._store_lock:
            append_run(
                self.store.ledger_path,
                kind="served",
                fingerprint=record["fingerprint"],
                label=record["label"] or record["job_id"],
                outcome=record["outcome"] or "failed",
                verdict=record["verdict"],
                work=flatten_work(work or {}),
                artifacts=(
                    {"result": f"results/{record['fingerprint']}.json"}
                    if record["state"] == "done"
                    else {}
                ),
            )

    def _submit(self, doc: Any) -> tuple[int, dict]:
        request = JobRequest.from_json_dict(doc)
        try:
            fingerprint = request.fingerprint()
        except ServeError:
            raise
        except ReproError as exc:
            raise ServeError(f"unservable payload: {exc}") from exc
        obs.add("serve.jobs.submitted", 1)
        if self.draining:
            raise ServeError(
                "server is draining; resubmit after restart", status=503
            )
        cached = self.store.get_result(fingerprint)
        if cached is not None:
            obs.add("serve.cache.hit", 1)
            record = self._new_job(
                request, fingerprint, state="done", cache="hit",
                outcome="complete", verdict=cached.get("verdict"),
            )
            self._ledger_job(record)
            self._done_events[record["job_id"]].set()
            return 200, {"job": record, "result": cached.get("result")}
        if fingerprint in self._inflight:
            obs.add("serve.dedup.joined", 1)
            primary = self._records[self._inflight[fingerprint]]
            return 202, {"job": primary, "joined": True}
        obs.add("serve.cache.miss", 1)
        if not self.queue.admits(request.priority):
            # refused before admission: no journal line, record or job id
            obs.add("serve.queue.rejected", 1)
            raise ServeError(
                f"queue full (capacity {self.queue.capacity}); retry in "
                f"{self.queue.retry_after()}s",
                status=429,
            )
        record = self._new_job(
            request, fingerprint, state="queued", cache="miss"
        )
        shed_id = self.queue.offer(record["job_id"],
                                   priority=request.priority).shed
        if shed_id is not None:
            shed = self._records[shed_id]
            shed["state"] = "shed"
            shed["outcome"] = "failed"
            shed["error"] = (
                "shed by a higher-priority submission under load; resubmit"
            )
            self.store.save_job(shed)
            self._ledger_job(shed)
            del self._requests[shed_id]
            self._inflight.pop(shed["fingerprint"], None)
            self._done_events[shed_id].set()
        self._inflight[fingerprint] = record["job_id"]
        if self._wake is not None:
            self._wake.set()
        return 202, {"job": record}

    def _recover(self) -> None:
        """Replay the journal into the job table, finished jobs included,
        re-enqueue every job a previous server life left unfinished, and
        compact the journal to the states set here.  Only an unfinished
        job keeps its request: in ``_requests`` and on its compacted line,
        never in its record."""
        records, self._seq = self.store.load_jobs()
        for record in records:
            job_id = record["job_id"]
            self._records[job_id] = record
            if record["state"] not in RECOVERABLE_STATES:
                continue
            try:
                request = JobRequest.from_json_dict(record["request"])
            except ServeError:
                record["state"] = "failed"
                record["outcome"] = "failed"
                record["error"] = "unrecoverable job record"
                continue
            record["state"] = "queued"
            self._requests[job_id] = request
            self._done_events[job_id] = asyncio.Event()
            self._progress[job_id] = _Tail()
            fingerprint = record["fingerprint"]
            if fingerprint not in self._inflight:
                self._inflight[fingerprint] = job_id
            # past the admission bound: these were already admitted once
            self.queue.push(job_id, priority=record.get("priority", 0))
            obs.add("serve.jobs.recovered", 1)
        self.store.save_state(records)
        for record in records:
            record.pop("request", None)

    # ------------------------------------------------------------------
    # execution (worker threads)
    # ------------------------------------------------------------------
    def _run_one(self, job_id: str) -> None:
        record = self._records[job_id]
        request = self._requests[job_id]
        record["state"] = "running"
        self.store.save_job(record)
        reporter = ProgressReporter(jsonl=self._progress[job_id],
                                    interval_s=0.2)
        previous = set_reporter(reporter)
        try:
            outcome = self.supervisor.run_job(
                request, self.store,
                fingerprint=record["fingerprint"], drain=self.drain,
            )
        finally:
            set_reporter(previous)
        if outcome.state == "done":
            # cache the result BEFORE the record turns terminal: pollers
            # key off "state", and a done job must always have its body
            with self._store_lock:
                self.store.put_result(
                    record["fingerprint"],
                    kind=request.kind,
                    label=request.label,
                    spec_fingerprints=_payload_spec_fingerprints(request),
                    body=outcome.body,
                    verdict=outcome.verdict,
                )
        record["outcome"] = outcome.outcome
        record["verdict"] = outcome.verdict
        record["error"] = outcome.error
        record["attempts"] = outcome.attempts
        record["resumed"] = outcome.resumed
        record["state"] = outcome.state
        reporter.finish(outcome.outcome)
        self.store.save_job(record)
        if outcome.state in ("done", "failed"):
            self._ledger_job(record, outcome.counters)
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._finalize, job_id)

    def _finalize(self, job_id: str) -> None:
        record = self._records[job_id]
        if record["state"] in ("done", "failed"):
            del self._requests[job_id]
            if self._inflight.get(record["fingerprint"]) == job_id:
                del self._inflight[record["fingerprint"]]
        self._done_events[job_id].set()

    async def _worker(self) -> None:
        while not self.draining:
            job_id = self.queue.pop()
            if job_id is None:
                assert self._wake is not None
                self._wake.clear()
                await self._wake.wait()
                continue
            await asyncio.to_thread(self._run_one, job_id)

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    def initiate_drain(self) -> None:
        """Stop admitting, interrupt running jobs, let :meth:`run` exit."""
        if self.draining:
            return
        self.draining = True
        obs.event("serve.drain", queued=self.queue.depth)
        self.drain.request(DRAIN_REASON)
        if self._wake is not None:
            self._wake.set()
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def _connected(self, reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter) -> None:
        """Start one connection's handler, tracked until it finishes."""
        task = asyncio.get_running_loop().create_task(
            self._handle(reader, writer)
        )
        self._handlers[task] = writer
        task.add_done_callback(self._handlers.pop)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        status: int | None = None
        doc: dict = {"error": "internal error"}
        try:
            try:
                parts = (await reader.readline()).decode("latin-1").split()
            except ValueError:
                parts = None  # over the reader's limit: 414 below
            else:
                if len(parts) < 2:
                    return
            status = 500
            length = 0
            too_long = parts is None
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # over the reader's limit: drop the rest of the head,
                    # so the socket closes with nothing unread
                    too_long = True
                    continue
                if line in (b"\r\n", b"\n", b""):
                    break
                if too_long:
                    continue
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    value = value.strip()
                    if not value.isdecimal():
                        length = -1
                    elif len(value.lstrip("0")) > len(str(MAX_BODY_BYTES)):
                        # over the limit; int() refuses very long strings
                        length = MAX_BODY_BYTES + 1
                    else:
                        length = int(value)
            if parts is None:
                status, doc = 414, {
                    "error": "the request line exceeds the "
                    f"{MAX_HEADER_LINE_BYTES}-byte limit"
                }
                return
            if too_long:
                status, doc = 431, {
                    "error": "a request header line exceeds the "
                    f"{MAX_HEADER_LINE_BYTES}-byte limit"
                }
                return
            if length < 0:
                status, doc = 400, {"error": "malformed Content-Length"}
                return
            if length > MAX_BODY_BYTES:
                status, doc = 413, {
                    "error": f"request body exceeds the {MAX_BODY_BYTES}-byte limit"
                }
                return
            body = await reader.readexactly(length) if length else b""
            obs.add("serve.http.requests", 1)
            try:
                status, doc = await self._route(parts[0], parts[1], body)
            except ServeError as exc:
                status, doc = exc.status, {"error": str(exc)}
                if exc.status == 429:
                    doc["retry_after_s"] = self.queue.retry_after()
            except PersistError:
                # the server's fault, not the request's; the error's own
                # text names paths under the store root
                status, doc = 503, {"error": "the server's store failed; "
                                    "retry later"}
            except ReproError as exc:
                status, doc = 400, {"error": str(exc)}
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            status = None
        except asyncio.CancelledError:
            status = None  # ended by the drain: close without a reply
            raise
        finally:
            try:
                if status is not None:
                    # no indent: it would select the pure-Python encoder
                    payload = json.dumps(doc, sort_keys=True)
                    reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                              404: "Not Found", 413: "Content Too Large",
                              414: "URI Too Long", 429: "Too Many Requests",
                              431: "Request Header Fields Too Large",
                              503: "Service Unavailable"}.get(status, "Error")
                    writer.write(
                        f"HTTP/1.1 {status} {reason}\r\n"
                        f"Content-Type: application/json\r\n"
                        f"Content-Length: {len(payload.encode('utf-8'))}\r\n"
                        f"Connection: close\r\n\r\n{payload}".encode("utf-8")
                    )
                    await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
            finally:
                writer.close()

    async def _route(self, method: str, target: str,
                     body: bytes) -> tuple[int, dict]:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        if method == "POST" and path == "/jobs":
            try:
                doc = json.loads(body.decode("utf-8"))
            except ValueError as exc:
                raise ServeError(f"request body is not JSON: {exc}") from exc
            return self._submit(doc)
        if method == "GET" and path.startswith("/jobs/"):
            return await self._job_status(path[len("/jobs/"):], query)
        if method == "GET" and path == "/jobs":
            return 200, {"jobs": [
                {k: r[k] for k in ("job_id", "seq", "kind", "label", "state",
                                   "cache", "outcome", "verdict",
                                   "fingerprint")}
                for r in sorted(self._records.values(),
                                key=lambda r: r["seq"])
            ]}
        if method == "GET" and path.startswith("/results/"):
            doc = self.store.get_result(path[len("/results/"):])
            if doc is None:
                raise ServeError("no such result", status=404)
            return 200, doc
        if method == "GET" and path == "/index":
            if "spec" in query:
                return 200, {
                    "entries": self.store.entries_for_spec(query["spec"])
                }
            return 200, self.store.index()
        if method == "GET" and path == "/healthz":
            return 200, self._health()
        if method == "GET" and path == "/metrics":
            if self.collector is None:
                return 200, {"counters": {}, "gauges": {}}
            snap = self.collector.snapshot()
            return 200, {"counters": snap.counters, "gauges": snap.gauges}
        if method == "POST" and path == "/gc":
            with self._store_lock:
                return 200, self.store.gc()
        if method == "POST" and path == "/shutdown":
            self.initiate_drain()
            return 202, {"draining": True}
        raise ServeError(f"no route for {method} {path}", status=404)

    async def _job_status(self, job_id: str,
                          query: dict) -> tuple[int, dict]:
        record = self._records.get(job_id)
        if record is None:
            raise ServeError(f"no such job {job_id!r}", status=404)
        if query.get("wait") and record["state"] not in TERMINAL_STATES:
            try:
                timeout = float(query.get("timeout_s", WAIT_TIMEOUT_S))
            except ValueError as exc:
                raise ServeError(f"bad timeout_s: {exc}") from exc
            try:
                await asyncio.wait_for(
                    self._done_events[job_id].wait(), timeout
                )
            except asyncio.TimeoutError:
                pass
        # a job replayed from an earlier server life has no progress tail
        tail = self._progress.get(job_id)
        doc: dict[str, Any] = {
            "job": record,
            "progress": tail.events() if tail is not None else [],
        }
        if record["state"] == "done":
            cached = self.store.get_result(record["fingerprint"])
            if cached is not None:
                doc["result"] = cached.get("result")
        return 200, doc

    def _health(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "queue_depth": self.queue.depth,
            "inflight": len(self._inflight),
            "jobs": len(self._records),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def run(
        self, *, ready: Callable[["DerivationServer"], None] | None = None
    ) -> None:
        """Serve until drained (SIGTERM/SIGINT/``POST /shutdown``).

        *ready* is called once the socket is bound and recovery is done
        (the CLI prints the address; tests capture the port).
        """
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        installed_collector = False
        if not obs.current_collector().recording:
            self.collector = ThreadSafeCollector()
            obs.set_collector(self.collector)
            installed_collector = True
        else:
            current = obs.current_collector()
            self.collector = current if isinstance(
                current, ThreadSafeCollector) else None
        self._recover()
        server = await asyncio.start_server(
            self._connected, self.host, self.port, limit=MAX_HEADER_LINE_BYTES
        )
        self.port = server.sockets[0].getsockname()[1]
        handled_signals = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self.initiate_drain)
                handled_signals.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        workers = [
            asyncio.create_task(self._worker()) for _ in range(self.workers)
        ]
        if self.queue.depth:
            self._wake.set()
        try:
            if ready is not None:
                ready(self)
            await self._stopped.wait()
            await asyncio.gather(*workers, return_exceptions=True)
        finally:
            for sig in handled_signals:
                self._loop.remove_signal_handler(sig)
            await self._close(server)
            if installed_collector:
                obs.set_collector(obs.NULL)

    async def _close(self, server: asyncio.Server) -> None:
        """Stop accepting, then end every connection still open.

        The listening sockets leave the selector one loop iteration before
        ``Server.close()``: a connection accepted in the iteration that
        closes the server is never attached to it and leaks its socket
        (``Server._attach`` asserts that the server is open).  Handlers
        still running after the drain wait for what will not come (a long
        poll on a job left queued, the rest of a slow client's request),
        so they are cancelled; one cancelled before its first step never
        reaches its ``finally``, so its writer is closed here too.
        """
        loop = asyncio.get_running_loop()
        for sock in server.sockets:
            loop.remove_reader(sock.fileno())
        await asyncio.sleep(0)  # connections already accepted attach
        server.close()
        await asyncio.sleep(0)  # and reach _connected
        while self._handlers:
            handlers = dict(self._handlers)
            for task in handlers:
                task.cancel()
            await asyncio.gather(*handlers, return_exceptions=True)
            for writer in handlers.values():
                writer.close()
        await server.wait_closed()


def _payload_spec_fingerprints(request: JobRequest) -> list[str]:
    """Name-insensitive fingerprints of every spec in the payload."""
    from ..io.json_codec import spec_from_dict
    from ..persist.checkpoint import spec_fingerprint

    fingerprints = []
    for key in ("service", "component", "converter"):
        doc = request.payload.get(key)
        if isinstance(doc, dict):
            try:
                fingerprints.append(spec_fingerprint(spec_from_dict(doc)))
            except ReproError:
                continue
    for key in ("components", "specs"):
        docs = request.payload.get(key)
        if isinstance(docs, list):
            for doc in docs:
                if isinstance(doc, dict):
                    try:
                        fingerprints.append(
                            spec_fingerprint(spec_from_dict(doc))
                        )
                    except ReproError:
                        continue
    return sorted(set(fingerprints))
