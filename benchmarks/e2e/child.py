"""One workload in a fresh process: set up, measure, or compute references.

Started by ``run.py`` with one JSON argument; prints one JSON line.

* ``setup``     — imports, input generation (and for ``serve-mix`` a
                  server start and stop); reports ``setup_s``.
* ``measure``   — the same set-up, then items until ``seconds`` run out
                  (or, with ``quick``, one pass over the items); reports
                  latencies, counts, peak memory, output digests and, when
                  traced, the per-layer account.
* ``reference`` — digests of the requested items on the labelled
                  reference path (``use_kernel(False)``).
* ``pool``      — the screened random problems of ``data/random-pool.json``.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402

# importing the library is part of set-up
import tracing  # noqa: E402
import workloads  # noqa: E402

#: closed-loop clients of ``serve-mix``, each waiting for its reply like
#: ``submit --wait``: one per CPU of the 2-CPU host the mix was sized on
CLIENTS = 2


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _outputs(workload, seen: dict[int, list[str]]) -> dict[str, list[str]]:
    """Digests grouped by the key of the item that produced them."""
    out: dict[str, list[str]] = {}
    for index, digests in seen.items():
        key = workloads.item_key(workload, workload.items[index])
        out.setdefault(key, []).extend(digests)
    return out


def measure_batch(workload, spec: dict, setup_s: float) -> dict:
    items = workload.items
    account = tracing.LayerAccount() if spec["trace"] else None
    latencies: list[float] = []
    seen: dict[int, list[str]] = {}
    mismatches: list[str] = []
    errors: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    last = 0.0
    while True:
        if spec["quick"]:
            if attempted == len(items):
                break
        elif attempted and time.perf_counter() - start + last > spec["seconds"]:
            # the next item would end past the budget
            break
        index = attempted % len(items)
        item = items[index]
        workload.before(item)
        attempted += 1
        try:
            if account is not None:
                output, last = tracing.traced_call(
                    account, lambda: workload.execute(item), start
                )
            else:
                t0 = time.perf_counter()
                output = workload.execute(item)
                last = time.perf_counter() - t0
        except Exception as exc:  # a failed item is counted, not fatal
            failed += 1
            errors.append(f"{item.label}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(last)
        digest, found = workload.digest(item, output)
        del output
        seen.setdefault(index, []).append(digest)
        mismatches.extend(found)
    result = {
        "setup_s": setup_s,
        "latencies_s": latencies,
        "attempted": attempted,
        "failed": failed,
        "completed": len(latencies),
        "item_s": sum(latencies),
        "loop_s": time.perf_counter() - start,
        "peak_rss_mb": _peak_rss_mb(),
        "outputs": _outputs(workload, seen),
        "problems": mismatches,
        "errors": errors[:5],
    }
    if account is not None:
        result["layer"] = account.metrics(account.items, account.item_s)
        result["layer"]["trace.unattributed_ratio"] = (
            account.unattributed_s / account.item_s if account.item_s else 0.0
        )
        if spec.get("chrome_trace"):
            with open(spec["chrome_trace"], "w", encoding="utf-8") as fh:
                json.dump(account.chrome_trace(), fh)
    return result


class Server:
    """An in-process ``DerivationServer`` (default settings: 2 workers,
    capacity 16) on a fresh store under *scratch*, in its own thread."""

    def __init__(self, scratch: str) -> None:
        import asyncio

        from repro.serve import DerivationServer, ServeClient

        self.root = tempfile.mkdtemp(prefix="serve-store-", dir=scratch)
        self.server = DerivationServer(self.root)
        ready = threading.Event()
        self.thread = threading.Thread(
            target=lambda: asyncio.run(
                self.server.run(ready=lambda s: ready.set())
            ),
            name="derivation-server",
        )
        self.thread.start()
        if not ready.wait(30):
            raise RuntimeError("derivation server did not come up")
        self.client = ServeClient("127.0.0.1", self.server.port)

    def close(self) -> None:
        """Drain the server, wait for its thread, delete its store."""
        try:
            if self.thread.is_alive():
                self.client.shutdown()
                self.thread.join(60)
                if self.thread.is_alive():
                    raise RuntimeError("derivation server did not drain")
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


def _serve_client(port: int, items, next_index, deadline: float,
                  quick: bool, jobs: list, lock) -> None:
    """One closed-loop client: submit, wait for the terminal state, repeat."""
    from repro.errors import ServeError
    from repro.serve import ServeClient

    client = ServeClient("127.0.0.1", port)
    while quick or time.perf_counter() < deadline:
        index = next_index()
        if index is None:
            return
        item = items[index]
        submitted = []
        for _ in range(2 if item.label == "twin" else 1):
            t0 = time.perf_counter()
            try:
                status, doc = client.submit(item.inputs)
            except (ServeError, OSError) as exc:
                status, doc = getattr(exc, "status", 0) or 0, {"error": str(exc)}
            submitted.append((t0, time.perf_counter(), status, doc))
        finals: dict[str, tuple[float, dict]] = {}
        for t0, answered, status, doc in submitted:
            job = doc.get("job") or {}
            record = {
                "index": index,
                "op": item.label,
                "status": status,
                "admit_s": answered - t0,
                "accepted_at": answered if status == 202 else None,
                "fingerprint": job.get("fingerprint"),
                "latency_s": answered - t0,
                "body": doc.get("result") if status == 200 else None,
                "error": doc.get("error"),
            }
            if status == 202:
                job_id = job["job_id"]
                if job_id not in finals:
                    try:
                        final = client.wait(job_id, timeout_s=120)
                    except (ServeError, OSError) as exc:
                        final = {"job": {"state": "failed"}, "error": str(exc)}
                    finals[job_id] = (time.perf_counter(), final)
                done_at, final = finals[job_id]
                record["latency_s"] = done_at - t0
                if final["job"]["state"] == "done":
                    record["body"] = final.get("result")
                else:
                    record["status"] = final["job"]["state"]
                    record["error"] = final["job"].get("error") or final.get("error")
            with lock:
                jobs.append(record)


def measure_serve(workload, spec: dict, setup_s: float, server: Server,
                  probe, collector) -> dict:
    lock = threading.Lock()
    cursor = iter(range(len(workload.items)))

    def next_index():
        with lock:
            return next(cursor, None)

    jobs: list[dict] = []
    start = time.perf_counter()
    clients = [
        threading.Thread(
            target=_serve_client,
            args=(server.server.port, workload.items, next_index,
                  start + spec["seconds"], spec["quick"], jobs, lock),
            name=f"client-{n}",
        )
        for n in range(CLIENTS)
    ]
    for t in clients:
        t.start()
    for t in clients:
        t.join()
    loop_s = time.perf_counter() - start
    counters = server.client.metrics()["counters"]
    server.close()

    ok = [j for j in jobs if j["body"] is not None]
    failed = [j for j in jobs if j["body"] is None]
    seen: dict[int, list[str]] = {}
    for j in ok:
        seen.setdefault(j["index"], []).append(workloads.sha256(j["body"]))
    result = {
        "setup_s": setup_s,
        "latencies_s": [j["latency_s"] for j in ok],
        "attempted": len(jobs),
        "failed": len(failed),
        "completed": len(ok),
        "item_s": sum(j["latency_s"] for j in ok),
        "loop_s": loop_s,
        "peak_rss_mb": _peak_rss_mb(),
        "outputs": _outputs(workload, seen),
        "problems": [],
        "errors": [f"{j['op']}: {j['status']} {j['error']}" for j in failed][:5],
        "server_counters": counters,
    }
    if probe is not None:
        layer, detail = probe.metrics(ok, loop_s, server.server.workers)
        account = tracing.LayerAccount()
        account.add_snapshot(collector.snapshot())
        layer.update(account.metrics(len(ok), result["item_s"]))
        hits = counters.get("serve.cache.hit", 0)
        misses = counters.get("serve.cache.miss", 0)
        n = max(len(jobs), 1)
        layer["serve.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        layer["serve.dedup.joined"] = counters.get("serve.dedup.joined", 0) / n
        layer["persist.store.io_attempts"] = counters.get("retry.attempts", 0) / n
        result["layer"] = layer
        result["detail"] = detail
    return result


def run_serve(workload, spec: dict) -> dict:
    from repro import obs

    probe = collector = None
    if spec["trace"] and spec["role"] == "measure":
        probe = tracing.ServeProbe()
        probe.install()
        # installed before the server starts, so the server records into it
        collector = tracing.ThreadStackCollector()
        obs.set_collector(collector)
    try:
        server = Server(spec["scratch"])
        setup_s = time.perf_counter() - STARTED
        try:
            if spec["role"] == "setup":
                return {"setup_s": setup_s}
            return measure_serve(workload, spec, setup_s, server, probe,
                                 collector)
        finally:
            server.close()
    finally:
        if probe is not None:
            probe.remove()
            obs.set_collector(obs.NULL)


def main() -> int:
    spec = json.loads(sys.argv[1])
    role = spec["role"]
    if role == "pool":
        result = {"problems": workloads.screen_pool()}
    elif role == "reference":
        from repro.spec import use_kernel

        workload = workloads.build(spec["workload"], spec["seed"], spec["quick"])
        wanted = set(spec["keys"]) if spec["keys"] is not None else None
        digests: dict[str, str] = {}
        with use_kernel(False):
            for item in workload.items:
                key = workloads.item_key(workload, item)
                if key in digests or (wanted is not None and key not in wanted):
                    continue
                digests[key] = workloads.reference_digest(workload, item)
        result = {"digests": digests}
    else:
        workload = workloads.build(spec["workload"], spec["seed"], spec["quick"])
        if spec["workload"] == "serve-mix":
            result = run_serve(workload, spec)
        elif role == "setup":
            result = {"setup_s": time.perf_counter() - STARTED}
        else:
            result = measure_batch(workload, spec,
                                   time.perf_counter() - STARTED)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
