"""Per-layer accounting for ``--trace`` runs.

Batch workloads: the program already emits a span tree (the names
``--profile`` prints).  Each item runs under its own collector; a span's
*self time* is its duration minus its children's, and self times are
summed per layer.  The time an item spends outside every root span is the
share no layer accounts for.

Serve workload: the server emits counters but no spans of its own, so the
bench wraps public methods from outside (:class:`ServeProbe`) and records
the solve spans its worker threads emit with a collector that keeps one
span stack per thread (:class:`ThreadStackCollector`).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from stats import percentile

from repro import obs
from repro.obs.core import MetricsSnapshot, SpanRecord, ThreadSafeCollector

#: span name -> the layer its self time is charged to
LAYER_OF_SPAN = {
    "preflight": "lint.preflight",
    "deep_preflight": "lint.preflight",
    "solve_quotient": "quotient.solve",
    "finalize": "quotient.solve.finalize",
    "safety_phase": "quotient.safety_phase",
    "progress_phase": "quotient.progress_phase",
    "progress_round": "quotient.progress_phase",
    "tau_star": "quotient.progress_phase",
    "compose": "compose",
    "compose_many": "compose",
    "satisfies": "satisfy",
    "satisfy.safety": "satisfy",
    "satisfy.progress": "satisfy",
    "verify": "satisfy",
    "resilience": "faults.resilience",
    "resilience.cell": "faults.resilience.cell",
}

#: per-layer metric name -> layer, for the self times reported in ms/item
LAYER_MS_METRICS = {
    "lint.preflight_ms": "lint.preflight",
    "quotient.solve.self_ms": "quotient.solve",
    "quotient.solve.finalize_ms": "quotient.solve.finalize",
    "quotient.safety_phase.self_ms": "quotient.safety_phase",
    "quotient.progress_phase.self_ms": "quotient.progress_phase",
    "compose.self_ms": "compose",
    "satisfy.self_ms": "satisfy",
}

#: counters reported per item, under their own names
COUNTER_METRICS = (
    "compose.reachable_states",
    "quotient.safety.pairs_explored",
    "quotient.progress.pairs_checked",
    "faults.cells",
)

#: a Chrome trace keeps at most this many spans (the first items' worth)
CHROME_SPAN_CAP = 50_000


def self_times(spans) -> tuple[dict[str, float], float]:
    """``(self seconds per layer, seconds covered by root spans)``.

    Spans whose name maps to no layer are charged under their own name,
    so they still count as accounted for.
    """
    child_total: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] += s.duration
    by_layer: dict[str, float] = defaultdict(float)
    roots = 0.0
    for s in spans:
        own = s.duration - child_total.get(s.index, 0.0)
        by_layer[LAYER_OF_SPAN.get(s.name, s.name)] += own
        if s.parent is None:
            roots += s.duration
    return by_layer, roots


class LayerAccount:
    """Self times, counters and item times summed over a traced run."""

    def __init__(self) -> None:
        self.layers: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.items = 0
        self.item_s = 0.0
        self.unattributed_s = 0.0
        self._chrome: list[SpanRecord] = []

    def add_snapshot(self, snapshot: MetricsSnapshot) -> float:
        """Charge *snapshot*'s self times and counters; returns the
        seconds its root spans cover."""
        by_layer, roots = self_times(snapshot.spans)
        for layer, seconds in by_layer.items():
            self.layers[layer] += seconds
        for name, value in snapshot.counters.items():
            self.counters[name] += value
        return roots

    def add_item(self, snapshot: MetricsSnapshot, wall_s: float,
                 offset_s: float) -> None:
        """Charge one item's snapshot, timed at *wall_s* seconds and
        started *offset_s* seconds into the run."""
        roots = self.add_snapshot(snapshot)
        self.items += 1
        self.item_s += wall_s
        self.unattributed_s += max(0.0, wall_s - roots)
        if len(self._chrome) + len(snapshot.spans) <= CHROME_SPAN_CAP:
            base = len(self._chrome)
            for s in snapshot.spans:
                self._chrome.append(
                    SpanRecord(
                        base + s.index,
                        s.name,
                        None if s.parent is None else base + s.parent,
                        s.start + offset_s,
                        None if s.end is None else s.end + offset_s,
                        dict(s.attrs),
                    )
                )

    def chrome_trace(self) -> dict:
        merged = MetricsSnapshot(
            spans=tuple(self._chrome), counters=dict(self.counters), gauges={}
        )
        return merged.to_chrome_trace()

    def metrics(self, items: int, item_s: float) -> dict[str, float]:
        """The batch-layer per-layer metrics, normalised per item.

        ``items``/``item_s`` are the items completed and the summed item
        time they are measured against (for batch runs, ``self.items`` and
        ``self.item_s``; for the served run, jobs and summed job latency).
        """
        n = max(items, 1)
        out = {
            name: self.layers.get(layer, 0.0) * 1e3 / n
            for name, layer in LAYER_MS_METRICS.items()
        }
        for name in COUNTER_METRICS:
            out[name] = self.counters.get(name, 0.0) / n
        c = self.counters
        out["compose.reachable_ratio"] = _ratio(
            c.get("compose.reachable_states", 0.0),
            c.get("compose.product_states", 0.0),
        )
        out["spec.compiled.cache_hit_ratio"] = _ratio(
            c.get("kernel.cache_hits", 0.0),
            c.get("kernel.cache_hits", 0.0) + c.get("kernel.cache_misses", 0.0),
        )
        out["quotient.kernel.problem_cache_hit_ratio"] = _ratio(
            c.get("kernel.problem_cache_hits", 0.0),
            c.get("kernel.problem_cache_hits", 0.0)
            + c.get("kernel.problem_cache_misses", 0.0),
        )
        out["faults.resilience.cell_self_share"] = _ratio(
            self.layers.get("faults.resilience.cell", 0.0), item_s
        )
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class ThreadStackCollector(ThreadSafeCollector):
    """A thread-safe collector that parents spans per thread.

    :class:`ThreadSafeCollector` keeps one span stack for all threads, so
    spans from the server's two worker threads would nest inside each
    other.  Here each thread has its own stack; spans still land in one
    list, so the server's ``/metrics`` reads the same counters.
    """

    def __init__(self) -> None:
        super().__init__()
        self._local = threading.local()

    def _thread_stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_start(self, name, attrs=None) -> int:
        stack = self._thread_stack()
        with self._lock:
            self.ops += 1
            index = len(self.spans)
            self.spans.append(
                SpanRecord(index, name, stack[-1] if stack else None,
                           self._now(), attrs=dict(attrs or {}))
            )
        stack.append(index)
        return index

    def span_end(self, index, attrs=None) -> None:
        with self._lock:
            self.ops += 1
            record = self.spans[index]
            if attrs:
                record.attrs.update(attrs)
            record.end = self._now()
        stack = self._thread_stack()
        while stack:
            if stack.pop() == index:
                break


class ServeProbe:
    """Times the server's layers by wrapping public methods from outside.

    * ``WorkerSupervisor.run_job`` — entry time per fingerprint, duration;
    * ``ResultStore.save_job`` / ``put_result`` / ``save_state`` — store
      index writes;
    * ``repro.serve.app.append_run`` — run-ledger appends.

    :meth:`install` patches, :meth:`remove` restores.
    """

    STORE_METHODS = ("save_job", "put_result", "save_state")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.run_start: dict[str, float] = {}
        self.run_s: list[float] = []
        self.worker_done: dict[str, float] = {}
        self.store_s: list[float] = []
        self.ledger_s: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        from repro.serve import app
        from repro.serve.store_index import ResultStore
        from repro.serve.workers import WorkerSupervisor

        probe = self
        run_job = WorkerSupervisor.run_job

        def timed_run_job(supervisor, request, store, *, fingerprint, **kw):
            start = time.perf_counter()
            probe._local.fingerprint = fingerprint
            with probe._lock:
                probe.run_start.setdefault(fingerprint, start)
            try:
                return run_job(supervisor, request, store,
                               fingerprint=fingerprint, **kw)
            finally:
                with probe._lock:
                    probe.run_s.append(time.perf_counter() - start)

        self._patch(WorkerSupervisor, "run_job", timed_run_job)

        for method in self.STORE_METHODS:
            self._patch(ResultStore, method,
                        self._timed(getattr(ResultStore, method),
                                    self.store_s))

        append_run = app.append_run

        def timed_append_run(*args, **kw):
            start = time.perf_counter()
            try:
                return append_run(*args, **kw)
            finally:
                end = time.perf_counter()
                with probe._lock:
                    probe.ledger_s.append(end - start)
                    # the worker thread's append closes that job's work
                    mine = getattr(probe._local, "fingerprint", None)
                    if mine is not None and mine == kw.get("fingerprint"):
                        probe.worker_done[mine] = end

        self._patch(app, "append_run", timed_append_run)

    def _timed(self, fn, sink: list[float]):
        probe = self

        def timed(*args, **kw):
            start = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                with probe._lock:
                    sink.append(time.perf_counter() - start)

        return timed

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def metrics(self, jobs: list[dict], wall_s: float,
                workers: int) -> tuple[dict[str, float], dict[str, float]]:
        """``(per-layer metrics, per-call detail)`` of the served run.

        *jobs* are the client's records: ``latency_s``, ``admit_s``,
        ``accepted_at`` (client clock when the 202 arrived, else ``None``)
        and ``fingerprint``.  Queue wait runs from the 202 reply to the
        first ``run_job`` entry for that fingerprint.
        """
        latency = admit = waited = worker = 0.0
        waits: list[float] = []
        latencies: list[float] = []
        for job in jobs:
            lat = job["latency_s"]
            latencies.append(lat)
            latency += lat
            admit += job["admit_s"]
            accepted = job["accepted_at"]
            if accepted is None:
                continue
            fp = job["fingerprint"]
            start = self.run_start.get(fp)
            done = self.worker_done.get(fp)
            left = max(0.0, lat - job["admit_s"])
            wait = 0.0 if start is None else min(left, max(0.0, start - accepted))
            waits.append(wait)
            waited += wait
            if done is not None:
                begin = max(accepted, start if start is not None else accepted)
                worker += min(left - wait, max(0.0, done - begin))
        n = max(len(jobs), 1)
        busy = max(wall_s * workers, 1e-9)
        layer = {
            "serve.app.admit_share": _ratio(admit, latency),
            "serve.queue.wait_share": _ratio(waited, latency),
            "serve.queue.wait_p95_share": _ratio(
                _pct(waits, 95), _pct(latencies, 95)
            ),
            "serve.workers.busy_ratio": sum(self.run_s) / busy,
            "serve.store_index.busy_ratio": sum(self.store_s) / busy,
            "serve.store_index.writes": len(self.store_s) / n,
            "obs.ledger.busy_ratio": sum(self.ledger_s) / busy,
            "trace.unattributed_ratio": _ratio(
                max(0.0, latency - admit - waited - worker), latency
            ),
        }
        detail = {
            "serve.app.admit_ms_p50": _pct([j["admit_s"] for j in jobs], 50) * 1e3,
            "serve.queue.wait_ms_p50": _pct(waits, 50) * 1e3,
            "serve.queue.wait_ms_p95": _pct(waits, 95) * 1e3,
            "serve.workers.run_job_ms_p50": _pct(self.run_s, 50) * 1e3,
            "serve.workers.busy_s": sum(self.run_s),
            "serve.store_index.write_ms_p50": _pct(self.store_s, 50) * 1e3,
            "serve.store_index.busy_s": sum(self.store_s),
            "obs.ledger.append_ms_p50": _pct(self.ledger_s, 50) * 1e3,
            "obs.ledger.busy_s": sum(self.ledger_s),
        }
        return layer, detail


def _pct(values, q: float) -> float:
    return percentile(values, q) if values else 0.0


def traced_call(account: LayerAccount, fn, run_epoch: float):
    """Run *fn* under a fresh collector; charge its spans to *account*.

    Returns ``(value, wall seconds)``.
    """
    collector = obs.MetricsCollector()
    start = time.perf_counter()
    with obs.use_collector(collector):
        value = fn()
    wall = time.perf_counter() - start
    account.add_item(collector.snapshot(), wall, start - run_epoch)
    return value, wall

