"""Core instrumentation primitives: spans, counters, gauges, collectors.

The observability layer is deliberately **zero-dependency and standalone**
(it imports nothing from the rest of :mod:`repro`), so every other module
can instrument itself without creating import cycles.

Design
------
A module-level *current collector* receives all telemetry.  The default is
:data:`NULL` — a :class:`NullCollector` whose every method is a no-op — so
instrumented code pays only a global read and an attribute check when
observability is off.  Install a :class:`MetricsCollector` (usually via the
:func:`use_collector` context manager) to record:

* **spans** — named, nested wall-time intervals with arbitrary attributes
  (``with span("safety_phase") as sp: ...; sp.set(states=n)``);
* **counters** — monotonically accumulated values (``add("pairs", 120)``);
* **gauges** — last-write-wins values (``gauge("c0.states", 14)``);
* **events** — timestamped point occurrences (``event("budget.exceeded",
  phase="safety")``), rendered as instant marks on the trace timeline.

:meth:`MetricsCollector.snapshot` freezes the recorded data into a
:class:`MetricsSnapshot`, which renders as a text tree, JSON, or the Chrome
``trace_event`` format (see :mod:`repro.obs.export`).

The clock is injectable (``MetricsCollector(clock=...)``) so exporter
output can be made deterministic in tests.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Union


@dataclass
class SpanRecord:
    """One recorded span: a named wall-time interval in the span tree.

    ``start``/``end`` are seconds relative to the collector's epoch
    (``end`` is ``None`` while the span is open).  ``parent`` is the index
    of the enclosing span in the collector's flat span list, or ``None``
    for roots.
    """

    index: int
    name: str
    parent: int | None
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start


@dataclass(frozen=True)
class EventRecord:
    """One instant event: a named point in time with attributes.

    ``ts`` is seconds relative to the collector's epoch, like span
    timestamps.  Events mark moments rather than intervals — a budget
    trip, a checkpoint write, a cooperative interrupt — and render as
    instant (``"ph": "i"``) marks on the Chrome-trace timeline.
    """

    name: str
    ts: float
    attrs: Mapping[str, Any] = field(default_factory=dict)


class NullCollector:
    """The default collector: records nothing, costs (almost) nothing."""

    recording = False

    def span_start(self, name: str, attrs: Mapping[str, Any] | None = None) -> int:
        return -1

    def span_end(self, index: int, attrs: Mapping[str, Any] | None = None) -> None:
        pass

    def add(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def event(self, name: str, attrs: Mapping[str, Any] | None = None) -> None:
        pass


NULL = NullCollector()

Collector = Union[NullCollector, "MetricsCollector"]


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable view of everything a collector recorded.

    ``spans`` is the flat span list in start order (tree structure via
    ``SpanRecord.parent``); ``counters`` and ``gauges`` are name → value
    maps.  Rendering methods delegate to :mod:`repro.obs.export`.
    """

    spans: tuple[SpanRecord, ...]
    counters: Mapping[str, float]
    gauges: Mapping[str, float]
    events: tuple[EventRecord, ...] = ()

    def children_of(self, parent: int | None) -> tuple[SpanRecord, ...]:
        return tuple(s for s in self.spans if s.parent == parent)

    def find(self, name: str) -> tuple[SpanRecord, ...]:
        """All spans with the given name, in start order."""
        return tuple(s for s in self.spans if s.name == name)

    def to_dict(self) -> dict[str, Any]:
        from .export import snapshot_to_dict

        return snapshot_to_dict(self)

    def to_json(self, *, indent: int | None = 2) -> str:
        from .export import snapshot_to_json

        return snapshot_to_json(self, indent=indent)

    def to_chrome_trace(self) -> dict[str, Any]:
        from .export import snapshot_to_chrome_trace

        return snapshot_to_chrome_trace(self)

    def render_text(self) -> str:
        from .export import render_text

        return render_text(self)

    def render_metrics_text(self) -> str:
        from .export import render_metrics_text

        return render_metrics_text(self)


class MetricsCollector:
    """A recording collector: span tree, counters, gauges.

    Not thread-safe: one collector observes one single-threaded run (the
    library itself is single-threaded).  ``ops`` counts every call received,
    so tests can bound the instrumentation volume of a workload.
    """

    recording = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.events: list[EventRecord] = []
        self.ops = 0
        self._stack: list[int] = []

    def _now(self) -> float:
        return self._clock() - self._epoch

    # ------------------------------------------------------------------
    def span_start(self, name: str, attrs: Mapping[str, Any] | None = None) -> int:
        self.ops += 1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            SpanRecord(index, name, parent, self._now(), attrs=dict(attrs or {}))
        )
        self._stack.append(index)
        return index

    def span_end(self, index: int, attrs: Mapping[str, Any] | None = None) -> None:
        self.ops += 1
        record = self.spans[index]
        if attrs:
            record.attrs.update(attrs)
        record.end = self._now()
        # tolerate out-of-order ends: unwind to (and including) this span
        while self._stack:
            top = self._stack.pop()
            if top == index:
                break

    def add(self, name: str, value: float = 1) -> None:
        self.ops += 1
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.ops += 1
        self.gauges[name] = value

    def event(self, name: str, attrs: Mapping[str, Any] | None = None) -> None:
        self.ops += 1
        self.events.append(EventRecord(name, self._now(), dict(attrs or {})))

    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current state (open spans keep ``end=None``)."""
        spans = tuple(
            SpanRecord(s.index, s.name, s.parent, s.start, s.end, dict(s.attrs))
            for s in self.spans
        )
        return MetricsSnapshot(
            spans=spans,
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            events=tuple(self.events),
        )


class ThreadSafeCollector(MetricsCollector):
    """A :class:`MetricsCollector` whose mutations are lock-protected.

    The plain collector observes one single-threaded run; the serve layer
    (:mod:`repro.serve`) instead runs jobs on worker threads that all
    report into the server's one collector, where the unlocked
    read-modify-write of ``add`` would drop increments.  It keeps
    counters, gauges, and events, and records no spans: concurrent spans
    would interleave in one stack, and a long-lived server would keep
    every one.  :func:`span` hands back the no-op handle for it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__(clock)
        self._lock = threading.Lock()

    def span_start(self, name: str, attrs: Mapping[str, Any] | None = None) -> int:
        return -1

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            super().add(name, value)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            super().gauge(name, value)

    def event(self, name: str, attrs: Mapping[str, Any] | None = None) -> None:
        with self._lock:
            super().event(name, attrs)

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return super().snapshot()


# ----------------------------------------------------------------------
# the module-level current collector and the instrumentation facade
# ----------------------------------------------------------------------
_collector: Collector = NULL


def current_collector() -> Collector:
    """The collector receiving telemetry right now (default: :data:`NULL`)."""
    return _collector


def set_collector(collector: Collector) -> Collector:
    """Install *collector* globally; returns the previous one.

    While the installed collector is recording, a :data:`gc.callbacks`
    hook counts the cyclic collector's work into it (see
    :func:`_count_collection`); with the null collector it is removed, so
    an unobserved process pays nothing per collection.
    """
    global _collector
    previous = _collector
    _collector = collector
    hooked = _count_collection in gc.callbacks
    if collector.recording and not hooked:
        gc.callbacks.append(_count_collection)
    elif hooked and not collector.recording:
        gc.callbacks.remove(_count_collection)
    return previous


#: ``gc.collections.gen<generation>`` by generation, formatted once.
_GC_COUNTERS = tuple(f"gc.collections.gen{g}" for g in range(3))
_gc_started: float | None = None


def _count_collection(phase: str, info: dict[str, int]) -> None:
    """The :data:`gc.callbacks` hook: count one collection and its pause.

    Adds ``gc.collections.gen<generation>`` and ``gc.collect_ms`` to the
    current collector.  It writes the counter map directly instead of
    calling ``add``: a collection can start inside a
    :class:`ThreadSafeCollector` method that holds its lock, and the
    interpreter runs one collection (both phases) at a time, so only this
    hook ever updates these two names.  Their values depend on the
    interpreter's allocation pattern, so :func:`repro.obs.ledger.
    flatten_work` keeps them out of the deterministic work map.
    """
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
        return
    collector = _collector
    started, _gc_started = _gc_started, None
    if started is None or not isinstance(collector, MetricsCollector):
        return
    counters = collector.counters
    name = _GC_COUNTERS[info["generation"]]
    counters[name] = counters.get(name, 0) + 1
    counters["gc.collect_ms"] = (
        counters.get("gc.collect_ms", 0)
        + (time.perf_counter() - started) * 1000.0
    )


@contextmanager
def use_collector(
    collector: MetricsCollector | None = None,
) -> Iterator[MetricsCollector]:
    """Scope a recording collector: installed on entry, restored on exit.

    Creates a fresh :class:`MetricsCollector` when none is given.
    """
    active = collector if collector is not None else MetricsCollector()
    previous = set_collector(active)
    try:
        yield active
    finally:
        set_collector(previous)


class _NoopSpan:
    """Shared do-nothing span handle returned while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _Span:
    """Live span handle: context manager plus late attribute setting."""

    __slots__ = ("_collector", "_index")

    def __init__(self, collector: MetricsCollector, index: int) -> None:
        self._collector = collector
        self._index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc: object) -> bool:
        self._collector.span_end(self._index)
        return False

    def set(self, **attrs: Any) -> None:
        self._collector.spans[self._index].attrs.update(attrs)


SpanHandle = Union[_NoopSpan, _Span]


def span(name: str, **attrs: Any) -> SpanHandle:
    """Open a span under the current collector.

    Usage::

        with obs.span("safety_phase", service=name) as sp:
            ...
            sp.set(states=len(states))

    With the null collector, or one that records no spans (``span_start``
    returns ``-1``), this returns a shared no-op handle.
    """
    collector = _collector
    if not collector.recording:
        return _NOOP_SPAN
    index = collector.span_start(name, attrs)
    if index < 0:
        return _NOOP_SPAN
    return _Span(collector, index)


def add(name: str, value: float = 1) -> None:
    """Increment counter *name* by *value* on the current collector."""
    collector = _collector
    if collector.recording:
        collector.add(name, value)


def gauge(name: str, value: float) -> None:
    """Set gauge *name* to *value* on the current collector."""
    collector = _collector
    if collector.recording:
        collector.gauge(name, value)


def event(name: str, **attrs: Any) -> None:
    """Record instant event *name* on the current collector."""
    collector = _collector
    if collector.recording:
        collector.event(name, attrs)

