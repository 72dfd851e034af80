"""repro.obs — zero-dependency observability for the quotient pipeline.

Spans (hierarchical wall-time intervals), counters, gauges, and instant
events, recorded by a pluggable collector and exported as a text tree,
JSON, or the Chrome ``trace_event`` format (``chrome://tracing`` /
Perfetto).

The default collector is a no-op, so instrumented code is effectively free
until a :class:`MetricsCollector` is installed::

    from repro import obs

    with obs.use_collector() as collector:
        solve_quotient(service, component)
    print(collector.snapshot().render_text())

Live progress streaming works the same way: install a
:class:`ProgressReporter` (:func:`use_reporter`) and the budget-charge
path emits rate-limited heartbeats while a solve runs (see
:mod:`repro.obs.progress`).

The persistent run ledger lives in :mod:`repro.obs.ledger`; import it
directly (``from repro.obs.ledger import Ledger``) — it builds on
:mod:`repro.persist` and is therefore not re-exported from this otherwise
standalone package.

See ``docs/observability.md`` for the full API, the metric name catalogue,
and how to read a solve trace.
"""

from .core import (
    NULL,
    Collector,
    EventRecord,
    MetricsCollector,
    MetricsSnapshot,
    NullCollector,
    SpanHandle,
    SpanRecord,
    ThreadSafeCollector,
    add,
    current_collector,
    event,
    gauge,
    set_collector,
    span,
    use_collector,
)
from .export import (
    attr_safe,
    render_metrics_text,
    render_text,
    snapshot_to_chrome_trace,
    snapshot_to_dict,
    snapshot_to_json,
    write_chrome_trace,
)
from .progress import (
    ProgressReporter,
    current_reporter,
    set_reporter,
    use_reporter,
)

__all__ = [
    "NULL",
    "Collector",
    "EventRecord",
    "MetricsCollector",
    "MetricsSnapshot",
    "NullCollector",
    "ProgressReporter",
    "SpanHandle",
    "SpanRecord",
    "ThreadSafeCollector",
    "add",
    "attr_safe",
    "current_collector",
    "current_reporter",
    "event",
    "gauge",
    "render_metrics_text",
    "render_text",
    "set_collector",
    "set_reporter",
    "snapshot_to_chrome_trace",
    "snapshot_to_dict",
    "snapshot_to_json",
    "span",
    "use_collector",
    "use_reporter",
    "write_chrome_trace",
]
