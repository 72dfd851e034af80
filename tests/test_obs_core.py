"""Unit tests for the observability core: spans, counters, collectors."""

from __future__ import annotations

import gc

import pytest

from repro import obs
from repro.gcpause import gc_paused
from repro.obs import MetricsCollector, NullCollector, SpanRecord, ThreadSafeCollector


class FakeClock:
    """A deterministic clock advancing by a fixed step per call."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


@pytest.fixture
def collector():
    """A recording collector installed for the duration of the test.

    The collector pause keeps automatic collections, whose ``gc.*``
    counters would land at random, out of the exact comparisons below.
    """
    with gc_paused(), obs.use_collector(
        MetricsCollector(clock=FakeClock())
    ) as active:
        yield active


class TestNullCollector:
    def test_default_collector_is_null(self):
        assert isinstance(obs.current_collector(), NullCollector)
        assert not obs.current_collector().recording

    def test_span_returns_shared_noop_handle(self):
        first = obs.span("a", attr=1)
        second = obs.span("b")
        assert first is second  # no allocation on the disabled path
        with first as sp:
            sp.set(anything="ignored")

    def test_add_and_gauge_are_noops(self):
        obs.add("counter", 5)
        obs.gauge("gauge", 7)


class TestSpans:
    def test_nesting_builds_parent_links(self, collector):
        with obs.span("root"):
            with obs.span("child"):
                with obs.span("grandchild"):
                    pass
            with obs.span("sibling"):
                pass
        snap = collector.snapshot()
        by_name = {s.name: s for s in snap.spans}
        assert by_name["root"].parent is None
        assert by_name["child"].parent == by_name["root"].index
        assert by_name["grandchild"].parent == by_name["child"].index
        assert by_name["sibling"].parent == by_name["root"].index
        assert snap.children_of(by_name["root"].index) == (
            by_name["child"],
            by_name["sibling"],
        )

    def test_timing_is_monotonic_and_nested(self, collector):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        snap = collector.snapshot()
        outer, inner = snap.find("outer")[0], snap.find("inner")[0]
        assert outer.start <= inner.start
        assert inner.end is not None and outer.end is not None
        assert inner.start <= inner.end <= outer.end
        assert outer.duration >= inner.duration > 0

    def test_attrs_at_open_and_via_set(self, collector):
        with obs.span("work", size=3) as sp:
            sp.set(result="ok", extra=7)
        (record,) = collector.snapshot().find("work")
        assert record.attrs == {"size": 3, "result": "ok", "extra": 7}

    def test_open_span_has_zero_duration(self, collector):
        collector.span_start("never_closed")
        (record,) = collector.snapshot().find("never_closed")
        assert record.end is None
        assert record.duration == 0.0

    def test_out_of_order_end_unwinds_stack(self, collector):
        outer = collector.span_start("outer")
        collector.span_start("inner")
        collector.span_end(outer)  # ends outer while inner is still open
        after = collector.span_start("after")
        assert collector.spans[after].parent is None

    def test_exception_still_closes_span(self, collector):
        with pytest.raises(RuntimeError):
            with obs.span("failing"):
                raise RuntimeError("boom")
        (record,) = collector.snapshot().find("failing")
        assert record.end is not None

    def test_thread_safe_collector_records_no_spans(self):
        with obs.use_collector(ThreadSafeCollector()) as active:
            first = obs.span("a", attr=1)
            with first as sp, obs.span("b"):
                sp.set(ignored=True)
                obs.add("n")
                obs.gauge("g", 2)
                obs.event("e")
        assert first is obs.span("c")  # the shared no-op handle
        snap = active.snapshot()
        assert snap.spans == ()
        assert (snap.counters, snap.gauges) == ({"n": 1}, {"g": 2})
        assert [e.name for e in snap.events] == ["e"]


class TestCountersAndGauges:
    def test_counters_accumulate(self, collector):
        obs.add("pairs")
        obs.add("pairs", 4)
        obs.add("other", 2.5)
        snap = collector.snapshot()
        assert snap.counters == {"pairs": 5, "other": 2.5}

    def test_gauges_last_write_wins(self, collector):
        obs.gauge("states", 10)
        obs.gauge("states", 3)
        assert collector.snapshot().gauges == {"states": 3}

    def test_ops_counts_every_call(self, collector):
        before = collector.ops
        with obs.span("s"):
            obs.add("c")
            obs.gauge("g", 1)
        # span_start + add + gauge + span_end
        assert collector.ops == before + 4


class TestCollectorManagement:
    def test_use_collector_restores_previous(self):
        outer = obs.current_collector()
        with obs.use_collector() as active:
            assert obs.current_collector() is active
            with obs.use_collector() as nested:
                assert obs.current_collector() is nested
            assert obs.current_collector() is active
        assert obs.current_collector() is outer

    def test_set_collector_returns_previous(self):
        mine = MetricsCollector()
        previous = obs.set_collector(mine)
        try:
            assert obs.current_collector() is mine
        finally:
            assert obs.set_collector(previous) is mine

    def test_snapshot_is_frozen(self, collector):
        with obs.span("before"):
            obs.add("n")
        snap = collector.snapshot()
        with obs.span("after"):
            obs.add("n", 10)
        assert snap.counters == {"n": 1}
        assert len(snap.find("after")) == 0
        assert len(collector.snapshot().find("after")) == 1

    def test_find_returns_spans_in_start_order(self, collector):
        for _ in range(3):
            with obs.span("loop"):
                pass
        found = collector.snapshot().find("loop")
        assert [s.name for s in found] == ["loop"] * 3
        assert [s.start for s in found] == sorted(s.start for s in found)


class TestSpanRecord:
    def test_duration_property(self):
        record = SpanRecord(index=0, name="x", parent=None, start=1.0, end=3.5)
        assert record.duration == 2.5


class TestNestedCollectors:
    """use_collector must compose: nested and re-entrant scopes are legal.

    The resilience sweep records per-cell solves while the CLI records the
    whole run, so a collector is routinely installed inside another one.
    """

    def test_nested_collectors_record_independently(self):
        outer = MetricsCollector()
        inner = MetricsCollector()
        with obs.use_collector(outer):
            obs.add("n", 1)
            with obs.use_collector(inner):
                obs.add("n", 10)
                obs.event("inner.only")
            obs.add("n", 1)
        assert outer.counters["n"] == 2
        assert inner.counters["n"] == 10
        assert [e.name for e in inner.events] == ["inner.only"]
        assert outer.events == []
        assert isinstance(obs.current_collector(), NullCollector)

    def test_reentrant_same_collector(self):
        collector = MetricsCollector()
        with obs.use_collector(collector):
            obs.add("n", 1)
            with obs.use_collector(collector):
                obs.add("n", 1)
                with obs.use_collector(collector):
                    obs.add("n", 1)
            obs.add("n", 1)
        assert collector.counters["n"] == 4
        assert isinstance(obs.current_collector(), NullCollector)

    def test_spans_survive_nested_scope_of_another_collector(self):
        outer = MetricsCollector(clock=FakeClock())
        with obs.use_collector(outer):
            with obs.span("outer.work"):
                with obs.use_collector(MetricsCollector()):
                    with obs.span("inner.work"):
                        pass
        names = [s.name for s in outer.snapshot().spans]
        assert names == ["outer.work"]

    def test_inner_exception_restores_outer(self):
        outer = MetricsCollector()
        with obs.use_collector(outer):
            with pytest.raises(RuntimeError):
                with obs.use_collector(MetricsCollector()):
                    raise RuntimeError("boom")
            assert obs.current_collector() is outer
            obs.add("after", 1)
        assert outer.counters["after"] == 1


class TestEvents:
    def test_events_record_name_time_attrs(self):
        collector = MetricsCollector(clock=FakeClock())
        with obs.use_collector(collector):
            obs.event("checkpoint.write", path="x.ckpt")
            obs.event("interrupt", reason="sigint")
        snap = collector.snapshot()
        assert [e.name for e in snap.events] == ["checkpoint.write", "interrupt"]
        assert snap.events[0].attrs == {"path": "x.ckpt"}
        assert snap.events[0].ts < snap.events[1].ts

    def test_event_is_noop_without_collector(self):
        obs.event("nobody.listening", detail=1)  # must not raise

    def test_events_count_toward_ops(self):
        collector = MetricsCollector()
        with obs.use_collector(collector):
            obs.event("e")
        assert collector.ops == 1


class TestGcCounters:
    def test_forced_collections_are_counted(self):
        with obs.use_collector() as collector:
            gc.collect(0)
            gc.collect(2)
        counters = collector.snapshot().counters
        assert counters["gc.collections.gen0"] >= 1
        assert counters["gc.collections.gen2"] >= 1
        assert counters["gc.collect_ms"] > 0
        assert collector.ops == 0  # not instrumentation calls

    def test_hook_is_registered_only_while_recording(self):
        before = list(gc.callbacks)
        with obs.use_collector():
            with obs.use_collector():
                assert len(gc.callbacks) == len(before) + 1
            assert len(gc.callbacks) == len(before) + 1
        assert gc.callbacks == before
