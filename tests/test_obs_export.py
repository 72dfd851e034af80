"""Golden-file tests for the observability exporters.

A deterministic snapshot (fake clock: 1 ms per reading) is rendered
through every exporter and compared byte-for-byte against the stored
goldens.  To regenerate after an intentional format change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_export.py

— and describe the change in docs/observability.md.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import obs
from repro.gcpause import gc_paused
from repro.obs import MetricsCollector
from repro.obs.export import attr_safe, write_chrome_trace

GOLDEN = Path(__file__).resolve().parent / "golden"
UPDATE = bool(os.environ.get("REPRO_UPDATE_GOLDEN"))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        value = self.now
        self.now += 0.001
        return value


def _deterministic_snapshot():
    """A small but representative solve-shaped span tree."""
    collector = MetricsCollector(clock=FakeClock())
    # an automatic collection in here would add gc.* counters at random
    with gc_paused(), obs.use_collector(collector):
        with obs.span("solve_quotient", service="S", component="B") as sp:
            with obs.span("safety_phase") as safety:
                obs.add("quotient.safety.pairs_explored", 9)
                obs.gauge("quotient.safety.c0_states", 4)
                safety.set(exists=True)
            with obs.span("progress_phase"):
                with obs.span("progress_round", round=0):
                    obs.add("quotient.progress.pairs_checked", 6)
                obs.add("quotient.progress.rounds", 1)
                obs.gauge("quotient.progress.final_states", 4)
            obs.event("checkpoint.write", path="run.ckpt", phase="progress")
            obs.event("budget.exceeded", phase="progress", limit="max_pairs")
            sp.set(exists=True)
        collector.span_start("left_open")
    return collector.snapshot()


def _check_golden(name: str, rendered: str) -> None:
    path = GOLDEN / name
    if UPDATE:
        path.write_text(rendered, encoding="utf-8")
    assert path.exists(), f"missing golden {path}; regenerate (see module docstring)"
    assert rendered == path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def snapshot():
    return _deterministic_snapshot()


class TestTextRendering:
    def test_profile_tree_golden(self, snapshot):
        _check_golden("obs_profile.txt", snapshot.render_text() + "\n")

    def test_metrics_text_golden(self, snapshot):
        _check_golden("obs_metrics.txt", snapshot.render_metrics_text() + "\n")

    def test_open_span_is_marked(self, snapshot):
        assert "(open)" in snapshot.render_text()

    def test_empty_snapshot_renders_placeholder(self):
        empty = MetricsCollector(clock=FakeClock()).snapshot()
        assert empty.render_text() == "(no telemetry recorded)"
        assert empty.render_metrics_text() == "(no metrics recorded)"


class TestJsonExport:
    def test_json_golden(self, snapshot):
        _check_golden("obs_snapshot.json", snapshot.to_json() + "\n")

    def test_dict_shape(self, snapshot):
        payload = snapshot.to_dict()
        assert payload["version"] == 1
        assert [s["name"] for s in payload["spans"]][0] == "solve_quotient"
        roots = [s for s in payload["spans"] if s["parent"] is None]
        assert {s["name"] for s in roots} == {"solve_quotient", "left_open"}
        for s in payload["spans"]:
            assert s["duration_ms"] >= 0
        assert payload["counters"]["quotient.safety.pairs_explored"] == 9
        assert payload["gauges"]["quotient.progress.final_states"] == 4

    def test_json_round_trips(self, snapshot):
        assert json.loads(snapshot.to_json()) == snapshot.to_dict()


class TestChromeTrace:
    def test_trace_golden(self, snapshot, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(snapshot, str(path))
        _check_golden("obs_trace.json", path.read_text(encoding="utf-8"))

    def test_trace_event_structure(self, snapshot):
        doc = snapshot.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} <= {"M", "X", "C", "i"}
        assert events[0]["ph"] == "M"  # process metadata first
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(snapshot.spans)
        for e in complete:
            assert isinstance(e["ts"], int) and isinstance(e["dur"], int)
            assert e["pid"] == 1 and e["tid"] == 1
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == len(snapshot.counters) + len(snapshot.gauges)

    def test_instant_events(self, snapshot):
        instants = [
            e for e in snapshot.to_chrome_trace()["traceEvents"]
            if e["ph"] == "i"
        ]
        assert [e["name"] for e in instants] == [
            "checkpoint.write", "budget.exceeded",
        ]
        for e in instants:
            assert e["s"] == "g"  # global scope: visible across the track
            assert isinstance(e["ts"], int)
            assert e["pid"] == 1 and e["tid"] == 1
        assert instants[0]["args"] == {"path": "run.ckpt", "phase": "progress"}


class TestAttrSafe:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "s"):
            assert attr_safe(value) == value

    def test_sets_sorted_deterministically(self):
        assert attr_safe({3, 1, 2}) == [1, 2, 3]
        assert attr_safe(frozenset({"b", "a"})) == ["a", "b"]

    def test_nested_containers(self):
        assert attr_safe((1, [2, {"k": {4, 3}}])) == [1, [2, {"k": [3, 4]}]]

    def test_dict_keys_stringified_and_sorted(self):
        assert attr_safe({2: "b", 1: "a"}) == {"1": "a", "2": "b"}

    def test_fallback_is_repr(self):
        class Weird:
            def __repr__(self) -> str:
                return "<weird>"

        assert attr_safe(Weird()) == "<weird>"
