"""Integration tests: the instrumented pipeline under a recording collector.

Covers what a solve records into the installed collector, the counters
emitted by the quotient phases / composition / simulator,
phase_counters(), and the no-op overhead bound of the disabled
instrumentation path.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.compose import compose, compose_many
from repro.obs import MetricsCollector
from repro.protocols import (
    ab_channel,
    ab_receiver,
    ab_sender,
    colocated_scenario,
    symmetric_scenario,
)
from repro.quotient import solve_quotient
from repro.simulate import RandomPolicy, Simulator


@pytest.fixture
def colocated():
    return colocated_scenario()


@pytest.fixture
def symmetric():
    return symmetric_scenario()


class TestSolveStats:
    """A solve records into the installed collector; its owner reads the
    snapshot, and the result carries none."""

    def test_stats_attached_when_recording(self, colocated):
        with obs.use_collector() as collector:
            result = solve_quotient(
                colocated.service,
                colocated.composite,
                int_events=colocated.interface.int_events,
            )
        assert not hasattr(result, "stats")
        stats = collector.snapshot()
        names = {s.name for s in stats.spans}
        assert {"solve_quotient", "safety_phase", "progress_phase"} <= names
        assert stats.counters["quotient.safety.pairs_explored"] > 0
        assert stats.counters["quotient.progress.rounds"] == len(
            result.progress.rounds
        )
        # the root span has closed by the time the solve returns
        (root,) = stats.find("solve_quotient")
        assert root.end is not None

    def test_stats_none_without_collector(self, colocated):
        result = solve_quotient(colocated.service, colocated.composite)
        assert obs.current_collector() is obs.NULL
        assert not hasattr(result, "stats")

    def test_span_tree_matches_pipeline(self, colocated):
        with obs.use_collector() as collector:
            result = solve_quotient(
                colocated.service,
                colocated.composite,
                int_events=colocated.interface.int_events,
            )
        stats = collector.snapshot()
        (root,) = stats.find("solve_quotient")
        child_names = [s.name for s in stats.children_of(root.index)]
        assert child_names[0] == "preflight"
        assert "safety_phase" in child_names
        assert "progress_phase" in child_names
        (progress,) = stats.find("progress_phase")
        rounds = [
            s for s in stats.children_of(progress.index)
            if s.name == "progress_round"
        ]
        assert len(rounds) == len(result.progress.rounds)

    def test_gauges_record_converter_shape(self, colocated):
        with obs.use_collector() as collector:
            result = solve_quotient(
                colocated.service,
                colocated.composite,
                int_events=colocated.interface.int_events,
            )
        assert collector.snapshot().gauges["quotient.converter.states"] == len(
            result.converter.states
        )


class TestPhaseCounters:
    def test_exists_case(self, colocated):
        result = solve_quotient(
            colocated.service,
            colocated.composite,
            int_events=colocated.interface.int_events,
        )
        counters = result.phase_counters()
        assert counters["emptied_by"] is None
        assert counters["safety"]["exists"]
        assert counters["safety"]["pairs_explored"] > 0
        assert counters["safety"]["states_surviving"] == len(result.c0.states)
        removed = sum(r["removed"] for r in counters["progress"]["rounds"])
        assert counters["progress"]["states_removed"] == removed

    def test_progress_emptied_case(self, symmetric):
        result = solve_quotient(
            symmetric.service,
            symmetric.composite,
            int_events=symmetric.interface.int_events,
        )
        counters = result.phase_counters()
        assert counters["emptied_by"] == "progress"
        assert counters["safety"]["exists"]
        assert not counters["progress"]["exists"]

    def test_to_json_dict_includes_phases_and_stats(self, colocated):
        with obs.use_collector():
            result = solve_quotient(
                colocated.service,
                colocated.composite,
                int_events=colocated.interface.int_events,
            )
        payload = result.to_json_dict()
        assert payload["version"] == 1
        assert payload["exists"] is True
        assert payload["phases"]["emptied_by"] is None
        assert payload["converter"]["states"] == len(result.converter.states)
        # telemetry stays with the collector, even while one records
        assert "stats" not in payload


class TestComposeCounters:
    def test_binary_compose_counters(self):
        with obs.use_collector() as collector:
            composite = compose(ab_sender(), ab_channel())
        snap = collector.snapshot()
        assert snap.counters["compose.calls"] == 1
        assert snap.counters["compose.reachable_states"] == len(composite.states)
        assert (
            snap.counters["compose.product_states"]
            >= snap.counters["compose.reachable_states"]
        )
        (span,) = snap.find("compose")
        assert span.attrs["reachable_states"] == len(composite.states)

    def test_compose_many_span(self):
        with obs.use_collector() as collector:
            composite = compose_many(
                [ab_sender(), ab_channel(), ab_receiver()], name="AB"
            )
        snap = collector.snapshot()
        (span,) = snap.find("compose_many")
        assert span.attrs["parts"] == 3
        assert span.attrs["composite"] == "AB"
        assert span.attrs["states"] == len(composite.states)
        assert snap.counters["compose.calls"] == 2


class TestSimulatorCounters:
    def test_moves_counted_by_kind(self):
        sim = Simulator(
            [ab_sender(), ab_channel(), ab_receiver()], RandomPolicy(seed=7)
        )
        with obs.use_collector() as collector:
            log = sim.run(200)
        snap = collector.snapshot()
        assert snap.counters["sim.steps"] == len(log.steps)
        by_kind = log.metrics()["moves"]
        for kind, count in by_kind.items():
            if count:
                assert snap.counters[f"sim.moves.{kind}"] == count
        (span,) = snap.find("simulate.run")
        assert span.attrs["steps"] == len(log.steps)

    def test_run_log_metrics_shape(self):
        sim = Simulator(
            [ab_sender(), ab_channel(), ab_receiver()], RandomPolicy(seed=7)
        )
        log = sim.run(50)
        metrics = sim.log.metrics()
        assert metrics["steps"] == len(log.steps) == 50
        assert metrics["deadlocked"] is False
        assert sum(metrics["moves"].values()) == metrics["steps"]
        assert sum(metrics["events"].values()) == metrics["steps"]


class TestDisabledOverhead:
    def test_disabled_instrumentation_overhead_under_5_percent(self, colocated):
        """Bound the cost of the disabled obs path for a real solve.

        Rather than comparing two noisy wall-clock runs, measure (a) the
        solve time, (b) how many obs calls that solve makes (via the
        recording collector's ``ops``), and (c) the per-call cost of the
        disabled dispatch, then check ops x per-call stays under 5% of
        the solve time.
        """
        args = (colocated.service, colocated.composite)
        kwargs = {"int_events": colocated.interface.int_events}

        solve_quotient(*args, **kwargs)  # warm caches
        t0 = time.perf_counter()
        solve_quotient(*args, **kwargs)
        solve_time = time.perf_counter() - t0

        with obs.use_collector(MetricsCollector()) as collector:
            solve_quotient(*args, **kwargs)
        ops = collector.ops

        calls = 200_000
        t0 = time.perf_counter()
        for _ in range(calls):
            obs.add("overhead.probe")
        per_call = (time.perf_counter() - t0) / calls

        assert ops * per_call < 0.05 * solve_time, (
            f"{ops} obs calls x {per_call * 1e9:.0f} ns "
            f"= {ops * per_call * 1e3:.3f} ms vs solve {solve_time * 1e3:.1f} ms"
        )


class TestSweepProgressOverhead:
    def test_progress_streaming_overhead_under_5_percent(self, colocated):
        """Bound the cost of an installed reporter over a resilience sweep.

        Same non-flaky scheme as the disabled-path bound above: measure
        (a) the sweep time, (b) how many charge ticks the sweep drives
        into an installed reporter, and (c) the per-tick cost of the
        reporter's rate-limited fast path, then check ticks x per-tick
        stays under 5% of the sweep time.
        """
        from repro.faults import default_grid, evaluate_resilience
        from repro.obs.progress import ProgressReporter, use_reporter

        service = colocated.service
        components = list(colocated.components)
        int_events = colocated.interface.int_events
        baseline = solve_quotient(
            service, colocated.composite, int_events=int_events
        )
        assert baseline.exists and baseline.converter is not None
        grid = [m for m in default_grid((1,)) if m.kind == "loss"]

        def sweep():
            return evaluate_resilience(
                service,
                components,
                baseline.converter,
                int_events=int_events,
                grid=grid,
            )

        sweep()  # warm caches
        t0 = time.perf_counter()
        sweep()
        sweep_time = time.perf_counter() - t0

        # sink-less reporter with a huge interval: ticks take the fast path
        counting = ProgressReporter(interval_s=1e9)
        with use_reporter(counting):
            sweep()
        ticks = counting._charges
        assert ticks > 0

        probe = ProgressReporter(interval_s=1e9)
        meter = type(
            "M", (), {"phase": "safety", "pairs": 0, "states": 0,
                      "elapsed": lambda self: 0.0},
        )()
        calls = 200_000
        t0 = time.perf_counter()
        for _ in range(calls):
            probe.tick(meter)
        per_tick = (time.perf_counter() - t0) / calls

        assert ticks * per_tick < 0.05 * sweep_time, (
            f"{ticks} ticks x {per_tick * 1e9:.0f} ns "
            f"= {ticks * per_tick * 1e3:.3f} ms vs sweep {sweep_time * 1e3:.1f} ms"
        )
