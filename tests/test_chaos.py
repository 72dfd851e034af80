"""Unit tests for the chaos fault plane and the retry policies.

The differential guarantees live in ``test_chaos_differential.py``; this
file pins the mechanics underneath them: plan parsing and validation,
decision determinism, per-site counters and obs accounting, activation
scoping, and the retry policy's backoff/give-up/recovery behaviour with
injected clocks (no test here sleeps on real time).
"""

import pytest

from repro import chaos, obs
from repro.chaos import ChaosPlan, ChaosState, RetryPolicy
from repro.chaos.plan import plan_from_env
from repro.errors import ReproError


# ----------------------------------------------------------------------
# ChaosPlan: parsing, validation, decisions
# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_from_spec_parses_every_knob_kind(self):
        plan = ChaosPlan.from_spec(
            "seed=7, p_raise=0.25, raise_at=2:5, sites=serve.job"
        )
        assert plan.seed == 7
        assert plan.p_raise == 0.25
        assert plan.raise_at == (2, 5)
        assert plan.sites == ("serve.job",)

    def test_from_spec_rejects_unknown_keys(self):
        with pytest.raises(ReproError, match="unknown chaos spec key"):
            ChaosPlan.from_spec("p_rase=0.5")

    @pytest.mark.parametrize(
        "spec", ["p_dup=0.1", "sites=worker.task", "p_kill=0.1", "hang_at=1"]
    )
    def test_from_spec_rejects_removed_knobs_and_sites(self, spec):
        """Specs written for the removed pool-worker and executor-result
        sites, or the removed served-job kill and hang faults, fail
        loudly instead of silently injecting nothing."""
        from repro.chaos.plan import ChaosSpecError

        with pytest.raises(ChaosSpecError):
            ChaosPlan.from_spec(spec)

    def test_from_spec_rejects_malformed_entries(self):
        with pytest.raises(ReproError, match="not key=value"):
            ChaosPlan.from_spec("p_raise")
        with pytest.raises(ReproError, match="cannot parse"):
            ChaosPlan.from_spec("raise_at=two")

    def test_validation_rejects_bad_values(self):
        with pytest.raises(ReproError, match="probability"):
            ChaosPlan(p_raise=1.5)
        with pytest.raises(ReproError, match="non-negative"):
            ChaosPlan(raise_at=(-1,))

    def test_explicit_indices_fire_exactly(self):
        plan = ChaosPlan(raise_at=(1, 3))
        assert [plan.raise_in_worker(n) for n in range(5)] == [
            False, True, False, True, False,
        ]

    def test_probabilistic_decisions_are_deterministic(self):
        a = ChaosPlan(seed=42, p_raise=0.5)
        b = ChaosPlan(seed=42, p_raise=0.5)
        decisions = [a.raise_in_worker(n) for n in range(64)]
        assert decisions == [b.raise_in_worker(n) for n in range(64)]
        assert any(decisions) and not all(decisions)
        # a different seed draws a different schedule
        c = ChaosPlan(seed=43, p_raise=0.5)
        assert decisions != [c.raise_in_worker(n) for n in range(64)]

    def test_sites_draw_independent_decisions(self):
        plan = ChaosPlan(seed=1, p_raise=0.5, p_read_error=0.5)
        raises = [plan.raise_in_worker(n) for n in range(64)]
        read_errors = [plan.store_read_fault(n) for n in range(64)]
        assert raises != read_errors

    def test_store_write_fault_precedence_and_kinds(self):
        plan = ChaosPlan(
            write_partial_at=(0,), write_enospc_at=(0, 1), write_error_at=(2,)
        )
        assert plan.store_write_fault(0) == "partial"  # partial wins ties
        assert plan.store_write_fault(1) == "enospc"
        assert plan.store_write_fault(2) == "error"
        assert plan.store_write_fault(3) is None

    def test_plan_is_picklable(self):
        import pickle

        plan = ChaosPlan.from_spec("seed=3,p_raise=0.1,read_error_at=1:2")
        assert pickle.loads(pickle.dumps(plan)) == plan


# ----------------------------------------------------------------------
# ChaosState: counters and obs accounting
# ----------------------------------------------------------------------
class TestChaosState:
    def test_next_index_advances_per_site(self):
        state = ChaosState(ChaosPlan())
        assert [state.next_index("a") for _ in range(3)] == [0, 1, 2]
        assert state.next_index("b") == 0

    def test_injected_faults_are_counted(self):
        state = ChaosState(ChaosPlan(write_enospc_at=(0,), read_error_at=(0,)))
        with obs.use_collector() as collector:
            assert state.store_write_fault() == "enospc"
            assert state.store_write_fault() is None
            assert state.store_read_fault() is True
        counters = collector.snapshot().counters
        assert counters["chaos.injected"] == 2
        assert counters["chaos.injected.store.write.enospc"] == 1
        assert counters["chaos.injected.store.read"] == 1


# ----------------------------------------------------------------------
# activation: scoping and the environment seam
# ----------------------------------------------------------------------
class TestActivation:
    def test_inactive_by_default(self):
        assert chaos.active() is None

    def test_use_chaos_scopes_and_restores(self):
        plan = ChaosPlan(raise_at=(0,))
        with chaos.use_chaos(plan) as state:
            assert chaos.active() is state
            assert state.plan is plan
            with chaos.use_chaos(None):
                assert chaos.active() is None
            assert chaos.active() is state
        assert chaos.active() is None

    def test_set_chaos_returns_previous_state(self):
        previous = chaos.set_chaos(ChaosPlan())
        try:
            assert previous is None
            assert chaos.active() is not None
        finally:
            chaos.set_chaos(None)
        assert chaos.active() is None

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert plan_from_env() is None
        monkeypatch.setenv("REPRO_CHAOS", "seed=9,p_write_error=0.5")
        plan = plan_from_env()
        assert plan == ChaosPlan(seed=9, p_write_error=0.5)
        monkeypatch.setenv("REPRO_CHAOS", "bogus_knob=1")
        with pytest.raises(ReproError):
            plan_from_env()


# ----------------------------------------------------------------------
# RetryPolicy: backoff, recovery, give-up — all on injected time
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)

    def test_delays_grow_and_cap_deterministically(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay_s=0.010, multiplier=2.0,
            max_delay_s=0.040, jitter=0.0,
        )
        delays = [policy.delay_s("site", k) for k in range(1, 5)]
        assert delays == [0.010, 0.020, 0.040, 0.040]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_s=0.010, jitter=0.5, seed=11)
        again = RetryPolicy(base_delay_s=0.010, jitter=0.5, seed=11)
        for k in (1, 2):
            d = policy.delay_s("s", k)
            assert d == again.delay_s("s", k)
            nominal = min(0.010 * 2 ** (k - 1), policy.max_delay_s)
            assert nominal * 0.5 <= d <= nominal * 1.5
        assert policy.delay_s("s", 1) != policy.delay_s("other", 1)

    def test_recovers_after_transient_failures(self):
        failures = [OSError("flaky"), OSError("flaky")]
        slept: list[float] = []

        def op():
            if failures:
                raise failures.pop(0)
            return "ok"

        policy = RetryPolicy(max_attempts=3)
        with obs.use_collector() as collector:
            result = policy.call(
                op, site="t", sleep=slept.append, clock=lambda: 0.0
            )
        assert result == "ok"
        assert len(slept) == 2
        counters = collector.snapshot().counters
        assert counters["retry.attempts"] == 3
        assert counters["retry.retries"] == 2
        assert counters["retry.recoveries"] == 1
        assert "retry.giveups" not in counters

    def test_gives_up_after_max_attempts(self):
        calls = []

        def op():
            calls.append(1)
            raise OSError("still down")

        policy = RetryPolicy(max_attempts=3)
        with obs.use_collector() as collector:
            with pytest.raises(OSError, match="still down"):
                policy.call(op, site="t", sleep=lambda s: None)
        assert len(calls) == 3
        counters = collector.snapshot().counters
        assert counters["retry.giveups"] == 1
        assert counters["retry.retries"] == 2

    def test_give_up_on_fails_fast(self):
        calls = []

        def op():
            calls.append(1)
            raise FileNotFoundError("gone")

        with pytest.raises(FileNotFoundError):
            RetryPolicy(max_attempts=5).call(op, site="t", sleep=lambda s: None)
        assert len(calls) == 1

    def test_unlisted_exceptions_propagate_immediately(self):
        def op():
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5).call(op, site="t", sleep=lambda s: None)

    def test_first_try_success_counts_no_recovery(self):
        with obs.use_collector() as collector:
            assert RetryPolicy().call(lambda: 5, site="t") == 5
        counters = collector.snapshot().counters
        assert counters["retry.attempts"] == 1
        assert "retry.recoveries" not in counters

    def test_recovery_notes_into_progress_stream(self):
        import io
        import json

        from repro.obs.progress import ProgressReporter, use_reporter

        failures = [OSError("flaky")]

        def op():
            if failures:
                raise failures.pop(0)
            return "ok"

        stream = io.StringIO()
        reporter = ProgressReporter(jsonl=stream, interval_s=0.0)
        with use_reporter(reporter):
            RetryPolicy().call(
                op, site="store.write:test", sleep=lambda s: None
            )
        events = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        notes = [e for e in events if e.get("event") == "note"]
        assert any(e.get("recovered") == "store.write:test" for e in notes)


# ----------------------------------------------------------------------
# the sites= filter: scoping injection without perturbing schedules
# ----------------------------------------------------------------------
class TestSiteFilter:
    def test_empty_filter_enables_every_site(self):
        from repro.chaos.plan import SITES

        plan = ChaosPlan()
        assert all(plan.site_enabled(site) for site in SITES)

    def test_filter_scopes_to_named_sites(self):
        plan = ChaosPlan(sites=("serve.job", "store.write"))
        assert plan.site_enabled("serve.job")
        assert plan.site_enabled("store.write")
        assert not plan.site_enabled("store.read")

    def test_unknown_site_name_is_a_structured_error(self):
        from repro.chaos.plan import SITES, ChaosSpecError

        with pytest.raises(ChaosSpecError) as info:
            ChaosPlan(sites=("serve.job", "store.wirte"))
        assert info.value.unknown == ("store.wirte",)
        assert info.value.valid == SITES
        # the message itself lists every valid site — a typo must come
        # back with the menu, not a silent no-op
        for site in SITES:
            assert site in str(info.value)

    def test_from_spec_parses_colon_separated_site_lists(self):
        plan = ChaosPlan.from_spec(
            "seed=3, p_raise=0.5, sites=serve.job:store.write"
        )
        assert plan.sites == ("serve.job", "store.write")

    def test_from_spec_rejects_unknown_site_names(self):
        from repro.chaos.plan import SITES, ChaosSpecError

        with pytest.raises(ChaosSpecError) as info:
            ChaosPlan.from_spec("sites=serve.job:store.wrote")
        assert info.value.unknown == ("store.wrote",)
        assert info.value.valid == SITES

    def test_from_spec_rejects_unknown_keys_structurally(self):
        from repro.chaos.plan import ChaosSpecError

        with pytest.raises(ChaosSpecError) as info:
            ChaosPlan.from_spec("sights=serve.job")
        assert info.value.unknown == ("sights",)
        assert "sites" in info.value.valid

    def test_disabled_sites_neither_fire_nor_advance_counters(self):
        # faults armed at index 0 for two sites; only store.write enabled
        state = ChaosState(
            ChaosPlan(
                raise_at=(0,), write_enospc_at=(0,), sites=("store.write",)
            )
        )
        with obs.use_collector() as collector:
            # the filtered-out seam is an exact no-op ...
            assert state.serve_job_fault() is False
            assert state.serve_job_fault() is False
            # ... its occurrence counter never advanced ...
            assert state.next_index("serve.job") == 0
            # ... and the enabled site's schedule is undisturbed
            assert state.store_write_fault() == "enospc"
        counters = collector.snapshot().counters
        assert counters["chaos.injected"] == 1
        assert counters["chaos.injected.store.write.enospc"] == 1
        assert not any("serve.job" in key for key in counters)

    def test_serve_job_fault_kinds_and_accounting(self):
        state = ChaosState(ChaosPlan(raise_at=(0, 2)))
        with obs.use_collector() as collector:
            assert [state.serve_job_fault() for _ in range(4)] == [
                True, False, True, False,
            ]
        counters = collector.snapshot().counters
        assert counters["chaos.injected"] == 2
        assert counters["chaos.injected.serve.job.raise"] == 2


# ----------------------------------------------------------------------
# RetryPolicy under concurrency: shared policy, independent callers
# ----------------------------------------------------------------------
class TestRetryPolicyConcurrency:
    def test_concurrent_callers_keep_deterministic_per_site_backoff(self):
        """One shared policy, many threads: each site's backoff schedule
        is the pure function delay_s(site, k) — interleaving with other
        callers must not perturb it (no cross-talk)."""
        import threading

        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.01, jitter=0.5, seed=5
        )
        sites = [f"store.write:site-{i}" for i in range(8)]
        observed: dict[str, list[float]] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(sites))

        def caller(site: str) -> None:
            try:
                failures = [OSError("flaky"), OSError("flaky")]
                slept: list[float] = []

                def op():
                    if failures:
                        raise failures.pop(0)
                    return site

                barrier.wait(timeout=30)
                assert policy.call(
                    op, site=site, sleep=slept.append, clock=lambda: 0.0
                ) == site
                observed[site] = slept
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=caller, args=(site,)) for site in sites
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors, errors
        for site in sites:
            assert observed[site] == [
                policy.delay_s(site, 1), policy.delay_s(site, 2)
            ], f"{site}: backoff schedule perturbed by concurrent callers"
        # distinct sites draw distinct jittered schedules
        assert len({tuple(s) for s in observed.values()}) > 1

    def test_concurrent_accounting_under_thread_safe_collector(self):
        """retry.* counters stay exact when N callers overlap, provided
        the installed collector is the thread-safe one."""
        import threading

        from repro.obs.core import ThreadSafeCollector

        policy = RetryPolicy(max_attempts=4)
        callers = 8
        barrier = threading.Barrier(callers)
        errors: list[BaseException] = []
        collector = ThreadSafeCollector()

        def caller(i: int) -> None:
            try:
                failures = [OSError("a"), OSError("b")]

                def op():
                    barrier.wait(timeout=30)  # maximize overlap
                    if failures:
                        raise failures.pop(0)
                    return i

                assert policy.call(
                    op, site=f"s{i}", sleep=lambda s: None,
                    clock=lambda: 0.0,
                ) == i
            except BaseException as exc:
                errors.append(exc)

        with obs.use_collector(collector):
            threads = [
                threading.Thread(target=caller, args=(i,))
                for i in range(callers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        assert not errors, errors
        counters = collector.snapshot().counters
        assert counters["retry.attempts"] == 3 * callers
        assert counters["retry.retries"] == 2 * callers
        assert counters["retry.recoveries"] == callers
        assert "retry.giveups" not in counters
