"""Differential tests for the compiled integer-indexed kernel.

The kernel (:mod:`repro.spec.compiled` plus the integer hot paths of
``compose``, the quotient's safety and progress phases, and
``satisfies_safety`` / ``satisfies_progress``) must be *observationally
identical* to the reference labeled-state implementations — same
specifications, same counterexamples, same work counters.  The
differential tests compare the two paths on the same inputs, with the
reference obtained under ``use_kernel(False)``.

Coverage:

* ``compose`` on random spec pairs;
* ``solve_quotient`` end to end on random quotient instances (existence,
  converter, ``f`` maps, phase records);
* ``satisfies_safety`` / ``satisfies_progress`` (verdict, counterexample /
  violation, pairs explored);
* the compiled spec's memoized analyses (λ*, τ*, sinks, acceptance menus,
  ψ) decoded against the labeled graph functions;
* compile-cache behaviour (LRU bound, structural sharing, obs counters,
  lookups racing evictions on more threads than cores);
* byte-identical regeneration of the committed SEC7 benchmark reports.

Hypothesis example counts across the differential tests sum to well over
200 random problems.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.compose import compose, compose_many
from repro.quotient import QuotientProblem, solve_quotient
from repro.quotient.kernel import (
    PROBLEM_CACHE_MAXSIZE,
    compiled_problem,
    problem_cache_clear,
)
from repro.satisfy import satisfies_progress, satisfies_safety
from repro.spec import (
    CompiledSpec,
    SpecBuilder,
    Specification,
    compiled,
    compiled_cache_clear,
    compiled_cache_info,
    kernel_enabled,
    lambda_closure,
    prune_unreachable,
    psi_step,
    random_deterministic_service,
    random_quotient_instance,
    random_spec,
    sink_acceptance_sets,
    sink_sets,
    tau_star,
    use_kernel,
)
from repro.spec.compiled import CACHE_MAXSIZE, iter_bits

REPO = Path(__file__).resolve().parent.parent

SEEDS = st.integers(min_value=0, max_value=10_000)
SIZES = st.integers(min_value=1, max_value=8)
EVENTS = ["a", "b", "c"]


def _outcome(fn):
    """A comparable fingerprint of a call: its value, or its exception."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 — both paths must fail alike
        return ("raise", type(exc).__name__, str(exc))


def _sub_implementation(
    service: Specification, seed: int, *, with_lambda: bool = False
) -> Specification:
    """A random sub-machine of *service* (traces ⊆ the service's traces).

    With ``with_lambda`` some λ edges are sprinkled in as well, which may
    break safety — useful for exercising the failure paths identically.
    """
    rng = random.Random(seed)
    kept = [t for t in sorted(service.external) if rng.random() < 0.75]
    internal: list[tuple[object, object]] = []
    if with_lambda:
        states = sorted(service.states)
        for s in states:
            for s2 in states:
                if s != s2 and rng.random() < 0.08:
                    internal.append((s, s2))
    return prune_unreachable(
        Specification(
            "impl",
            service.states,
            service.alphabet,
            kept,
            internal,
            service.initial,
        )
    )


# ----------------------------------------------------------------------
# differential: composition
# ----------------------------------------------------------------------
class TestComposeDifferential:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, size=SIZES)
    def test_compose_matches_reference(self, seed, size):
        left = random_spec(n_states=size, events=["a", "b"], seed=seed)
        right = random_spec(n_states=size + 1, events=["b", "c"], seed=seed + 1)
        for reachable_only in (True, False):
            with use_kernel(True):
                fast = compose(left, right, reachable_only=reachable_only)
            with use_kernel(False):
                slow = compose(left, right, reachable_only=reachable_only)
            assert fast == slow
            assert fast.initial == slow.initial
            assert fast.alphabet == slow.alphabet

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, size=SIZES)
    def test_compose_disjoint_alphabets(self, seed, size):
        left = random_spec(n_states=size, events=["a"], seed=seed)
        right = random_spec(n_states=size, events=["b"], seed=seed + 1)
        with use_kernel(True):
            fast = compose(left, right)
        with use_kernel(False):
            slow = compose(left, right)
        assert fast == slow


# ----------------------------------------------------------------------
# differential: the quotient solver end to end
# ----------------------------------------------------------------------
def _quotient_fingerprint(result):
    return (
        result.exists,
        result.converter,
        result.f,
        result.c0,
        result.c0_f,
        None if result.safety is None else (
            result.safety.exists,
            result.safety.spec,
            result.safety.f,
            result.safety.explored,
            result.safety.rejected,
        ),
        None if result.progress is None else (
            result.progress.exists,
            result.progress.spec,
            result.progress.rounds,
        ),
    )


class TestQuotientDifferential:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS)
    def test_solve_quotient_matches_reference(self, seed):
        service, component, int_events, _ = random_quotient_instance(seed=seed)
        with use_kernel(True):
            fast = _outcome(
                lambda: _quotient_fingerprint(
                    solve_quotient(service, component, int_events=int_events)
                )
            )
        with use_kernel(False):
            slow = _outcome(
                lambda: _quotient_fingerprint(
                    solve_quotient(service, component, int_events=int_events)
                )
            )
        assert fast == slow

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, n_component=st.integers(min_value=2, max_value=8))
    def test_larger_components_match(self, seed, n_component):
        service, component, int_events, _ = random_quotient_instance(
            seed=seed, n_component=n_component, n_int_events=2
        )
        with use_kernel(True):
            fast = _outcome(
                lambda: _quotient_fingerprint(
                    solve_quotient(service, component, int_events=int_events)
                )
            )
        with use_kernel(False):
            slow = _outcome(
                lambda: _quotient_fingerprint(
                    solve_quotient(service, component, int_events=int_events)
                )
            )
        assert fast == slow


# ----------------------------------------------------------------------
# differential: satisfaction checking
# ----------------------------------------------------------------------
class TestSatisfyDifferential:
    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS, size=SIZES)
    def test_safety_matches_reference(self, seed, size):
        service = random_deterministic_service(
            n_states=size, events=EVENTS, seed=seed
        )
        impl = random_spec(n_states=size + 2, events=EVENTS, seed=seed + 1)
        with use_kernel(True):
            fast = satisfies_safety(impl, service)
        with use_kernel(False):
            slow = satisfies_safety(impl, service)
        assert fast.holds == slow.holds
        assert fast.counterexample == slow.counterexample
        assert fast.pairs_explored == slow.pairs_explored

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, size=SIZES)
    def test_progress_matches_reference(self, seed, size):
        service = random_deterministic_service(
            n_states=size, events=EVENTS, seed=seed
        )
        impl = _sub_implementation(service, seed + 1)
        with use_kernel(True):
            fast = _outcome(lambda: satisfies_progress(impl, service))
        with use_kernel(False):
            slow = _outcome(lambda: satisfies_progress(impl, service))
        assert fast == slow

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, size=SIZES)
    def test_progress_with_internal_steps_matches(self, seed, size):
        service = random_deterministic_service(
            n_states=size, events=EVENTS, seed=seed
        )
        impl = _sub_implementation(service, seed + 1, with_lambda=True)
        with use_kernel(True):
            fast = _outcome(lambda: satisfies_progress(impl, service))
        with use_kernel(False):
            slow = _outcome(lambda: satisfies_progress(impl, service))
        assert fast == slow


# ----------------------------------------------------------------------
# differential: whole-spec graph analyses
# ----------------------------------------------------------------------
class TestAnalysesDifferential:
    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, size=SIZES)
    def test_compiled_analyses_decode_to_reference(self, seed, size):
        spec = random_spec(
            n_states=size, events=EVENTS, internal_density=0.3, seed=seed
        )
        cs = compiled(spec)
        with use_kernel(False):
            ref_closure = lambda_closure(spec)
            ref_tau = tau_star(spec)
            ref_sinks = sink_sets(spec)
        closure_masks = cs.closure_masks()
        tau_masks = cs.tau_star_masks()
        for i, s in enumerate(cs.states):
            assert cs.decode_state_mask(closure_masks[i]) == ref_closure[s]
            assert cs.decode_event_mask(tau_masks[i]) == ref_tau[s]
        menu = cs.sink_menu()
        assert [cs.decode_state_mask(m) for m, _ in menu] == ref_sinks
        for i, s in enumerate(cs.states):
            decoded = [
                cs.decode_event_mask(a) for a in cs.acceptance_menus()[i]
            ]
            assert decoded == sink_acceptance_sets(spec, s)

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, size=SIZES)
    def test_psi_table_matches_psi_step(self, seed, size):
        service = random_deterministic_service(
            n_states=size, events=EVENTS, seed=seed
        )
        cs = compiled(service)
        psi = cs.psi_table()
        for i, s in enumerate(cs.states):
            for j, e in enumerate(cs.events):
                expected = psi_step(service, s, e)
                got = None if psi[i][j] < 0 else cs.states[psi[i][j]]
                assert got == expected


# ----------------------------------------------------------------------
# compiled representation invariants
# ----------------------------------------------------------------------
class TestCompiledSpec:
    def test_interning_orders(self):
        spec = random_spec(n_states=6, events=["b", "a", "c"], seed=3)
        cs = compiled(spec)
        assert list(cs.events) == sorted(spec.alphabet)
        assert cs.states == tuple(spec.sorted_by_rank(spec.states))
        assert cs.states[cs.initial] == spec.initial
        for i, s in enumerate(cs.states):
            assert cs.decode_event_mask(cs.enabled_mask[i]) == spec.enabled(s)
            for eid, targets in cs.ext_moves[i]:
                assert {cs.states[t] for t in targets} == spec.successors(
                    s, cs.events[eid]
                )
            assert {cs.states[t] for t in cs.int_succ[i]} == set(
                spec.internal_successors(s)
            )

    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b101101)) == [0, 2, 3, 5]

    def test_encode_decode_roundtrip(self):
        spec = random_spec(n_states=4, events=EVENTS, seed=9)
        cs = compiled(spec)
        mask = cs.encode_events(["c", "a"])
        assert sorted(cs.decode_event_mask(mask)) == ["a", "c"]


# ----------------------------------------------------------------------
# the compile cache
# ----------------------------------------------------------------------
class TestCompileCache:
    def test_hit_miss_counters(self):
        spec = random_spec(n_states=5, events=EVENTS, seed=11)
        # clear *after* construction: building the spec already compiles it
        # (prune_unreachable's reachability walk runs on the kernel)
        compiled_cache_clear()
        with obs.use_collector(obs.MetricsCollector()) as collector:
            first = compiled(spec)
            second = compiled(spec)
        assert first is second
        counters = collector.snapshot().counters
        assert counters["kernel.compile_calls"] == 1
        assert counters["kernel.cache_misses"] == 1
        assert counters["kernel.cache_hits"] == 1

    def test_structurally_equal_specs_share_compiled_form(self):
        compiled_cache_clear()
        a = random_spec(n_states=5, events=EVENTS, seed=12, name="first")
        b = random_spec(n_states=5, events=EVENTS, seed=12, name="second")
        assert a == b  # names do not participate in equality
        assert compiled(a) is compiled(b)

    def test_lru_bound_is_enforced(self):
        compiled_cache_clear()
        for seed in range(CACHE_MAXSIZE + 5):
            compiled(random_spec(n_states=2, events=["a"], seed=seed))
        info = compiled_cache_info()
        assert info["size"] <= info["maxsize"] == CACHE_MAXSIZE

    def test_use_kernel_toggles_and_restores(self):
        before = kernel_enabled()
        with use_kernel(False):
            assert not kernel_enabled()
            with use_kernel(True):
                assert kernel_enabled()
            assert not kernel_enabled()
        assert kernel_enabled() == before

    def test_compiled_spec_exported(self):
        spec = random_spec(n_states=3, events=["a"], seed=0)
        assert isinstance(compiled(spec), CompiledSpec)

    def test_lookups_racing_evictions_on_many_threads(self):
        """More threads than cores draw from more keys than either cache
        holds, so lookups race other threads' evictions; every call must
        still return the compiled form of its own key."""
        problems = list(dict.fromkeys(
            QuotientProblem.build(service, component, internal)
            for service, component, internal, _ in (
                random_quotient_instance(seed=seed) for seed in range(200)
            )
        ))
        specs = list(dict.fromkeys(
            spec for p in problems for spec in (p.service, p.component)
        ))
        assert len(specs) > CACHE_MAXSIZE
        assert len(problems) > PROBLEM_CACHE_MAXSIZE
        compiled_cache_clear()
        problem_cache_clear()
        errors: list[str] = []

        def hammer(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(2000):
                    spec = rng.choice(specs)
                    assert compiled(spec).source == spec
                    problem = rng.choice(problems)
                    assert compiled_problem(problem).problem == problem
            except Exception as exc:  # noqa: BLE001 — reported by the assert
                errors.append(f"{type(exc).__name__}: {exc}")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(seed,))
                for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert not errors, f"{len(errors)} of 8 threads failed: {errors}"
        assert compiled_cache_info()["size"] <= CACHE_MAXSIZE


# ----------------------------------------------------------------------
# concurrent solves share one compiled problem through the cache
# ----------------------------------------------------------------------
def _relay(k: int) -> tuple[Specification, Specification]:
    """The SEC7 relay family: k independent x -> m -> n -> y relays."""
    services = [
        SpecBuilder(f"A{i}")
        .external(0, f"x{i}", 1)
        .external(1, f"y{i}", 0)
        .initial(0)
        .build()
        for i in range(k)
    ]
    components = [
        SpecBuilder(f"B{i}")
        .external(0, f"x{i}", 1)
        .external(1, f"m{i}", 2)
        .external(2, f"n{i}", 3)
        .external(3, f"y{i}", 0)
        .initial(0)
        .build()
        for i in range(k)
    ]
    return compose_many(services), compose_many(components)


class TestConcurrentSolves:
    def test_two_threads_solving_one_problem_match_the_sequential_solve(self):
        service, component = _relay(4)
        # the sequential solve also warms the problem cache both threads hit
        expected = _quotient_fingerprint(solve_quotient(service, component))
        assert len(expected[1].states) == 3**4 + 1
        results: list = []

        def solve() -> None:
            try:
                results.append(
                    _quotient_fingerprint(solve_quotient(service, component))
                )
            except Exception as exc:  # noqa: BLE001 — reported by the assert
                results.append(("raise", type(exc).__name__, str(exc)))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                threads = [threading.Thread(target=solve) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert len(results) == 10
        wrong = [r for r in results if r != expected]
        assert not wrong, f"{len(wrong)} of 10 concurrent solves differ"


# ----------------------------------------------------------------------
# golden reports: the kernel must not change committed benchmark text
# ----------------------------------------------------------------------
class TestGoldenReports:
    def test_sec7_reports_byte_identical(self, tmp_path):
        """Regenerating the SEC7 sweeps (kernel on, the default) must
        reproduce the committed text reports byte for byte."""
        bench = REPO / "benchmarks" / "bench_sec7_complexity.py"
        env = dict(os.environ)
        env["REPRO_BENCH_OUT"] = str(tmp_path / "out")
        env["REPRO_BENCH_JSON"] = str(tmp_path / "BENCH_quotient.json")
        src = str(REPO / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "-q",
                "-p",
                "no:cacheprovider",
                str(bench),
                "-k",
                "exponential or polynomial",
            ],
            env=env,
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        for name in ("SEC7-safety.txt", "SEC7-progress.txt"):
            fresh = (tmp_path / "out" / name).read_bytes()
            committed = (REPO / "benchmarks" / "out" / name).read_bytes()
            assert fresh == committed, f"{name} drifted from committed report"


# ----------------------------------------------------------------------
# differential: budgeted solving
# ----------------------------------------------------------------------
class TestBudgetDifferential:
    """Count-limited budgets must trip at the same unit of work on both
    paths (same phase, same limit, same partial counts) — and a budget
    that is not hit must leave the result byte-identical to an
    unbudgeted solve.  The fingerprint is structural: ``elapsed_s`` is
    machine-dependent and excluded."""

    @staticmethod
    def _budgeted_fingerprint(service, component, int_events, budget):
        from repro.errors import BudgetExceeded

        try:
            return (
                "ok",
                _quotient_fingerprint(
                    solve_quotient(
                        service,
                        component,
                        int_events=int_events,
                        budget=budget,
                    )
                ),
            )
        except BudgetExceeded as exc:
            return (
                "budget",
                exc.phase,
                exc.limit,
                exc.partial["pairs"],
                exc.partial["states"],
            )
        except Exception as exc:  # noqa: BLE001 — both paths must fail alike
            return ("raise", type(exc).__name__, str(exc))

    @settings(max_examples=50, deadline=None)
    @given(
        seed=SEEDS,
        limit=st.integers(min_value=1, max_value=40),
        kind=st.sampled_from(["max_pairs", "max_states"]),
    )
    def test_budget_trips_identically_on_both_paths(self, seed, limit, kind):
        from repro.quotient import Budget

        service, component, int_events, _ = random_quotient_instance(seed=seed)
        budget = Budget(**{kind: limit})
        with use_kernel(True):
            fast = self._budgeted_fingerprint(
                service, component, int_events, budget
            )
        with use_kernel(False):
            slow = self._budgeted_fingerprint(
                service, component, int_events, budget
            )
        assert fast == slow
        if fast[0] == "ok":
            with use_kernel(True):
                plain = _quotient_fingerprint(
                    solve_quotient(service, component, int_events=int_events)
                )
            assert fast[1] == plain
