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
* ``product_satisfies`` against ``satisfies(compose(...))`` on the
  solver's, random and mutated converters (report, ``compose.*`` and
  ``satisfy.*`` counters, budget trips, error order), and
  ``compiled_product``'s tables against ``compiled(compose(...))``;
* the compiled spec's memoized analyses (λ*, τ*, sinks, acceptance menus,
  ψ) decoded against the labeled graph functions;
* compile-cache behaviour (LRU bound, structural sharing, obs counters,
  lookups racing evictions on more threads than cores);
* byte-identical regeneration of the committed SEC7 benchmark reports.

Hypothesis example counts across the differential tests sum to well over
200 random problems.
"""

from __future__ import annotations

import collections
import itertools
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
from repro.compose.binary import compiled_product
from repro.errors import BudgetExceeded, ReproError
from repro.quotient import Budget, QuotientProblem, solve_quotient
from repro.quotient.kernel import (
    PROBLEM_CACHE_MAXSIZE,
    compiled_problem,
    problem_cache_clear,
)
from repro.satisfy import (
    product_satisfies,
    satisfies,
    satisfies_progress,
    satisfies_safety,
)
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
from repro.spec.compiled import _CACHE as _COMPILE_CACHE

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
        result.verification,
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

    def test_safety_against_nondeterministic_services(self):
        """Services with λ steps and fan-out: multi-state subsets, each
        interned once and stepped through the memo, on both verdicts."""
        verdicts = collections.Counter()
        for seed in range(80):
            service = random_spec(
                n_states=2 + seed % 6, events=EVENTS, seed=seed,
                internal_density=0.25,
            )
            if seed % 2:
                impl = _sub_implementation(service, seed, with_lambda=True)
            else:
                impl = random_spec(
                    n_states=3 + seed % 4, events=EVENTS, seed=seed + 1000
                )
            with use_kernel(True):
                fast = satisfies_safety(impl, service)
            with use_kernel(False):
                slow = satisfies_safety(impl, service)
            assert (fast.holds, fast.counterexample, fast.pairs_explored) == (
                slow.holds, slow.counterexample, slow.pairs_explored
            )
            verdicts[fast.holds, service.is_deterministic()] += 1
        assert verdicts[True, False] and verdicts[False, False], verdicts

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
# differential: "B ‖ C satisfies A" without the labelled composite
# ----------------------------------------------------------------------
CONVERTER_KINDS = ("solver", "random", "mutated")


def _solved_instance(seed: int):
    """The first random instance from *seed* on that has a converter."""
    for s in itertools.count(seed):
        service, component, int_events, _ = random_quotient_instance(seed=s)
        result = solve_quotient(
            service, component, int_events=int_events, verify=False
        )
        if result.exists:
            return service, component, int_events, result.converter


def _converter_case(seed: int, kind: str):
    """``(service, component, converter)``, the converter drawn by *kind*.

    ``solver`` is the solver's converter, which passes; ``random`` is a
    random spec over Int, which mostly fails safety; ``mutated`` is the
    solver's converter with one transition dropped or retargeted, which
    fails safety or progress (or still passes).
    """
    rng = random.Random(seed)
    if kind == "random":
        service, component, int_events, _ = random_quotient_instance(seed=seed)
        converter = random_spec(
            n_states=rng.randint(1, 4), events=int_events, seed=seed, name="X"
        )
        return service, component, converter
    service, component, int_events, converter = _solved_instance(seed)
    if kind == "mutated" and converter.external:
        edges = sorted(converter.external)
        victim = edges.pop(rng.randrange(len(edges)))
        if rng.random() < 0.5:
            source, event, _ = victim
            edges.append((source, event, rng.choice(sorted(converter.states))))
        converter = Specification(
            "X'", converter.states, converter.alphabet, edges,
            converter.internal, converter.initial,
        )
    return service, component, converter


def _counted(check):
    """*check*'s outcome with the ``compose.*`` and ``satisfy.*`` counters.

    A budget trip is compared by phase, limit and partial counts
    (``elapsed_s`` is machine-dependent and dropped).
    """
    with obs.use_collector(obs.MetricsCollector()) as collector:
        try:
            outcome = ("ok", check())
        except BudgetExceeded as exc:
            partial = dict(exc.partial)
            partial.pop("elapsed_s")
            outcome = ("budget", exc.phase, exc.limit, partial)
        except ReproError as exc:
            outcome = ("raise", type(exc).__name__, str(exc))
    counters = {
        name: value
        for name, value in collector.snapshot().counters.items()
        if name.startswith(("compose.", "satisfy."))
    }
    return outcome, counters


def _both_paths(component, converter, service, budget=None):
    """``(kernel, labelled reference)`` outcomes of one product check."""
    with use_kernel(True):
        fast = _counted(
            lambda: product_satisfies(
                component, converter, service, budget=budget
            )
        )
    with use_kernel(False):
        slow = _counted(
            lambda: satisfies(
                compose(component, converter, budget=budget), service
            )
        )
    return fast, slow


class TestProductSatisfiesDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        kind=st.sampled_from(CONVERTER_KINDS),
        limit=st.one_of(st.none(), st.integers(min_value=1, max_value=30)),
    )
    def test_matches_the_labelled_composite(self, seed, kind, limit):
        service, component, converter = _converter_case(seed, kind)
        budget = None if limit is None else Budget(max_states=limit)
        fast, slow = _both_paths(component, converter, service, budget)
        assert fast == slow

    def test_failing_converters_occur_and_match(self):
        verdicts = collections.Counter()
        for seed in range(40):
            for kind in ("random", "mutated"):
                service, component, converter = _converter_case(seed, kind)
                fast, slow = _both_paths(component, converter, service)
                assert fast == slow
                report = fast[0][1]
                if not report.safety.holds:
                    verdicts["safety"] += 1
                elif not report.holds:
                    verdicts["progress"] += 1
                    assert report.progress.violation is not None
                else:
                    verdicts["holds"] += 1
        assert verdicts["safety"] > 0, verdicts
        assert verdicts["progress"] > 0, verdicts

    def test_errors_follow_the_exploration(self):
        service, component, _, converter = _solved_instance(0)
        # a converter over another alphabet: AlphabetError naming the
        # composite, raised after its states were explored and counted
        stray = Specification(
            "Y", converter.states, set(converter.alphabet) | {"zz"},
            converter.external, converter.internal, converter.initial,
        )
        fast, slow = _both_paths(component, stray, service)
        assert fast == slow
        assert fast[0][:2] == ("raise", "AlphabetError")
        assert fast[1]["compose.reachable_states"] > 0
        # a service out of normal form that the composite still satisfies
        # for safety: NormalFormError from the progress check
        split = SpecBuilder("S")
        for s, e, t in service.external:
            split.external(s, e, t)
            split.external(s, e, ("copy", t))
        for s, e, t in service.external:
            split.external(("copy", s), e, t)
        nondeterministic = split.initial(service.initial).build()
        fast, slow = _both_paths(component, converter, nondeterministic)
        assert fast == slow
        assert fast[0][:2] == ("raise", "NormalFormError")

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, size=SIZES)
    def test_compiled_product_tables_match_compiled_composite(self, seed, size):
        left = random_spec(
            n_states=size, events=["a", "b", "s"], internal_density=0.2,
            seed=seed,
        )
        right = random_spec(
            n_states=size + 1, events=["s", "t", "c"], internal_density=0.2,
            seed=seed + 1,
        )
        # mixed state types: repr((a, b)) does not sort like the pair of
        # component ranks, so the view must sort by the composite's key
        relabel = {s: (s if s % 2 else f"q{s}") for s in left.states}
        left = left.map_states(relabel)
        view = compiled_product(left, right)
        ref = CompiledSpec(compose(left, right))
        for name in (
            "states", "events", "initial", "n_states", "n_events",
            "ext_moves", "int_succ", "enabled_mask",
        ):
            assert getattr(view, name) == getattr(ref, name), name
        assert view.tau_star_masks() == ref.tau_star_masks()

    def test_kernel_solve_caches_no_composite(self):
        service, component, int_events, _ = _solved_instance(1)
        compiled_cache_clear()
        with use_kernel(True):
            result = solve_quotient(service, component, int_events=int_events)
        assert result.verification is not None and result.verification.holds
        composite = compose(component, result.converter)
        assert composite not in list(_COMPILE_CACHE)


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
