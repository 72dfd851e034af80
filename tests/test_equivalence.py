"""Unit tests for behavioural equivalences."""

from itertools import permutations

from hypothesis import given, settings, strategies as st

from repro.spec import (
    SpecBuilder,
    Specification,
    isomorphic,
    random_spec,
    strongly_bisimilar,
    trace_equivalent,
    weakly_trace_bisimilar,
)


def two_state_loop(name="m", e1="a", e2="b"):
    return (
        SpecBuilder(name)
        .external(0, e1, 1)
        .external(1, e2, 0)
        .initial(0)
        .build()
    )


class TestIsomorphic:
    def test_identical_specs(self):
        assert isomorphic(two_state_loop(), two_state_loop("other"))

    def test_relabeled_states(self):
        relabeled = two_state_loop().map_states({0: "x", 1: "y"})
        assert isomorphic(two_state_loop(), relabeled)

    def test_different_event_names_not_isomorphic(self):
        assert not isomorphic(two_state_loop(), two_state_loop(e1="z"))

    def test_different_state_counts(self):
        bigger = (
            SpecBuilder("m")
            .external(0, "a", 1)
            .external(1, "b", 2)
            .external(2, "a", 1)
            .initial(0)
            .build()
        )
        assert not isomorphic(two_state_loop(), bigger)

    def test_initial_state_must_correspond(self):
        shifted = (
            SpecBuilder("m")
            .external(0, "a", 1)
            .external(1, "b", 0)
            .initial(1)
            .build()
        )
        assert not isomorphic(two_state_loop(), shifted)

    def test_internal_transitions_matter(self):
        with_internal = (
            SpecBuilder("m")
            .external(0, "a", 1)
            .external(1, "b", 0)
            .internal(0, 1)
            .initial(0)
            .build()
        )
        assert not isomorphic(two_state_loop(), with_internal)

    def test_symmetric_machine_with_automorphisms(self):
        """A machine with internal symmetry still matches itself."""
        diamond = (
            SpecBuilder("d")
            .external(0, "a", 1)
            .external(0, "a", 2)
            .external(1, "b", 3)
            .external(2, "b", 3)
            .external(3, "c", 0)
            .initial(0)
            .build()
        )
        assert isomorphic(diamond, diamond.map_states({0: 10, 1: 12, 2: 11, 3: 13}))


def brute_isomorphic(left: Specification, right: Specification) -> bool:
    """Whether some state bijection carries *left* exactly onto *right*."""
    if left.alphabet != right.alphabet or len(left) != len(right):
        return False
    left_states = sorted(left.states, key=repr)
    for image in permutations(right.states):
        m = dict(zip(left_states, image))
        if (
            m[left.initial] == right.initial
            and {(m[s], e, m[t]) for s, e, t in left.external} == right.external
            and {(m[s], m[t]) for s, t in left.internal} == right.internal
        ):
            return True
    return False


def _random_small(n: int, seed: int, ext: float, inn: float) -> Specification:
    return random_spec(
        n_states=n, events=("a", "b"), external_density=ext,
        internal_density=inn, seed=seed,
    )


def _retargeted(spec: Specification, index: int, target) -> Specification:
    """*spec* with transition *index* (external first, then λ) moved to *target*."""
    external = sorted(spec.external, key=repr)
    internal = sorted(spec.internal, key=repr)
    if index < len(external):
        s, e, _ = external[index]
        external[index] = (s, e, target)
    else:
        s, _ = internal[index - len(external)]
        internal[index - len(external)] = (s, target)
    return Specification(
        spec.name, spec.states, spec.alphabet, external, internal, spec.initial
    )


@st.composite
def spec_pairs(draw):
    """Specs of at most 5 states: two independent draws, or one and a copy
    under a random relabelling, with one transition retargeted or not."""
    n = draw(st.sampled_from(range(1, 6)))
    densities = (st.sampled_from((0.2, 0.4, 0.7)),
                 st.sampled_from((0.0, 0.15, 0.3)))
    left = _random_small(n, draw(st.integers(0, 10**6)), *map(draw, densities))
    kind = draw(st.sampled_from(("independent", "relabelled", "retargeted")))
    if kind == "independent":
        return left, _random_small(
            n, draw(st.integers(0, 10**6)), *map(draw, densities)
        )
    right = left
    n_transitions = len(left.external) + len(left.internal)
    if kind == "retargeted" and n_transitions:
        right = _retargeted(
            left,
            draw(st.integers(0, n_transitions - 1)),
            draw(st.sampled_from(sorted(left.states, key=repr))),
        )
    states = sorted(right.states, key=repr)
    image = draw(st.permutations(states))
    return left, right.map_states({s: f"q{t}" for s, t in zip(states, image)})


@settings(max_examples=200, deadline=None)
@given(spec_pairs())
def test_isomorphic_matches_brute_force_over_bijections(pair):
    left, right = pair
    assert isomorphic(left, right) == brute_isomorphic(left, right)


class TestStrongBisimilarity:
    def test_bisimilar_unfoldings(self):
        # 0 -a-> 1 -a-> 0   vs a single self-loop state: bisimilar
        loop2 = (
            SpecBuilder("m2").external(0, "a", 1).external(1, "a", 0).initial(0).build()
        )
        loop1 = SpecBuilder("m1").external(0, "a", 0).initial(0).build()
        assert strongly_bisimilar(loop1, loop2)

    def test_not_bisimilar_on_branching(self):
        # a then (b or c) chosen upfront vs chosen after a
        early = (
            SpecBuilder("e")
            .external(0, "a", 1)
            .external(0, "a", 2)
            .external(1, "b", 0)
            .external(2, "c", 0)
            .initial(0)
            .build()
        )
        late = (
            SpecBuilder("l")
            .external(0, "a", 1)
            .external(1, "b", 0)
            .external(1, "c", 0)
            .initial(0)
            .build()
        )
        assert not strongly_bisimilar(early, late)
        # ... but they are trace equivalent
        assert trace_equivalent(early, late)

    def test_lambda_treated_as_action(self):
        with_l = SpecBuilder("m").internal(0, 1).external(1, "a", 0).initial(0).build()
        without = SpecBuilder("m").external(0, "a", 1).external(1, "a", 0).initial(0).build()
        assert not strongly_bisimilar(with_l, without)

    def test_alphabet_mismatch(self):
        assert not strongly_bisimilar(two_state_loop(), two_state_loop(e2="z"))


class TestWeakTraceBisimilarity:
    def test_absorbs_internal_steps(self):
        direct = SpecBuilder("d").external(0, "a", 1).initial(0).build()
        padded = (
            SpecBuilder("p")
            .internal(0, 1)
            .external(1, "a", 2)
            .initial(0)
            .build()
        )
        assert weakly_trace_bisimilar(direct, padded)

    def test_distinguishes_behaviour(self):
        a_only = SpecBuilder("a").external(0, "a", 1).initial(0).build()
        ab = (
            SpecBuilder("ab").external(0, "a", 1).external(0, "b", 1)
            .initial(0).build()
        )
        assert not weakly_trace_bisimilar(a_only, ab)


class TestTraceEquivalence:
    def test_reflexive(self, alternator):
        assert trace_equivalent(alternator, alternator)

    def test_detects_language_difference(self, alternator):
        shorter = SpecBuilder("s").external(0, "acc", 1).event("del").initial(0).build()
        assert not trace_equivalent(alternator, shorter)

    def test_ignores_structure(self):
        folded = two_state_loop()
        unfolded = (
            SpecBuilder("u")
            .external(0, "a", 1)
            .external(1, "b", 2)
            .external(2, "a", 3)
            .external(3, "b", 0)
            .initial(0)
            .build()
        )
        assert trace_equivalent(folded, unfolded)

    def test_nondeterminism_vs_determinism(self, lossy_hop):
        from repro.spec import determinize

        assert trace_equivalent(lossy_hop, determinize(lossy_hop))

    def test_alphabet_mismatch_is_inequivalence(self):
        a = SpecBuilder("a").external(0, "a", 0).initial(0).build()
        b = SpecBuilder("b").external(0, "a", 0).event("extra").initial(0).build()
        assert not trace_equivalent(a, b)
