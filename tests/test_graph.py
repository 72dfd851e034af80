"""Unit tests for graph primitives: λ*, SCCs, sink sets, τ*."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import Alphabet
from repro.spec import SpecBuilder
from repro.spec.graph import (
    close_under_lambda,
    find_path,
    internal_sccs,
    is_sink,
    lambda_closure,
    lambda_closure_of,
    reachable_sink_sets,
    reachable_states,
    sink_acceptance_sets,
    sink_sets,
    sink_states,
    strongly_connected,
    tau,
    tau_star,
    tau_star_of,
)


def chain():
    """0 λ 1 λ 2, with externals on 0 and 2."""
    return (
        SpecBuilder("chain")
        .internal(0, 1)
        .internal(1, 2)
        .external(0, "a", 0)
        .external(2, "c", 0)
        .initial(0)
        .build()
    )


def fig4_left():
    """The paper's Fig. 4 left machine: a two-state internal cycle offering
    f and g, entered via e."""
    return (
        SpecBuilder("fig4")
        .external("s", "e", "p")
        .internal("p", "q")
        .internal("q", "p")
        .external("p", "f", "s")
        .external("q", "g", "s")
        .initial("s")
        .build()
    )


class TestLambdaClosure:
    def test_single_state_closure(self):
        spec = chain()
        assert lambda_closure_of(spec, 0) == frozenset([0, 1, 2])
        assert lambda_closure_of(spec, 1) == frozenset([1, 2])
        assert lambda_closure_of(spec, 2) == frozenset([2])

    def test_closure_is_reflexive(self):
        spec = chain()
        for s in spec.states:
            assert s in lambda_closure_of(spec, s)

    def test_set_closure(self):
        spec = chain()
        assert close_under_lambda(spec, [1]) == frozenset([1, 2])
        assert close_under_lambda(spec, [0, 2]) == frozenset([0, 1, 2])

    def test_whole_spec_closure_matches_pointwise(self):
        spec = fig4_left()
        table = lambda_closure(spec)
        for s in spec.states:
            assert table[s] == lambda_closure_of(spec, s)

    def test_closure_through_cycle(self):
        spec = fig4_left()
        assert lambda_closure_of(spec, "p") == frozenset(["p", "q"])
        assert lambda_closure_of(spec, "q") == frozenset(["p", "q"])


class TestSCC:
    def test_cycle_is_one_component(self):
        spec = fig4_left()
        components, scc_of = internal_sccs(spec)
        cycle = {frozenset(c) for c in components if len(c) > 1}
        assert cycle == {frozenset(["p", "q"])}
        assert scc_of["p"] == scc_of["q"]

    def test_acyclic_gives_singletons(self):
        spec = chain()
        components, _ = internal_sccs(spec)
        assert all(len(c) == 1 for c in components)
        assert len(components) == 3

    def test_every_state_assigned(self):
        spec = fig4_left()
        _, scc_of = internal_sccs(spec)
        assert set(scc_of) == set(spec.states)


@st.composite
def digraphs(draw):
    """``(adjacency, roots)``: up to 8 nodes, random successor and root order."""
    n = draw(st.integers(min_value=1, max_value=8))
    adjacency = [
        draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        for _ in range(n)
    ]
    roots = draw(st.permutations(range(n)))
    return adjacency, roots


def _reach(adjacency, source):
    seen = {source}
    stack = [source]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


class TestStronglyConnected:
    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_components_order_and_determinism(self, graph):
        adjacency, roots = graph
        n = len(adjacency)
        components, scc_of = strongly_connected(roots, adjacency.__getitem__)

        # an exact partition into mutual-reachability classes
        reach = [_reach(adjacency, u) for u in range(n)]
        classes = {frozenset(v for v in reach[u] if u in reach[v]) for u in range(n)}
        assert sorted(m for c in components for m in c) == list(range(n))
        assert {frozenset(c) for c in components} == classes
        for idx, members in enumerate(components):
            assert all(scc_of[m] == idx for m in members)

        # successors-first: one pass in index order sees every successor
        for u, succs in enumerate(adjacency):
            for v in succs:
                assert scc_of[v] <= scc_of[u]

        # equal orders, equal output
        again = strongly_connected(list(roots), lambda u: list(adjacency[u]))
        assert again == (components, scc_of)
        assert list(again[1].items()) == list(scc_of.items())


class TestSinkSets:
    def test_cycle_with_no_exit_is_sink(self):
        spec = fig4_left()
        assert frozenset(["p", "q"]) in sink_sets(spec)
        assert is_sink(spec, "p")
        assert is_sink(spec, "q")

    def test_state_without_internal_out_is_trivial_sink(self):
        spec = fig4_left()
        assert frozenset(["s"]) in sink_sets(spec)
        assert is_sink(spec, "s")

    def test_state_with_internal_exit_is_not_sink(self):
        spec = chain()
        assert not is_sink(spec, 0)
        assert not is_sink(spec, 1)
        assert is_sink(spec, 2)
        assert sink_states(spec) == frozenset([2])

    def test_cycle_with_exit_is_not_sink(self):
        spec = (
            SpecBuilder("m")
            .internal(0, 1)
            .internal(1, 0)
            .internal(1, 2)
            .external(2, "x", 2)
            .initial(0)
            .build()
        )
        assert sink_states(spec) == frozenset([2])

    def test_reachable_sink_sets(self):
        spec = chain()
        assert reachable_sink_sets(spec, 0) == [frozenset([2])]
        assert reachable_sink_sets(spec, 2) == [frozenset([2])]


class TestTauStar:
    def test_tau_is_enabled(self, internal_cycle):
        assert tau(internal_cycle, 0) == Alphabet(["e"])

    def test_tau_star_unions_over_closure(self):
        spec = chain()
        assert tau_star_of(spec, 0) == Alphabet(["a", "c"])
        assert tau_star_of(spec, 1) == Alphabet(["c"])

    def test_tau_star_whole_spec_matches_pointwise(self):
        spec = fig4_left()
        table = tau_star(spec)
        for s in spec.states:
            assert table[s] == tau_star_of(spec, s)

    def test_fig4_collapse_property(self):
        """The paper's Fig. 4: the sink cycle offers {f, g} as one unit."""
        spec = fig4_left()
        assert tau_star_of(spec, "p") == Alphabet(["f", "g"])
        assert tau_star_of(spec, "q") == Alphabet(["f", "g"])

    def test_sink_acceptance_sets(self):
        spec = fig4_left()
        [accept] = sink_acceptance_sets(spec, "p")
        assert accept == Alphabet(["f", "g"])

    def test_acceptance_menu_from_hub(self, nondet_choice):
        menu = sink_acceptance_sets(nondet_choice, "hub")
        assert sorted(tuple(sorted(m)) for m in menu) == [("l",), ("r",)]


class TestReachability:
    def test_reachable_states_all(self, relay):
        assert reachable_states(relay) == frozenset([0, 1, 2, 3])

    def test_reachable_excludes_orphans(self):
        spec = (
            SpecBuilder("m").external(0, "a", 1).state(99).initial(0).build()
        )
        assert 99 not in reachable_states(spec)

    def test_reachable_follows_internal(self):
        spec = chain()
        assert reachable_states(spec) == frozenset([0, 1, 2])


class TestFindPath:
    def test_trivial_path(self, relay):
        assert find_path(relay, lambda s: s == 0) == []

    def test_shortest_external_path(self, relay):
        assert find_path(relay, lambda s: s == 2) == ["x", "m"]

    def test_path_with_internal_steps(self):
        spec = chain()
        assert find_path(spec, lambda s: s == 2) == [None, None]

    def test_unreachable_returns_none(self):
        spec = (
            SpecBuilder("m").external(0, "a", 1).state(99).initial(0).build()
        )
        assert find_path(spec, lambda s: s == 99) is None
