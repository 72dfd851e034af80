"""Unit tests for the Specification value object."""

import pytest

from repro.errors import SpecError
from repro.events import Alphabet
from repro.spec import SpecBuilder, Specification


def make(name="M", **kw):
    defaults = dict(
        states=[0, 1],
        alphabet=["a", "b"],
        external=[(0, "a", 1)],
        internal=[(1, 0)],
        initial=0,
    )
    defaults.update(kw)
    return Specification(name, **defaults)


class TestConstruction:
    def test_minimal_spec(self):
        spec = Specification("m", [0], [], [], [], 0)
        assert spec.states == frozenset([0])
        assert spec.initial == 0
        assert len(spec) == 1

    def test_empty_states_rejected(self):
        with pytest.raises(SpecError, match="nonempty"):
            Specification("m", [], [], [], [], 0)

    def test_initial_must_be_a_state(self):
        with pytest.raises(SpecError, match="initial state"):
            Specification("m", [0], [], [], [], 7)

    def test_external_unknown_source_rejected(self):
        with pytest.raises(SpecError, match="source"):
            Specification("m", [0], ["a"], [(9, "a", 0)], [], 0)

    def test_external_unknown_target_rejected(self):
        with pytest.raises(SpecError, match="target"):
            Specification("m", [0], ["a"], [(0, "a", 9)], [], 0)

    def test_event_outside_alphabet_rejected(self):
        with pytest.raises(SpecError, match="not in alphabet"):
            Specification("m", [0], ["a"], [(0, "zz", 0)], [], 0)

    def test_internal_unknown_state_rejected(self):
        with pytest.raises(SpecError, match="unknown state"):
            Specification("m", [0], [], [], [(0, 9)], 0)

    def test_internal_self_loops_dropped(self):
        spec = Specification("m", [0, 1], [], [], [(0, 0), (0, 1)], 0)
        assert spec.internal == frozenset([(0, 1)])

    def test_alphabet_may_exceed_used_events(self):
        spec = Specification("m", [0], ["a", "ghost"], [(0, "a", 0)], [], 0)
        assert "ghost" in spec.alphabet
        assert spec.enabled(0) == Alphabet(["a"])


class TestQueries:
    def test_successors_and_predecessors(self):
        spec = make()
        assert spec.successors(0, "a") == frozenset([1])
        assert spec.successors(1, "a") == frozenset()

    def test_internal_adjacency(self):
        spec = make()
        assert spec.internal_successors(1) == frozenset([0])
        assert spec.has_internal(1)
        assert not spec.has_internal(0)

    def test_enabled_is_tau(self):
        spec = make(external=[(0, "a", 1), (0, "b", 0)])
        assert spec.enabled(0) == Alphabet(["a", "b"])
        assert spec.enabled(1) == Alphabet([])

    def test_out_transitions_deterministic_order(self):
        spec = make(external=[(0, "b", 1), (0, "a", 1), (0, "a", 0)])
        assert list(spec.out_transitions(0)) == [("a", 0), ("a", 1), ("b", 1)]

    def test_is_deterministic(self):
        assert not make().is_deterministic()  # has internal transition
        det = Specification("d", [0, 1], ["a"], [(0, "a", 1)], [], 0)
        assert det.is_deterministic()
        fan = Specification("f", [0, 1], ["a"], [(0, "a", 1), (0, "a", 0)], [], 0)
        assert not fan.is_deterministic()

    def test_sorted_states_initial_first(self):
        spec = Specification("m", [3, 1, 2], [], [], [], 2)
        states = spec.sorted_states()
        assert states[0] == 2
        assert set(states) == {1, 2, 3}


class TestValueSemantics:
    def test_equality_is_structural(self):
        assert make() == make(name="other-name")

    def test_inequality_on_transitions(self):
        assert make() != make(external=[])

    def test_hash_consistent_with_eq(self):
        assert hash(make()) == hash(make(name="other"))

    def test_usable_as_dict_key(self):
        d = {make(): "x"}
        assert d[make(name="n2")] == "x"


class TestMapStates:
    def test_canonical_relabel_bfs(self):
        spec = (
            SpecBuilder("m")
            .external("start", "a", "mid")
            .external("mid", "b", "end")
            .initial("start")
            .build()
        )
        relabeled = spec.map_states(None)
        assert relabeled.initial == 0
        assert relabeled.states == frozenset([0, 1, 2])
        assert (0, "a", 1) in relabeled.external
        assert (1, "b", 2) in relabeled.external

    def test_explicit_mapping(self):
        spec = make()
        mapped = spec.map_states({0: "zero", 1: "one"})
        assert mapped.initial == "zero"
        assert ("zero", "a", "one") in mapped.external
        assert ("one", "zero") in mapped.internal

    def test_non_injective_mapping_rejected(self):
        with pytest.raises(SpecError, match="injective"):
            make().map_states({0: "x", 1: "x"})

    def test_unreachable_states_appended(self):
        spec = Specification("m", [0, 1, 99], ["a"], [(0, "a", 1)], [], 0)
        relabeled = spec.map_states(None)
        assert relabeled.states == frozenset([0, 1, 2])

    def test_renamed_keeps_structure(self):
        spec = make()
        copy = spec.renamed("fresh")
        assert copy.name == "fresh"
        assert copy == spec and hash(copy) == hash(spec)
        assert spec.name == "M"  # the original keeps its name
        assert repr(copy) == repr(spec).replace(repr(spec.name), "'fresh'")
        for s in spec.states:
            assert copy.enabled(s) == spec.enabled(s)
            assert copy.internal_successors(s) == spec.internal_successors(s)
        assert copy.sorted_states() == spec.sorted_states()
        # O(1): the indexes are shared, not rebuilt
        assert copy._ext_adj is spec._ext_adj and copy._rank is spec._rank
