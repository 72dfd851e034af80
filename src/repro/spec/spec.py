"""The specification model of Section 3.

A specification is the tuple ``(S, Σ, T, λ, s0)``:

* ``S`` — a nonempty finite set of states,
* ``Σ`` — a finite set of event names (the component's entire interface),
* ``T ⊆ S × Σ × S`` — the external transition relation,
* ``λ ⊆ S × S`` — the internal transition relation,
* ``s0 ∈ S`` — the initial state.

External events model synchronized interaction with the environment: an
event can occur only when enabled on *both* sides of the interface.
Internal transitions occur under the component's exclusive control and
introduce nondeterminism.

:class:`Specification` instances are immutable value objects.  States may be
any hashable values (strings, ints, tuples, frozensets); all algorithms in
the library return new specifications rather than mutating inputs.  Equality
is structural (same name is *not* required); use
:mod:`repro.spec.equivalence` for isomorphism or behavioural equivalence.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Iterator, Mapping

from ..errors import SpecError
from ..events import Alphabet, Event

State = Hashable
"""A specification state: any hashable value."""

ExternalTransition = tuple[State, Event, State]
InternalTransition = tuple[State, State]


def _state_sort_key(state: State) -> tuple[str, str]:
    """Deterministic ordering key for heterogeneous hashable states."""
    return (type(state).__name__, repr(state))


_EMPTY: frozenset = frozenset()


class Specification:
    """An immutable finite-state specification ``(S, Σ, T, λ, s0)``.

    Parameters
    ----------
    name:
        Human-readable identifier used in error messages and rendering.
    states:
        The state set ``S``.  Must be nonempty and contain ``initial``.
    alphabet:
        The event set ``Σ``.  May include events with no transitions (the
        interface is declared, not inferred: an event in ``Σ`` that is never
        enabled is how a component *refuses* that event forever).
    external:
        The relation ``T`` as ``(state, event, state)`` triples.
    internal:
        The relation ``λ`` as ``(state, state)`` pairs.  Self-loops are
        permitted but are semantically inert (``λ*`` is reflexive anyway)
        and are dropped during construction.
    initial:
        The distinguished initial state ``s0``.
    """

    __slots__ = (
        "_name",
        "_states",
        "_alphabet",
        "_external",
        "_internal",
        "_initial",
        "_ext_adj",
        "_int_adj",
        "_order",
        "_rank",
        "_enabled",
        "_hash",
    )

    def __init__(
        self,
        name: str,
        states: Iterable[State],
        alphabet: Iterable[Event],
        external: Iterable[ExternalTransition],
        internal: Iterable[InternalTransition],
        initial: State,
    ) -> None:
        self._name = str(name)
        self._states = frozenset(states)
        self._alphabet = Alphabet(alphabet)
        self._external = frozenset(
            (s, e, s2) for (s, e, s2) in (tuple(t) for t in external)
        )
        self._internal = frozenset(
            (s, s2) for (s, s2) in (tuple(t) for t in internal) if s != s2
        )
        self._initial = initial
        self._validate()

        # Forward adjacency, built once (specs are immutable): every
        # algorithm walks T and λ forward from s0.  The inner successor
        # sets are frozen here so the query methods can hand them out
        # directly without a per-call copy.
        ext_adj: dict[State, dict[Event, set[State]]] = {s: {} for s in self._states}
        for s, e, s2 in self._external:
            ext_adj[s].setdefault(e, set()).add(s2)
        int_adj: dict[State, set[State]] = {s: set() for s in self._states}
        for s, s2 in self._internal:
            int_adj[s].add(s2)
        self._ext_adj = {
            s: {e: frozenset(targets) for e, targets in adj.items()}
            for s, adj in ext_adj.items()
        }
        self._int_adj = {s: frozenset(targets) for s, targets in int_adj.items()}
        # Deterministic state order, computed once: _state_sort_key builds a
        # repr() per state, so caching the order here means sorting anywhere
        # else in the library is a cheap integer-rank sort.
        self._order = tuple(sorted(self._states, key=_state_sort_key))
        self._rank = {s: i for i, s in enumerate(self._order)}
        self._enabled = {
            s: Alphabet(e for e, targets in adj.items() if targets)
            for s, adj in self._ext_adj.items()
        }
        self._hash = hash(
            (self._states, self._alphabet, self._external, self._internal,
             self._initial)
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self._states:
            raise SpecError("state set must be nonempty", spec_name=self._name)
        if self._initial not in self._states:
            raise SpecError(
                f"initial state {self._initial!r} not in state set",
                spec_name=self._name,
            )
        for s, e, s2 in self._external:
            if s not in self._states:
                raise SpecError(
                    f"external transition source {s!r} not in state set",
                    spec_name=self._name,
                )
            if s2 not in self._states:
                raise SpecError(
                    f"external transition target {s2!r} not in state set",
                    spec_name=self._name,
                )
            if e not in self._alphabet:
                raise SpecError(
                    f"transition event {e!r} not in alphabet",
                    spec_name=self._name,
                )
        for s, s2 in self._internal:
            if s not in self._states or s2 not in self._states:
                raise SpecError(
                    f"internal transition ({s!r}, {s2!r}) references unknown state",
                    spec_name=self._name,
                )

    # ------------------------------------------------------------------
    # components of the tuple
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human-readable identifier."""
        return self._name

    @property
    def states(self) -> frozenset[State]:
        """The state set ``S``."""
        return self._states

    @property
    def alphabet(self) -> Alphabet:
        """The event set ``Σ`` (the component's complete interface)."""
        return self._alphabet

    @property
    def external(self) -> frozenset[ExternalTransition]:
        """The external transition relation ``T``."""
        return self._external

    @property
    def internal(self) -> frozenset[InternalTransition]:
        """The internal transition relation ``λ`` (self-loops removed)."""
        return self._internal

    @property
    def initial(self) -> State:
        """The initial state ``s0``."""
        return self._initial

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def successors(self, state: State, event: Event) -> frozenset[State]:
        """States ``s'`` with ``state --event--> s'`` in ``T``."""
        return self._ext_adj[state].get(event, _EMPTY)

    def internal_successors(self, state: State) -> frozenset[State]:
        """States reachable from *state* by a single λ step."""
        return self._int_adj[state]

    def enabled(self, state: State) -> Alphabet:
        """``τ.s`` — the external events enabled in *state*.

        ``e ∈ τ.s ≡ (∃s' : s --e--> s')``
        """
        return self._enabled[state]

    def sorted_by_rank(self, states: Iterable[State]) -> list[State]:
        """*states* (members of this spec) in the deterministic order.

        Equivalent to sorting by :func:`_state_sort_key`, but the repr-based
        key is computed once per state at construction instead of once per
        comparison.
        """
        return sorted(states, key=self._rank.__getitem__)

    def has_internal(self, state: State) -> bool:
        """True if *state* has at least one outgoing internal transition."""
        return bool(self._int_adj[state])

    def out_transitions(self, state: State) -> Iterator[tuple[Event, State]]:
        """All external transitions leaving *state*, deterministically ordered."""
        adj = self._ext_adj[state]
        rank = self._rank
        for e in sorted(adj):
            for s2 in sorted(adj[e], key=rank.__getitem__):
                yield e, s2

    def is_deterministic(self) -> bool:
        """True if the spec has no internal transitions and no event fan-out."""
        if self._internal:
            return False
        return all(
            len(targets) <= 1
            for adj in self._ext_adj.values()
            for targets in adj.values()
        )

    def sorted_states(self) -> list[State]:
        """States in a deterministic order (initial state first)."""
        return [
            self._initial,
            *(s for s in self._order if s != self._initial),
        ]

    # ------------------------------------------------------------------
    # structural helpers
    # ------------------------------------------------------------------
    def renamed(self, name: str) -> "Specification":
        """A copy of this specification with a different display name.

        The copy shares this one's relations and indexes, which are never
        mutated after construction, so renaming is O(1): nothing is
        re-validated, re-sorted or rebuilt.
        """
        copy = Specification.__new__(Specification)
        for slot in Specification.__slots__:
            setattr(copy, slot, getattr(self, slot))
        copy._name = str(name)
        return copy

    def map_states(self, mapping: Mapping[State, State] | None = None) -> "Specification":
        """Apply a state-relabeling bijection.

        With ``mapping=None``, states are canonically renumbered 0..n-1 in
        breadth-first order from the initial state (unreachable states are
        appended in deterministic order).  Raises :class:`SpecError` if the
        mapping is not injective on the state set.
        """
        if mapping is None:
            mapping = {s: i for i, s in enumerate(self._bfs_order())}
        image = [mapping[s] for s in self._states]
        if len(set(image)) != len(image):
            raise SpecError("state mapping is not injective", spec_name=self._name)
        return Specification(
            self._name,
            image,
            self._alphabet,
            ((mapping[s], e, mapping[s2]) for s, e, s2 in self._external),
            ((mapping[s], mapping[s2]) for s, s2 in self._internal),
            mapping[self._initial],
        )

    def _bfs_order(self) -> list[State]:
        """States in BFS order from the initial state, deterministic."""
        rank = self._rank
        order: list[State] = []
        seen: set[State] = set()
        frontier: deque[State] = deque([self._initial])
        seen.add(self._initial)
        while frontier:
            state = frontier.popleft()
            order.append(state)
            nexts: list[State] = []
            for e in sorted(self._ext_adj[state]):
                nexts.extend(
                    sorted(self._ext_adj[state][e], key=rank.__getitem__)
                )
            nexts.extend(sorted(self._int_adj[state], key=rank.__getitem__))
            for s2 in nexts:
                if s2 not in seen:
                    seen.add(s2)
                    frontier.append(s2)
        order.extend(s for s in self._order if s not in seen)
        return order

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Specification):
            return NotImplemented
        return (
            self._states == other._states
            and self._alphabet == other._alphabet
            and self._external == other._external
            and self._internal == other._internal
            and self._initial == other._initial
        )

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:
        return (
            f"<Specification {self._name!r}: {len(self._states)} states, "
            f"{len(self._alphabet)} events, {len(self._external)} external, "
            f"{len(self._internal)} internal>"
        )
