"""Graph-theoretic primitives over specifications.

Every phase of the paper's theory reduces to a handful of graph questions
about the internal-transition relation ``λ`` and the external relation ``T``:

* ``λ*`` — reflexive-transitive closure of ``λ`` (Section 3);
* **sink sets** — cycles of internal transitions with no internal transition
  leaving the cycle; under the fairness assumption a system dwelling in a
  sink set behaves like a single state whose enabled events are the union
  over the cycle (Fig. 4).  ``sink.s ≡ (∀s' : s λ* s' ⇒ s' λ* s)``;
* ``τ.s`` — external events enabled in ``s``;
* ``τ*.s`` — external events enabled in any state internally reachable from
  ``s``.

All functions are pure and deterministic.  Whole-spec variants return dicts
keyed by state and are computed in linear(ish) time via Tarjan's SCC
algorithm and condensation-DAG propagation, since the satisfaction and
quotient phases query every state.  :func:`strongly_connected` is the one
Tarjan implementation; the compiled kernel, the progress phase's product
τ* crawls and the semantic analyzer all condense through it.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, TypeVar

from .. import obs
from ..events import Alphabet, Event
from .spec import Specification, State, _state_sort_key


# ----------------------------------------------------------------------
# λ* closure
# ----------------------------------------------------------------------
def lambda_closure_of(spec: Specification, state: State) -> frozenset[State]:
    """``{s' : state λ* s'}`` — forward internal closure of one state."""
    seen = {state}
    stack = [state]
    while stack:
        s = stack.pop()
        for s2 in spec.internal_successors(s):
            if s2 not in seen:
                seen.add(s2)
                stack.append(s2)
    return frozenset(seen)


def close_under_lambda(spec: Specification, states: Iterable[State]) -> frozenset[State]:
    """Forward internal closure of a *set* of states."""
    seen = set(states)
    stack = list(seen)
    while stack:
        s = stack.pop()
        for s2 in spec.internal_successors(s):
            if s2 not in seen:
                seen.add(s2)
                stack.append(s2)
    return frozenset(seen)


def lambda_closure(spec: Specification) -> dict[State, frozenset[State]]:
    """``λ*`` for every state, as a dict ``s -> {s' : s λ* s'}``.

    Computed via the condensation of the λ-graph so shared suffixes are not
    re-explored per state.
    """
    obs.add("graph.lambda_closure_runs", 1)
    sccs, scc_of = internal_sccs(spec)
    # components arrive successors-first, so one pass closes them all
    scc_closure: list[set[int]] = []
    for idx, component in enumerate(sccs):
        result = {idx}
        for s in component:
            for s2 in spec.internal_successors(s):
                j = scc_of[s2]
                if j != idx:
                    result |= scc_closure[j]
        scc_closure.append(result)
    closure: dict[State, frozenset[State]] = {}
    scc_states: list[frozenset[State]] = [frozenset(c) for c in sccs]
    expanded: list[frozenset[State]] = []
    for idx in range(len(sccs)):
        members: set[State] = set()
        for j in scc_closure[idx]:
            members |= scc_states[j]
        expanded.append(frozenset(members))
    for s in spec.states:
        closure[s] = expanded[scc_of[s]]
    return closure


# ----------------------------------------------------------------------
# strongly connected components (Tarjan, iterative)
# ----------------------------------------------------------------------
_Node = TypeVar("_Node", bound=Hashable)


def strongly_connected(
    roots: Iterable[_Node], succ: Callable[[_Node], Iterable[_Node]]
) -> tuple[list[list[_Node]], dict[_Node, int]]:
    """Tarjan SCCs of the graph reachable from *roots*.

    Roots are tried in the order given and each node's successors are
    followed in the order ``succ(node)`` yields them.  Returns
    ``(components, scc_of)``: ``components[i]`` lists the members of
    component ``i`` in the order they leave Tarjan's stack, and
    ``scc_of`` maps every reached node to its component index.

    Components come **successors-first**: for every edge ``u → v``,
    ``scc_of[v] <= scc_of[u]``, so one pass in index order propagates a
    value along the condensation DAG.  Equal root and successor orders
    give equal output.
    """
    index: dict[_Node, int] = {}
    lowlink: dict[_Node, int] = {}
    on_stack: set[_Node] = set()
    stack: list[_Node] = []
    components: list[list[_Node]] = []
    scc_of: dict[_Node, int] = {}
    for root in roots:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            node, succ_iter = work[-1]
            for nxt in succ_iter:
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ(nxt))))
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    comp_idx = len(components)
                    component: list[_Node] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc_of[member] = comp_idx
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components, scc_of


def internal_sccs(
    spec: Specification,
) -> tuple[list[list[State]], dict[State, int]]:
    """Tarjan SCCs of the internal-transition graph.

    Returns ``(components, index_of)`` where ``components[i]`` lists the
    member states of SCC ``i`` and ``index_of[s]`` maps each state to its
    component index.  Deterministic: states are visited in sorted order.
    """

    def succ(state: State) -> list[State]:
        return sorted(spec.internal_successors(state), key=_state_sort_key)

    components, scc_of = strongly_connected(
        sorted(spec.states, key=_state_sort_key), succ
    )
    obs.add("graph.scc_runs", 1)
    obs.add("graph.scc_components", len(components))
    return components, scc_of


# ----------------------------------------------------------------------
# sink sets
# ----------------------------------------------------------------------
def sink_sets(spec: Specification) -> list[frozenset[State]]:
    """All sink sets of the specification, deterministically ordered.

    A sink set is a λ-SCC with no internal transition leaving it — the
    "cycle of internal transitions with no internal transitions leaving the
    cycle" of Section 3 (a single state with no outgoing internal transition
    is the trivial case).
    """
    sccs, scc_of = internal_sccs(spec)
    sinks: list[frozenset[State]] = []
    for idx, component in enumerate(sccs):
        leaves = any(
            scc_of[s2] != idx
            for s in component
            for s2 in spec.internal_successors(s)
        )
        if not leaves:
            sinks.append(frozenset(component))
    sinks.sort(key=lambda c: sorted(map(_state_sort_key, c)))
    return sinks


def sink_states(spec: Specification) -> frozenset[State]:
    """``{s : sink.s}`` — all states belonging to some sink set."""
    return frozenset(s for component in sink_sets(spec) for s in component)


def is_sink(spec: Specification, state: State) -> bool:
    """The predicate ``sink.s ≡ (∀s' : s λ* s' ⇒ s' λ* s)``."""
    forward = lambda_closure_of(spec, state)
    return all(state in lambda_closure_of(spec, s2) for s2 in forward)


def reachable_sink_sets(
    spec: Specification, state: State
) -> list[frozenset[State]]:
    """Sink sets reachable from *state* via ``λ*`` (deterministic order).

    Used by the progress predicate: ``prog.a.b`` quantifies over the sink
    sets internally reachable from ``a``.
    """
    forward = lambda_closure_of(spec, state)
    return [sink for sink in sink_sets(spec) if sink & forward]


# ----------------------------------------------------------------------
# τ and τ*
# ----------------------------------------------------------------------
def tau(spec: Specification, state: State) -> Alphabet:
    """``τ.s`` — external events enabled in *state* (alias of ``enabled``)."""
    return spec.enabled(state)


def tau_star_of(spec: Specification, state: State) -> Alphabet:
    """``τ*.s`` — events enabled in any state internally reachable from *state*."""
    events: set[Event] = set()
    for s2 in lambda_closure_of(spec, state):
        events |= spec.enabled(s2)
    return Alphabet(events)


def tau_star(spec: Specification) -> dict[State, Alphabet]:
    """``τ*`` for every state at once (condensation-DAG propagation)."""
    obs.add("graph.tau_star_runs", 1)
    sccs, scc_of = internal_sccs(spec)
    scc_events: list[set[Event]] = []
    for idx, component in enumerate(sccs):
        events: set[Event] = set()
        for s in component:
            events |= spec.enabled(s)
            for s2 in spec.internal_successors(s):
                j = scc_of[s2]
                if j != idx:
                    events |= scc_events[j]
        scc_events.append(events)
    return {s: Alphabet(scc_events[scc_of[s]]) for s in spec.states}


def sink_acceptance_sets(spec: Specification, state: State) -> list[Alphabet]:
    """Acceptance sets of the sink sets internally reachable from *state*.

    Each sink set contributes the union of events enabled anywhere on its
    cycle (``τ*`` of any member).  This is the menu of "what the system may
    end up offering" that the progress definition quantifies over.
    """
    result = []
    for sink in reachable_sink_sets(spec, state):
        events: set[Event] = set()
        for s in sink:
            events |= spec.enabled(s)
        result.append(Alphabet(events))
    return result


# ----------------------------------------------------------------------
# reachability over the full transition structure
# ----------------------------------------------------------------------
def reachable_states(spec: Specification, origin: State | None = None) -> frozenset[State]:
    """States reachable from *origin* (default: initial) via ``T ∪ λ``."""
    start = spec.initial if origin is None else origin
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        nexts: set[State] = set(spec.internal_successors(s))
        for e in spec.enabled(s):
            nexts |= spec.successors(s, e)
        for s2 in nexts:
            if s2 not in seen:
                seen.add(s2)
                stack.append(s2)
    return frozenset(seen)


def find_path(
    spec: Specification,
    goal: Callable[[State], bool],
    origin: State | None = None,
) -> list[Event | None] | None:
    """Shortest path (BFS) from *origin* to a state satisfying *goal*.

    Returns the edge labels along the path — an event name for an external
    step, ``None`` for an internal step — or ``None`` if no such state is
    reachable.  Deterministic tie-breaking.
    """
    start = spec.initial if origin is None else origin
    if goal(start):
        return []
    parent: dict[State, tuple[State, Event | None]] = {}
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier: list[State] = []
        for s in frontier:
            steps: list[tuple[Event | None, State]] = []
            for e in sorted(spec.enabled(s)):
                steps.extend((e, s2) for s2 in sorted(spec.successors(s, e), key=_state_sort_key))
            steps.extend((None, s2) for s2 in sorted(spec.internal_successors(s), key=_state_sort_key))
            for label, s2 in steps:
                if s2 in seen:
                    continue
                seen.add(s2)
                parent[s2] = (s, label)
                if goal(s2):
                    path: list[Event | None] = []
                    cursor = s2
                    while cursor != start:
                        prev, lab = parent[cursor]
                        path.append(lab)
                        cursor = prev
                    path.reverse()
                    return path
                next_frontier.append(s2)
        frontier = next_frontier
    return None
