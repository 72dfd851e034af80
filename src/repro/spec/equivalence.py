"""Behavioural equivalences between specifications.

The library compares machines at three granularities:

* **isomorphism** — identical up to state renaming (used to compare
  regenerated figures with golden machines);
* **strong / weak bisimilarity** — step-for-step matching, with λ treated
  as an explicit action (strong) or absorbed (weak);
* **trace equivalence** — equal trace sets; exactly the paper's
  "satisfies with respect to safety" in both directions.

All algorithms are exact (no bounded approximation) and deterministic.
"""

from __future__ import annotations

from ..events import Event
from .graph import lambda_closure
from .normal_form import determinize
from .spec import Specification, State, _state_sort_key

_LAMBDA = object()  # distinguished "action" label for internal steps


def _signature(
    spec: Specification,
    state: State,
    block_of: dict[State, int],
) -> frozenset[tuple[object, int]]:
    """Next-step signature of *state* w.r.t. the current partition."""
    sig: set[tuple[object, int]] = set()
    for e in spec.enabled(state):
        for s2 in spec.successors(state, e):
            sig.add((e, block_of[s2]))
    for s2 in spec.internal_successors(state):
        sig.add((_LAMBDA, block_of[s2]))
    return frozenset(sig)


def strong_bisimulation_classes(
    spec: Specification,
    initial_partition: dict[State, int] | None = None,
) -> dict[State, int]:
    """Partition-refinement strong bisimulation over one spec.

    λ steps are treated as transitions on a distinguished action.  Returns
    a map from state to block index (blocks numbered deterministically).

    *initial_partition* seeds the refinement with a finer starting
    partition (refinement only ever splits blocks, so every seed split is
    preserved).  The default seed is the trivial one-block partition, which
    yields the coarsest strong bisimulation.
    """
    if initial_partition is None:
        block_of = {s: 0 for s in spec.states}
        n_blocks = 1
    else:
        block_of = dict(initial_partition)
        n_blocks = len(set(block_of.values()))
    while True:
        sig_of = {
            s: (block_of[s], _signature(spec, s, block_of)) for s in spec.states
        }
        # deterministic re-blocking
        distinct = sorted(
            {sig for sig in sig_of.values()},
            key=lambda sig: (sig[0], sorted(map(repr, sig[1]))),
        )
        index = {sig: i for i, sig in enumerate(distinct)}
        new_block_of = {s: index[sig_of[s]] for s in spec.states}
        if len(distinct) == n_blocks:
            return new_block_of
        block_of = new_block_of
        n_blocks = len(distinct)


def _disjoint_union(
    left: Specification, right: Specification
) -> tuple[Specification, State, State]:
    """One spec containing both machines side by side (tagged states)."""
    def l(s: State) -> State:
        return ("L", s)

    def r(s: State) -> State:
        return ("R", s)

    states = [l(s) for s in left.states] + [r(s) for s in right.states]
    external = [(l(s), e, l(s2)) for s, e, s2 in left.external]
    external += [(r(s), e, r(s2)) for s, e, s2 in right.external]
    internal = [(l(s), l(s2)) for s, s2 in left.internal]
    internal += [(r(s), r(s2)) for s, s2 in right.internal]
    union = Specification(
        f"{left.name}+{right.name}",
        states,
        left.alphabet | right.alphabet,
        external,
        internal,
        l(left.initial),
    )
    return union, l(left.initial), r(right.initial)


def strongly_bisimilar(left: Specification, right: Specification) -> bool:
    """True iff the initial states are strongly bisimilar (λ as an action)."""
    if left.alphabet != right.alphabet:
        return False
    union, li, ri = _disjoint_union(left, right)
    classes = strong_bisimulation_classes(union)
    return classes[li] == classes[ri]


def _weak_saturation(spec: Specification) -> Specification:
    """Saturate weak steps: add ``s ⇒e s'`` (λ* e λ*) as explicit edges.

    Internal transitions are replaced by nothing (absorbed); the saturated
    machine is suitable for *strong* bisimulation checking, yielding a
    weak-bisimilarity-like equivalence adequate for our test oracles.
    """
    closure = lambda_closure(spec)
    external: set[tuple[State, Event, State]] = set()
    for s in spec.states:
        for x in closure[s]:
            for e in spec.enabled(x):
                for y in spec.successors(x, e):
                    for s2 in closure[y]:
                        external.add((s, e, s2))
    return Specification(
        f"sat({spec.name})",
        spec.states,
        spec.alphabet,
        external,
        (),
        spec.initial,
    )


def weakly_trace_bisimilar(left: Specification, right: Specification) -> bool:
    """Bisimilarity of the weak-step saturations of the two machines.

    Coarser than strong bisimilarity, finer than trace equivalence.  (This
    is not exactly branching/weak bisimulation — saturation loses some
    divergence structure — but it is a sound behavioural comparison for the
    λ-free machines the quotient algorithm produces, and tests use it as
    such.)
    """
    if left.alphabet != right.alphabet:
        return False
    return strongly_bisimilar(_weak_saturation(left), _weak_saturation(right))


def trace_equivalent(left: Specification, right: Specification) -> bool:
    """Exact trace-set equality (two-way safety satisfaction)."""
    if left.alphabet != right.alphabet:
        return False
    dl = determinize(left)
    dr = determinize(right)
    seen: set[tuple[State, State]] = set()
    frontier: list[tuple[State, State]] = [(dl.initial, dr.initial)]
    seen.add((dl.initial, dr.initial))
    while frontier:
        a, b = frontier.pop()
        ea, eb = dl.enabled(a), dr.enabled(b)
        if ea != eb:
            return False
        for e in sorted(ea):
            (a2,) = dl.successors(a, e)
            (b2,) = dr.successors(b, e)
            if (a2, b2) not in seen:
                seen.add((a2, b2))
                frontier.append((a2, b2))
    return True


def isomorphic(left: Specification, right: Specification) -> bool:
    """Exact isomorphism: a state bijection preserving all structure.

    Backtracking search seeded from the initial states, pruned by local
    degree signatures and bisimulation classes.  Intended for the small
    machines in figures and tests, so the in-degree pruning builds its
    reverse index of ``T`` and ``λ`` here, once per call, rather than
    every :class:`Specification` carrying one.
    """
    if left.alphabet != right.alphabet:
        return False
    if len(left.states) != len(right.states):
        return False
    if len(left.external) != len(right.external):
        return False
    if len(left.internal) != len(right.internal):
        return False

    union, li, ri = _disjoint_union(left, right)
    classes = strong_bisimulation_classes(union)

    def klass(side: str, s: State) -> int:
        return classes[(side, s)]

    left_ext_in, left_int_in = _reverse_index(left)
    right_ext_in, right_int_in = _reverse_index(right)

    def local_sig(spec: Specification, ext_in, int_in, s: State):
        out = tuple(
            sorted((e, len(spec.successors(s, e))) for e in spec.enabled(s))
        )
        inn = tuple(sorted((e, len(sources)) for e, sources in ext_in[s].items()))
        return (
            out,
            inn,
            len(spec.internal_successors(s)),
            len(int_in[s]),
        )

    left_states = sorted(left.states, key=_state_sort_key)
    right_states = sorted(right.states, key=_state_sort_key)

    mapping: dict[State, State] = {}
    used: set[State] = set()

    def compatible(a: State, b: State) -> bool:
        if klass("L", a) != klass("R", b):
            return False
        if local_sig(left, left_ext_in, left_int_in, a) != local_sig(
            right, right_ext_in, right_int_in, b
        ):
            return False
        return True

    def consistent(a: State, b: State) -> bool:
        # all already-mapped neighbours must correspond
        for e in left.alphabet:
            for a2 in left.successors(a, e):
                if a2 in mapping and mapping[a2] not in right.successors(b, e):
                    return False
            for a2 in left_ext_in[a].get(e, ()):
                if a2 in mapping and mapping[a2] not in right_ext_in[b].get(e, ()):
                    return False
        for a2 in left.internal_successors(a):
            if a2 in mapping and mapping[a2] not in right.internal_successors(b):
                return False
        for a2 in left_int_in[a]:
            if a2 in mapping and mapping[a2] not in right_int_in[b]:
                return False
        return True

    def extend(idx: int) -> bool:
        if idx == len(left_states):
            return _verify_iso(left, right, mapping)
        a = left_states[idx]
        if a in mapping:
            return extend(idx + 1)
        for b in right_states:
            if b in used or not compatible(a, b):
                continue
            mapping[a] = b
            used.add(b)
            if consistent(a, b) and extend(idx + 1):
                return True
            del mapping[a]
            used.discard(b)
        return False

    if not compatible(left.initial, right.initial):
        return False
    mapping[left.initial] = right.initial
    used.add(right.initial)
    # put the initial state first in the ordering
    left_states.remove(left.initial)
    left_states.insert(0, left.initial)
    return extend(1)


def _reverse_index(
    spec: Specification,
) -> tuple[dict[State, dict[Event, set[State]]], dict[State, set[State]]]:
    """Per state, its ``T`` sources by event and its ``λ`` sources."""
    ext_in: dict[State, dict[Event, set[State]]] = {s: {} for s in spec.states}
    for s, e, s2 in spec.external:
        ext_in[s2].setdefault(e, set()).add(s)
    int_in: dict[State, set[State]] = {s: set() for s in spec.states}
    for s, s2 in spec.internal:
        int_in[s2].add(s)
    return ext_in, int_in


def _verify_iso(
    left: Specification, right: Specification, mapping: dict[State, State]
) -> bool:
    ext = {(mapping[s], e, mapping[s2]) for s, e, s2 in left.external}
    if ext != set(right.external):
        return False
    inn = {(mapping[s], mapping[s2]) for s, s2 in left.internal}
    if inn != set(right.internal):
        return False
    return mapping[left.initial] == right.initial
