"""Satisfaction with respect to safety (Section 3).

``B satisfies A with respect to safety`` iff every trace of B is a trace of
A: ``∀t : B.t ⇒ A.t``.  Both specifications must have the same interface
(alphabet).

The check runs a product walk pairing each reachable state of ``B`` with the
λ-closed subset of ``A``-states reachable by the same trace (an on-the-fly
determinization of ``A``).  It is exact, terminates on all finite specs, and
produces a shortest counterexample trace when inclusion fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AlphabetError
from ..events import Alphabet, Event
from ..spec.compiled import CompiledSpec, compiled, iter_bits, kernel_enabled
from ..spec.graph import close_under_lambda
from ..spec.spec import Specification, State, _state_sort_key
from ..traces.core import Trace, format_trace
from ..traces.language import subset_step


@dataclass(frozen=True)
class SafetyResult:
    """Outcome of a safety-satisfaction check.

    ``holds`` — whether ``∀t : B.t ⇒ A.t``;
    ``counterexample`` — a shortest trace of B that A cannot perform
    (``None`` when the property holds);
    ``pairs_explored`` — size of the explored product, for reporting.
    """

    holds: bool
    counterexample: Trace | None
    pairs_explored: int

    def __bool__(self) -> bool:
        return self.holds

    def describe(self) -> str:
        if self.holds:
            return f"safety holds ({self.pairs_explored} product states explored)"
        assert self.counterexample is not None
        return (
            "safety violated: implementation performs "
            f"{format_trace(self.counterexample)}, which the service forbids"
        )


def _check_same_interface(
    impl_name: str, impl_alphabet: Alphabet, service: Specification
) -> None:
    """Raise :class:`AlphabetError` unless the interfaces are identical."""
    if impl_alphabet != service.alphabet:
        raise AlphabetError(
            "satisfaction requires identical interfaces: "
            f"{impl_name} has {impl_alphabet.sorted()}, "
            f"{service.name} has {service.alphabet.sorted()}"
        )


def _trace_to(
    parent: dict[int, int], pair: int, events: tuple[Event, ...]
) -> Trace:
    """The trace of a compiled walk's parent links, from a start to *pair*.

    Both walks code a pair as one int and link each discovered pair to
    ``parent_pair * (len(events) + 1) + event_id + 1``, or ``+ 0`` for a
    λ step; a start pair has no link.
    """
    stride = len(events) + 1
    labels: list[Event] = []
    while pair in parent:
        pair, via = divmod(parent[pair], stride)
        if via:
            labels.append(events[via - 1])
    labels.reverse()
    return tuple(labels)


def safety_walk(ci: CompiledSpec, cs: CompiledSpec) -> SafetyResult:
    """The safety product walk over compiled ids and interned subsets.

    *ci* is the implementation, *cs* the service, with identical
    interfaces (so their event ids coincide).  A service subset is an int
    bitmask over service state ids, interned to a dense subset id in
    discovery order, and a product pair is the single int
    ``subset_id * |impl| + b``; the subset step is memoized per
    ``(subset id, event)``.  Parent links are ints as well, so the walk
    allocates no tuple per pair.  Loop structure and visit order mirror
    the labeled walk exactly (ascending ids ≡ the sorted-state order,
    ascending event ids ≡ sorted events), so ``pairs_explored`` and the
    counterexample trace are byte-identical.
    """
    closures = cs.closure_masks()
    # per service state: event id → λ-closed successor mask
    step: list[dict[int, int]] = []
    for i in range(cs.n_states):
        row: dict[int, int] = {}
        for eid, targets in cs.ext_moves[i]:
            mask = 0
            for t in targets:
                mask |= closures[t]
            row[eid] = mask
        step.append(row)

    events = ci.events
    int_succ = ci.int_succ
    ext_moves = ci.ext_moves
    n = ci.n_states
    n_events = len(events)
    subsets = [closures[cs.initial]]  # subset id → service-state mask
    subset_id = {subsets[0]: 0}
    # subset id * n_events + event id → successor subset id (-1: empty)
    subset_step: dict[int, int] = {}

    parent: dict[int, int] = {}  # pair → link (see _trace_to)
    seen: set[int] = set()
    frontier: list[int] = []
    for b in ci.closure_of(ci.initial):
        if b not in seen:
            seen.add(b)
            frontier.append(b)

    while frontier:
        next_frontier: list[int] = []
        for pair in frontier:
            sid, b = divmod(pair, n)
            base = sid * n
            link = pair * (n_events + 1)
            for b2 in int_succ[b]:
                nxt = base + b2
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = link
                    next_frontier.append(nxt)
            for eid, targets in ext_moves[b]:
                key = sid * n_events + eid
                sid2 = subset_step.get(key)
                if sid2 is None:
                    service_next = 0
                    for i in iter_bits(subsets[sid]):
                        service_next |= step[i].get(eid, 0)
                    if service_next:
                        sid2 = subset_id.get(service_next)
                        if sid2 is None:
                            sid2 = subset_id[service_next] = len(subsets)
                            subsets.append(service_next)
                    else:
                        sid2 = -1
                    subset_step[key] = sid2
                if sid2 < 0:
                    return SafetyResult(
                        holds=False,
                        counterexample=(
                            _trace_to(parent, pair, events) + (events[eid],)
                        ),
                        pairs_explored=len(seen),
                    )
                base2 = sid2 * n
                via = link + eid + 1
                for b2 in targets:
                    nxt = base2 + b2
                    if nxt not in seen:
                        seen.add(nxt)
                        parent[nxt] = via
                        next_frontier.append(nxt)
        frontier = next_frontier
    return SafetyResult(holds=True, counterexample=None, pairs_explored=len(seen))


def satisfies_safety(impl: Specification, service: Specification) -> SafetyResult:
    """Check ``impl`` satisfies ``service`` with respect to safety.

    Raises :class:`AlphabetError` if the interfaces differ.
    """
    _check_same_interface(impl.name, impl.alphabet, service)
    if kernel_enabled():
        return safety_walk(compiled(impl), compiled(service))

    Pair = tuple[State, frozenset[State]]
    start_subset = close_under_lambda(service, [service.initial])
    initial_impl = close_under_lambda(impl, [impl.initial])

    parent: dict[Pair, tuple[Pair, Event | None]] = {}
    seen: set[Pair] = set()
    frontier: list[Pair] = []
    for b in sorted(initial_impl, key=_state_sort_key):
        pair = (b, start_subset)
        if pair not in seen:
            seen.add(pair)
            frontier.append(pair)

    def trace_to(pair: Pair) -> Trace:
        events: list[Event] = []
        while pair in parent:
            pair, label = parent[pair]
            if label is not None:
                events.append(label)
        events.reverse()
        return tuple(events)

    while frontier:
        next_frontier: list[Pair] = []
        for pair in frontier:
            b, subset = pair
            # internal steps of the implementation leave the service subset fixed
            for b2 in sorted(impl.internal_successors(b), key=_state_sort_key):
                nxt = (b2, subset)
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = (pair, None)
                    next_frontier.append(nxt)
            for e in sorted(impl.enabled(b)):
                service_next = subset_step(service, subset, e)
                if not service_next:
                    return SafetyResult(
                        holds=False,
                        counterexample=trace_to(pair) + (e,),
                        pairs_explored=len(seen),
                    )
                for b2 in sorted(impl.successors(b, e), key=_state_sort_key):
                    nxt = (b2, service_next)
                    if nxt not in seen:
                        seen.add(nxt)
                        parent[nxt] = (pair, e)
                        next_frontier.append(nxt)
        frontier = next_frontier
    return SafetyResult(holds=True, counterexample=None, pairs_explored=len(seen))


def trace_inclusion_counterexample(
    sub: Specification, sup: Specification
) -> Trace | None:
    """Shortest trace of *sub* not in *sup*, or ``None`` if included.

    Convenience wrapper over :func:`satisfies_safety` for callers that only
    need the witness.
    """
    return satisfies_safety(sub, sup).counterexample
