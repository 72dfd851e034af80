"""The paper's binary composition operator ``‖`` (Section 3).

Composition makes each component part of the other's environment: events in
both alphabets synchronize (they can occur only when enabled in both
components) and become *internal* transitions of the composite, hidden from
the rest of the environment.  The composite's interface is the symmetric
difference of the component alphabets:

* ``Σ(A‖B) = (Σ_A ∪ Σ_B) − (Σ_A ∩ Σ_B)``
* external transitions: one component moves on an unshared event, the other
  stays put;
* internal transitions: either component's own λ step, or a synchronized
  shared event.

The paper defines the composite over the full product ``S_A × S_B``; since
unreachable product states have no behavioural significance, :func:`compose`
restricts to the reachable part by default (pass ``reachable_only=False``
for the literal textbook product).

:func:`synchronous_product` is the hiding-free variant (shared events stay
external) used by verification procedures.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING

from .. import obs
from ..errors import CompositionError
from ..events import Alphabet, composition_alphabet, shared_events
from ..gcpause import gc_paused
from ..spec.compiled import CompiledSpec, compiled, kernel_enabled
from ..spec.spec import Specification, State, _state_sort_key

if TYPE_CHECKING:
    # type-only: a runtime import would be circular (quotient imports compose)
    from ..persist.interrupt import InterruptController
    from ..quotient.budget import Budget, BudgetMeter


def compose(
    left: Specification,
    right: Specification,
    *,
    name: str | None = None,
    reachable_only: bool = True,
    budget: Budget | None = None,
    interrupt: "InterruptController | None" = None,
) -> Specification:
    """``left ‖ right`` per the paper's definition.

    State labels of the composite are ``(a, b)`` pairs.  With
    ``reachable_only=True`` (default) only product states reachable from
    ``(a0, b0)`` are kept; the full product is trace-equivalent but larger.

    With a *budget*, every materialized product state charges one
    ``states`` unit against it; exceeding ``max_states`` (or the wall-clock
    ceiling) raises :class:`~repro.errors.BudgetExceeded` with phase
    ``"compose"``.  The kernel and reference explorations materialize the
    same states, so count limits trip at the same total on both paths.
    An *interrupt* controller cancels the exploration cooperatively at the
    same charge boundaries (:class:`~repro.errors.InterruptRequested`);
    compositions are not checkpointed — they are cheap relative to the
    quotient phases and are simply redone on resume.
    """
    from ..quotient.budget import make_meter

    composite_name = (
        name if name is not None else composite_name_of(left, right)
    )
    shared = shared_events(left.alphabet, right.alphabet)
    alphabet = composition_alphabet(left.alphabet, right.alphabet)
    meter = make_meter(budget, "compose", interrupt)

    with gc_paused(), obs.span(
        "compose", left=left.name, right=right.name
    ) as sp:
        if reachable_only:
            if kernel_enabled():
                result = _ReachableProduct(
                    left, right, alphabet, meter
                ).decode(composite_name)
            else:
                result = _compose_reachable(
                    left, right, composite_name, shared, alphabet, meter
                )
        else:
            result = _compose_full(
                left, right, composite_name, shared, alphabet, meter
            )
        _record(
            sp, left, right, len(result.states),
            len(result.external) + len(result.internal),
        )
    return result


def compiled_product(
    left: Specification,
    right: Specification,
    *,
    budget: Budget | None = None,
    interrupt: "InterruptController | None" = None,
) -> CompiledSpec:
    """The reachable part of ``left ‖ right`` as a :class:`CompiledSpec`.

    The same exploration, charges, ``compose`` span and ``compose.*``
    counters as :func:`compose`, but the composite is tabulated straight
    from pair codes: no labelled :class:`Specification` is built, and the
    result never enters the compile cache.  Its ids follow the
    composite's canonical order, so a walk over it visits states exactly
    as a walk over ``compiled(compose(left, right))`` does.
    """
    from ..quotient.budget import make_meter

    alphabet = composition_alphabet(left.alphabet, right.alphabet)
    meter = make_meter(budget, "compose", interrupt)
    with obs.span("compose", left=left.name, right=right.name) as sp:
        view, transitions = _ReachableProduct(
            left, right, alphabet, meter
        ).tabulate()
        _record(sp, left, right, view.n_states, transitions)
    return view


def composite_name_of(left: Specification, right: Specification) -> str:
    """The name :func:`compose` gives ``left ‖ right`` by default."""
    return f"({left.name}||{right.name})"


def _record(sp, left: Specification, right: Specification,
            reachable: int, transitions: int) -> None:
    """Set the ``compose`` span's sizes and add the ``compose.*`` counters."""
    product = len(left.states) * len(right.states)
    sp.set(product_states=product, reachable_states=reachable)
    obs.add("compose.calls", 1)
    obs.add("compose.product_states", product)
    obs.add("compose.reachable_states", reachable)
    obs.add("compose.transitions", transitions)


def _moves(
    left: Specification,
    right: Specification,
    shared: Alphabet,
    a: State,
    b: State,
) -> tuple[list[tuple[str, State, State]], list[tuple[State, State]]]:
    """External and internal successor moves of product state ``(a, b)``.

    Returns ``(externals, internals)`` where externals are
    ``(event, a', b')`` triples and internals are ``(a', b')`` pairs.
    Deterministically ordered.
    """
    externals: list[tuple[str, State, State]] = []
    internals: list[tuple[State, State]] = []
    for e in sorted(left.enabled(a)):
        if e in shared:
            continue
        for a2 in sorted(left.successors(a, e), key=_state_sort_key):
            externals.append((e, a2, b))
    for e in sorted(right.enabled(b)):
        if e in shared:
            continue
        for b2 in sorted(right.successors(b, e), key=_state_sort_key):
            externals.append((e, a, b2))
    for a2 in sorted(left.internal_successors(a), key=_state_sort_key):
        internals.append((a2, b))
    for b2 in sorted(right.internal_successors(b), key=_state_sort_key):
        internals.append((a, b2))
    for e in sorted(shared):
        for a2 in sorted(left.successors(a, e), key=_state_sort_key):
            for b2 in sorted(right.successors(b, e), key=_state_sort_key):
                internals.append((a2, b2))
    return externals, internals


def _compose_reachable(
    left: Specification,
    right: Specification,
    name: str,
    shared: Alphabet,
    alphabet: Alphabet,
    meter: "BudgetMeter | None" = None,
) -> Specification:
    initial = (left.initial, right.initial)
    states: set[tuple[State, State]] = {initial}
    external: list[tuple[tuple[State, State], str, tuple[State, State]]] = []
    internal: list[tuple[tuple[State, State], tuple[State, State]]] = []
    frontier = [initial]
    if meter is not None:
        meter.charge(states=1, frontier=1)
    while frontier:
        a, b = current = frontier.pop()
        externals, internals = _moves(left, right, shared, a, b)
        for e, a2, b2 in externals:
            target = (a2, b2)
            external.append((current, e, target))
            if target not in states:
                states.add(target)
                frontier.append(target)
                if meter is not None:
                    meter.charge(states=1, frontier=len(frontier))
        for a2, b2 in internals:
            target = (a2, b2)
            if target != current:
                internal.append((current, target))
            if target not in states:
                states.add(target)
                frontier.append(target)
                if meter is not None:
                    meter.charge(states=1, frontier=len(frontier))
    return Specification(name, states, alphabet, external, internal, initial)


class _ReachableProduct:
    """The reachable part of ``left ‖ right``, explored over pair codes.

    A product state ``(a, b)`` is the int ``ia * |S_R| + ib`` over the ids
    of ``compiled(left)`` and ``compiled(right)``.  Construction runs the
    depth-first exploration, charging one ``states`` unit per discovered
    state, and records the transitions as flat edge lists: ``ext_edges``
    holds ``(source, event id, target)`` code triples, the event id
    indexing the sorted composite alphabet ``events``; ``int_edges`` holds
    ``(source, target)`` pairs for λ steps and synchronized shared events
    (self-loops dropped, repeats kept).  Each state's edges are contiguous
    in both lists.  :meth:`decode` builds the labelled composite from
    them, :meth:`tabulate` the compiled one.
    """

    __slots__ = (
        "cl", "cr", "alphabet", "events", "initial", "reachable",
        "ext_edges", "int_edges",
    )

    def __init__(
        self,
        left: Specification,
        right: Specification,
        alphabet: Alphabet,
        meter: "BudgetMeter | None",
    ) -> None:
        cl: CompiledSpec = compiled(left)
        cr: CompiledSpec = compiled(right)
        self.cl, self.cr, self.alphabet = cl, cr, alphabet
        self.events = events = tuple(sorted(alphabet))
        event_id = {e: j for j, e in enumerate(events)}
        # component event id -> composite event id; -1 marks a shared event
        lmap = [event_id.get(e, -1) for e in cl.events]
        rmap = [event_id.get(e, -1) for e in cr.events]
        # by event name, as the labelled exploration orders them, so both
        # paths push the same stack (and a budget trips at the same frontier)
        shared_pairs = [
            (cl.event_index[e], cr.event_index[e])
            for e in sorted(shared_events(left.alphabet, right.alphabet))
        ]
        nr = cr.n_states

        self.initial = initial = cl.initial * nr + cr.initial
        seen = {initial}
        stack = [initial]
        if meter is not None:
            meter.charge(states=1, frontier=1)
        ext_edges: list[tuple[int, int, int]] = []
        int_edges: list[tuple[int, int]] = []
        while stack:
            code = stack.pop()
            ia, ib = divmod(code, nr)
            base_a = ia * nr
            for eid, targets in cl.ext_moves[ia]:
                ceid = lmap[eid]
                if ceid < 0:
                    continue
                for ta in targets:
                    t = ta * nr + ib
                    ext_edges.append((code, ceid, t))
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
                        if meter is not None:
                            meter.charge(states=1, frontier=len(stack))
            for eid, targets in cr.ext_moves[ib]:
                ceid = rmap[eid]
                if ceid < 0:
                    continue
                for tb in targets:
                    t = base_a + tb
                    ext_edges.append((code, ceid, t))
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
                        if meter is not None:
                            meter.charge(states=1, frontier=len(stack))
            # a component's λ steps never loop (Specification drops λ
            # self-loops), so only synchronized events can return to code
            for ta in cl.int_succ[ia]:
                t = ta * nr + ib
                int_edges.append((code, t))
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
                    if meter is not None:
                        meter.charge(states=1, frontier=len(stack))
            for tb in cr.int_succ[ib]:
                t = base_a + tb
                int_edges.append((code, t))
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
                    if meter is not None:
                        meter.charge(states=1, frontier=len(stack))
            ext_a = cl.ext_by_eid[ia]
            ext_b = cr.ext_by_eid[ib]
            for leid, reid in shared_pairs:
                lts = ext_a.get(leid)
                if not lts:
                    continue
                rts = ext_b.get(reid)
                if not rts:
                    continue
                for ta in lts:
                    ta_base = ta * nr
                    for tb in rts:
                        t = ta_base + tb
                        if t != code:
                            int_edges.append((code, t))
                        if t not in seen:
                            seen.add(t)
                            stack.append(t)
                            if meter is not None:
                                meter.charge(states=1, frontier=len(stack))
        self.reachable = seen
        self.ext_edges = ext_edges
        self.int_edges = int_edges

    def decode(self, name: str) -> Specification:
        """The labelled composite, states ``(a, b)``.

        Identical to :func:`_compose_reachable`'s result: states and
        transitions are *sets*, so exploration order cannot leak in.
        """
        nr = self.cr.n_states
        lstates, rstates = self.cl.states, self.cr.states
        events = self.events
        label = {c: (lstates[c // nr], rstates[c % nr]) for c in self.reachable}
        return Specification(
            name,
            label.values(),
            self.alphabet,
            ((label[s], events[e], label[t]) for s, e, t in self.ext_edges),
            ((label[s], label[t]) for s, t in self.int_edges),
            label[self.initial],
        )

    def tabulate(self) -> tuple[CompiledSpec, int]:
        """The composite as a compiled spec, and its transition count.

        Ids follow the composite's canonical order (its states sorted by
        :func:`_state_sort_key`), events are ids into the sorted
        alphabet, and targets ascend: the tables ``compiled()`` would
        build from :meth:`decode`'s result.  The count is the labelled
        composite's ``|T| + |λ|`` (repeated λ edges counted once).
        """
        cl, cr = self.cl, self.cr
        nr = cr.n_states
        # repr((a, b)) == "(" + repr(a) + ", " + repr(b) + ")", and every
        # label is a tuple, so this key orders codes as _state_sort_key
        # orders their labels while computing each component repr once
        lrepr = [repr(s) for s in cl.states]
        rrepr = [repr(s) for s in cr.states]
        order = sorted(
            self.reachable,
            key=lambda c: "(" + lrepr[c // nr] + ", " + rrepr[c % nr] + ")",
        )
        ident = {c: i for i, c in enumerate(order)}
        n = len(order)
        ext_moves: list[tuple[tuple[int, tuple[int, ...]], ...]] = [()] * n
        for s, edges in groupby(self.ext_edges, key=itemgetter(0)):
            row: list[tuple[int, tuple[int, ...]]] = []
            last = -1
            for e, t in sorted([(e, ident[t]) for _, e, t in edges]):
                if e == last:
                    row[-1] = (e, row[-1][1] + (t,))
                else:
                    row.append((e, (t,)))
                    last = e
            ext_moves[ident[s]] = tuple(row)
        int_succ: list[tuple[int, ...]] = [()] * n
        for s, edges in groupby(self.int_edges, key=itemgetter(0)):
            int_succ[ident[s]] = tuple(sorted({ident[t] for _, t in edges}))
        transitions = len(self.ext_edges) + sum(map(len, int_succ))
        lstates, rstates = cl.states, cr.states
        view = CompiledSpec.from_tables(
            states=tuple((lstates[c // nr], rstates[c % nr]) for c in order),
            events=self.events,
            initial=ident[self.initial],
            ext_moves=tuple(ext_moves),
            int_succ=tuple(int_succ),
        )
        return view, transitions


def _compose_full(
    left: Specification,
    right: Specification,
    name: str,
    shared: Alphabet,
    alphabet: Alphabet,
    meter: "BudgetMeter | None" = None,
) -> Specification:
    states = [(a, b) for a in left.states for b in right.states]
    if meter is not None:
        meter.charge(states=len(states))
    external = []
    internal = []
    for a, b in states:
        externals, internals = _moves(left, right, shared, a, b)
        external.extend(((a, b), e, (a2, b2)) for e, a2, b2 in externals)
        internal.extend(((a, b), (a2, b2)) for a2, b2 in internals if (a2, b2) != (a, b))
    return Specification(
        name, states, alphabet, external, internal, (left.initial, right.initial)
    )


def synchronous_product(
    left: Specification,
    right: Specification,
    *,
    name: str | None = None,
) -> Specification:
    """Synchronous product *without* hiding.

    Shared events still require both components to move, but remain external
    in the product; unshared events interleave; λ steps interleave.  The
    product's alphabet is the **union** of the component alphabets.  This is
    the standard construction for checking trace inclusion and refinement,
    not the paper's ``‖`` (which hides shared events).
    """
    product_name = name if name is not None else f"({left.name}×{right.name})"
    obs.add("compose.synchronous_products", 1)
    shared = shared_events(left.alphabet, right.alphabet)
    alphabet = left.alphabet | right.alphabet
    initial = (left.initial, right.initial)
    states: set[tuple[State, State]] = {initial}
    external = []
    internal = []
    frontier = [initial]
    while frontier:
        a, b = current = frontier.pop()
        moves: list[tuple[str | None, State, State]] = []
        for e in sorted(left.enabled(a)):
            if e in shared:
                for a2 in sorted(left.successors(a, e), key=_state_sort_key):
                    for b2 in sorted(right.successors(b, e), key=_state_sort_key):
                        moves.append((e, a2, b2))
            else:
                for a2 in sorted(left.successors(a, e), key=_state_sort_key):
                    moves.append((e, a2, b))
        for e in sorted(right.enabled(b)):
            if e not in shared:
                for b2 in sorted(right.successors(b, e), key=_state_sort_key):
                    moves.append((e, a, b2))
        for a2 in sorted(left.internal_successors(a), key=_state_sort_key):
            moves.append((None, a2, b))
        for b2 in sorted(right.internal_successors(b), key=_state_sort_key):
            moves.append((None, a, b2))
        for e, a2, b2 in moves:
            target = (a2, b2)
            if e is None:
                if target != current:
                    internal.append((current, target))
            else:
                external.append((current, e, target))
            if target not in states:
                states.add(target)
                frontier.append(target)
    return Specification(product_name, states, alphabet, external, internal, initial)


def check_composable(left: Specification, right: Specification) -> Alphabet:
    """Validate a composition and return the synchronized (hidden) events.

    Raises :class:`CompositionError` if the composition would be degenerate
    in a way that usually indicates a modeling mistake: identical alphabets
    (the composite would have an empty interface) are allowed but flagged
    only when *both* alphabets are empty.
    """
    if not left.alphabet and not right.alphabet:
        raise CompositionError(
            f"{left.name} and {right.name} both have empty alphabets; "
            "composition is vacuous"
        )
    return shared_events(left.alphabet, right.alphabet)
