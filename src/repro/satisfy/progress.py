"""Satisfaction with respect to progress (Section 3).

Intuition: any environment guaranteed not to deadlock with the service ``A``
must be certain not to deadlock with the implementation ``B``.  Formally,
with ``A`` in normal form, nondeterminism in ``A`` unfair and in ``B`` fair,
and ``B`` already satisfying ``A`` w.r.t. safety:

    B sat A w.r.t. progress  ≡  ∀t, b : ↦t b ⇒ prog.(ψ_A.t).b

where

    prog.a.b ≡ (∃a' : a λ* a' ∧ sink.a' ∧ τ*.a' ⊆ τ*.b)

i.e. after every trace, the implementation's eventually-offered event set
``τ*.b`` covers at least one of the service's acceptable sink acceptance
sets.  (The paper notes quantifying over sink states of B is equivalent to
quantifying over all reachable b; we check all reachable b directly.)

The check pairs each reachable implementation state with the service's hub
state ``ψ_A.t`` and evaluates ``prog`` on each pair, reporting a shortest
path to a violating pair when progress fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..events import Alphabet, Event
from ..spec.compiled import CompiledSpec, compiled, kernel_enabled
from ..spec.graph import close_under_lambda, sink_acceptance_sets, tau_star
from ..spec.normal_form import assert_normal_form, psi_step
from ..spec.spec import Specification, State, _state_sort_key
from ..traces.core import Trace, format_trace
from .safety import _check_same_interface, _trace_to


@dataclass(frozen=True)
class ProgressViolation:
    """Witness of a progress failure.

    After performing ``trace``, the implementation may occupy ``impl_state``
    whose eventually-offered events ``offered`` cover none of the service's
    acceptance sets ``required`` (the menu at hub ``service_hub``).
    """

    trace: Trace
    impl_state: State
    service_hub: State
    offered: Alphabet
    required: tuple[Alphabet, ...]

    def describe(self) -> str:
        menu = " | ".join("{" + ",".join(sorted(f)) + "}" for f in self.required)
        return (
            f"after {format_trace(self.trace)} the implementation may reach "
            f"state {self.impl_state!r} offering only "
            f"{{{','.join(sorted(self.offered))}}}, which covers none of the "
            f"service's acceptance sets [{menu}] at {self.service_hub!r}"
        )


@dataclass(frozen=True)
class ProgressResult:
    """Outcome of a progress-satisfaction check."""

    holds: bool
    violation: ProgressViolation | None
    pairs_explored: int

    def __bool__(self) -> bool:
        return self.holds

    def describe(self) -> str:
        if self.holds:
            return f"progress holds ({self.pairs_explored} pairs explored)"
        assert self.violation is not None
        return "progress violated: " + self.violation.describe()


def prog(
    service: Specification,
    hub: State,
    offered: Alphabet,
) -> bool:
    """The predicate ``prog.a.b`` with ``τ*.b`` precomputed as *offered*.

    True iff some sink set internally reachable from *hub* has an acceptance
    set contained in *offered*.
    """
    return any(
        accept <= offered for accept in sink_acceptance_sets(service, hub)
    )


def progress_walk(ci: CompiledSpec, cs: CompiledSpec) -> ProgressResult:
    """The hub-tracking progress walk over compiled ids.

    *ci* is the implementation, *cs* the normal-form service, with
    identical interfaces (so their event ids coincide).  ``τ*`` of the
    implementation, the service's acceptance menus, and the ``ψ``-advance
    are all table lookups on the compiled forms.  A product pair is the
    single int ``hub * |impl| + b`` and parent links are ints, so the
    walk allocates no tuple per pair.  The BFS mirrors the labeled walk's
    visit order exactly, so ``pairs_explored`` and any
    :class:`ProgressViolation` (including the duplicate-preserving
    ``required`` menu) are identical.
    """
    offered_masks = ci.tau_star_masks()
    menus = cs.acceptance_menus()
    psi = cs.psi_table()
    events = ci.events
    int_succ = ci.int_succ
    ext_moves = ci.ext_moves
    n = ci.n_states
    n_events = len(events)

    parent: dict[int, int] = {}  # pair → link (see safety._trace_to)
    seen: set[int] = set()
    frontier: list[int] = []
    start = cs.initial * n
    for b in ci.closure_of(ci.initial):
        pair = start + b
        if pair not in seen:
            seen.add(pair)
            frontier.append(pair)

    def make_violation(pair: int, extra: int | None) -> ProgressViolation:
        hub, b = divmod(pair, n)
        trace = _trace_to(parent, pair, events)
        if extra is not None:
            trace = trace + (events[extra],)
        return ProgressViolation(
            trace=trace,
            impl_state=ci.states[b],
            service_hub=cs.states[hub],
            offered=ci.decode_event_mask(offered_masks[b]),
            required=tuple(cs.decode_event_mask(m) for m in menus[hub]),
        )

    violation: ProgressViolation | None = None
    while frontier and violation is None:
        next_frontier: list[int] = []
        for pair in frontier:
            hub, b = divmod(pair, n)
            offered = offered_masks[b]
            if not any(accept & offered == accept for accept in menus[hub]):
                violation = make_violation(pair, None)
                break
            base = hub * n
            link = pair * (n_events + 1)
            for b2 in int_succ[b]:
                nxt = base + b2
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = link
                    next_frontier.append(nxt)
            psi_row = psi[hub]
            for eid, targets in ext_moves[b]:
                hub2 = psi_row[eid]
                if hub2 < 0:
                    # implementation performs a trace the service cannot:
                    # a safety violation surfacing during progress analysis
                    violation = make_violation(pair, eid)
                    break
                base2 = hub2 * n
                via = link + eid + 1
                for b2 in targets:
                    nxt = base2 + b2
                    if nxt not in seen:
                        seen.add(nxt)
                        parent[nxt] = via
                        next_frontier.append(nxt)
            if violation is not None:
                break
        frontier = next_frontier
    return ProgressResult(
        holds=violation is None,
        violation=violation,
        pairs_explored=len(seen),
    )


def satisfies_progress(
    impl: Specification, service: Specification
) -> ProgressResult:
    """Check ``impl`` satisfies ``service`` with respect to progress.

    Preconditions (raised as errors when violated): identical interfaces and
    *service* in normal form.  Safety is assumed to hold — call
    :func:`repro.satisfy.verify.satisfies` for the combined check; if safety
    does not hold, hub tracking can fail and a :class:`ReproError` results.
    """
    _check_same_interface(impl.name, impl.alphabet, service)
    assert_normal_form(service)
    if kernel_enabled():
        return progress_walk(compiled(impl), compiled(service))

    offered_of = tau_star(impl)
    accept_cache: dict[State, list[Alphabet]] = {}

    def acceptance(hub: State) -> list[Alphabet]:
        if hub not in accept_cache:
            accept_cache[hub] = sink_acceptance_sets(service, hub)
        return accept_cache[hub]

    Pair = tuple[State, State]
    parent: dict[Pair, tuple[Pair, Event | None]] = {}
    seen: set[Pair] = set()
    frontier: list[Pair] = []
    for b in sorted(close_under_lambda(impl, [impl.initial]), key=_state_sort_key):
        pair = (b, service.initial)
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

    violation: ProgressViolation | None = None
    while frontier and violation is None:
        next_frontier: list[Pair] = []
        for pair in frontier:
            b, hub = pair
            offered = offered_of[b]
            if not any(accept <= offered for accept in acceptance(hub)):
                violation = ProgressViolation(
                    trace=trace_to(pair),
                    impl_state=b,
                    service_hub=hub,
                    offered=offered,
                    required=tuple(acceptance(hub)),
                )
                break
            for b2 in sorted(impl.internal_successors(b), key=_state_sort_key):
                nxt = (b2, hub)
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = (pair, None)
                    next_frontier.append(nxt)
            for e in sorted(impl.enabled(b)):
                hub2 = psi_step(service, hub, e)
                if hub2 is None:
                    # implementation performs a trace the service cannot:
                    # a safety violation surfacing during progress analysis
                    violation = ProgressViolation(
                        trace=trace_to(pair) + (e,),
                        impl_state=b,
                        service_hub=hub,
                        offered=offered,
                        required=tuple(acceptance(hub)),
                    )
                    break
                for b2 in sorted(impl.successors(b, e), key=_state_sort_key):
                    nxt = (b2, hub2)
                    if nxt not in seen:
                        seen.add(nxt)
                        parent[nxt] = (pair, e)
                        next_frontier.append(nxt)
            if violation is not None:
                break
        frontier = next_frontier
    return ProgressResult(
        holds=violation is None,
        violation=violation,
        pairs_explored=len(seen),
    )
