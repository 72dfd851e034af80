"""The progress phase of the quotient algorithm (Fig. 6).

Iteratively removes *bad* states from the safety-phase machine ``C0``:

    c is bad ≡ ∃(a, b) ∈ f.c : ¬prog.a.⟨b, c⟩

where ``⟨b, c⟩`` is a state of the composite ``B ‖ C`` and ``prog.a.⟨b,c⟩``
requires the events the composite eventually offers from ``⟨b, c⟩`` —
``τ*.⟨b,c⟩``, computed over the composite's internal moves (λ steps of B
and synchronized Int events between B and C) — to cover some sink
acceptance set of the service reachable from hub ``a``.

Because removing states shrinks C's cooperation and hence ``τ*``, the
check-and-remove loop repeats until a fixpoint, or until the initial state
is removed (equivalent to removing every state: no quotient exists).

As Fig. 6 does, ``f`` is *not* recomputed between rounds — Theorem 2's
guarantee ("a state marked bad belongs to no solution") relies on judging
every pair ever associated with a state, and ``τ*`` is evaluated on the
full product (internal reachability from ``⟨b, c⟩`` does not require
``⟨b, c⟩`` itself to be reachable from the initial state).  A final
reachability trim is applied afterwards by the solver, as presentation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import obs
from ..events import Alphabet, Event
from ..spec.compiled import kernel_enabled
from ..spec.graph import sink_acceptance_sets, strongly_connected
from ..spec.spec import Specification, State, _state_sort_key
from .budget import Budget, make_meter
from .kernel import progress_phase_kernel
from .types import PairSet, ProgressPhaseResult, ProgressRound, QuotientProblem

if TYPE_CHECKING:
    from ..persist.interrupt import InterruptController


def _strip_states(c0: Specification, removed: set[State]) -> Specification:
    """*c0* minus *removed*, rebuilt the way the round loop does.

    Because the per-round filtering is monotone, removing the union of
    all rounds' bad states in one step yields a machine equal to the one
    the uninterrupted loop reaches iteratively — which is what makes
    round-granular checkpoints sufficient for exact resume.
    """
    keep = c0.states - removed
    return Specification(
        c0.name,
        keep,
        c0.alphabet,
        (
            (s, e, s2)
            for s, e, s2 in c0.external
            if s in keep and s2 in keep
        ),
        (),
        c0.initial,
    )


def _replay_terminal(
    c0: Specification, rounds: list[ProgressRound], removed: set[State]
) -> ProgressPhaseResult | None:
    """The phase result when the resumed *rounds* already ended the loop.

    A checkpoint taken after the progress phase (``phase="verify"``)
    carries the full round history including its terminal round; resuming
    must reproduce the recorded outcome instead of re-entering the loop
    and appending duplicate rounds.  Returns ``None`` when the last round
    is non-terminal (the loop should continue).
    """
    last = rounds[-1]
    if not last.bad_states:
        if len(rounds) == 1:
            return ProgressPhaseResult(spec=c0, rounds=tuple(rounds))
        return ProgressPhaseResult(
            spec=_strip_states(c0, removed), rounds=tuple(rounds)
        )
    if c0.initial in last.bad_states or last.remaining == 0:
        return ProgressPhaseResult(spec=None, rounds=tuple(rounds))
    return None


def _composite_tau_star(
    problem: QuotientProblem,
    converter: Specification,
    pairs_needed: list[tuple[State, State]],
) -> dict[tuple[State, State], Alphabet]:
    with obs.span("tau_star", pairs=len(pairs_needed)):
        return _composite_tau_star_impl(problem, converter, pairs_needed)


def _composite_tau_star_impl(
    problem: QuotientProblem,
    converter: Specification,
    pairs_needed: list[tuple[State, State]],
) -> dict[tuple[State, State], Alphabet]:
    """``τ*.⟨b, c⟩`` of ``B ‖ C`` for every requested product state.

    Internal moves of the composite are: λ steps of ``B`` (``C0`` has none),
    and synchronized Int events (enabled in both ``B`` and ``C``).  External
    events of the composite are ``B``'s Ext events.

    Computed in one shared pass: the internal-move subgraph forward-reachable
    from the requested nodes is explored once, its SCCs condensed
    (:func:`~repro.spec.graph.strongly_connected`), and the Ext-event sets
    propagated through the condensation — the same scheme
    :func:`repro.spec.graph.tau_star` uses, lifted to the product.
    This keeps the progress phase near-linear per round instead of
    quadratic in the explored product.
    """
    component = problem.component
    ext = problem.interface.ext_events
    int_events = problem.interface.int_events

    # per-component-state precomputations (few distinct b's, many nodes)
    ext_of_b: dict[State, frozenset] = {}
    int_moves_of_b: dict[State, list[tuple[str, State]]] = {}

    def prep(b: State) -> None:
        if b in ext_of_b:
            return
        enabled = component.enabled(b)
        ext_of_b[b] = frozenset(enabled & ext)
        moves: list[tuple[str, State]] = []
        for e in sorted(enabled):
            if e in int_events:
                for b2 in sorted(component.successors(b, e), key=_state_sort_key):
                    moves.append((e, b2))
        int_moves_of_b[b] = moves

    lambda_of_b: dict[State, list[State]] = {}

    def internal_successors(node: tuple[State, State]) -> list[tuple[State, State]]:
        b, c = node
        prep(b)
        if b not in lambda_of_b:
            lambda_of_b[b] = sorted(
                component.internal_successors(b), key=_state_sort_key
            )
        result: list[tuple[State, State]] = [
            (b2, c) for b2 in lambda_of_b[b]
        ]
        for e, b2 in int_moves_of_b[b]:
            for c2 in sorted(converter.successors(c, e), key=_state_sort_key):
                result.append((b2, c2))
        return result

    # explore the relevant product subgraph once
    adjacency: dict[tuple[State, State], list[tuple[State, State]]] = {}
    stack = list(dict.fromkeys(pairs_needed))
    while stack:
        node = stack.pop()
        if node in adjacency:
            continue
        succs = internal_successors(node)
        adjacency[node] = succs
        for nxt in succs:
            if nxt not in adjacency:
                stack.append(nxt)

    components, scc_of = strongly_connected(adjacency, adjacency.__getitem__)
    # components arrive successors-first, so one pass propagates τ*
    scc_events: list[set[Event]] = []
    for comp_idx, members in enumerate(components):
        events: set[Event] = set()
        for node in members:
            events |= ext_of_b[node[0]]
            for nxt in adjacency[node]:
                j = scc_of[nxt]
                if j != comp_idx:
                    events |= scc_events[j]
        scc_events.append(events)

    obs.add("quotient.progress.tau_star_nodes", len(adjacency))
    obs.add("quotient.progress.tau_star_sccs", len(scc_events))
    return {
        node: Alphabet(scc_events[scc_of[node]]) for node in pairs_needed
    }


def progress_phase(
    problem: QuotientProblem,
    c0: Specification,
    f: dict[State, PairSet],
    *,
    budget: Budget | None = None,
    interrupt: "InterruptController | None" = None,
    resume: "tuple[ProgressRound, ...] | None" = None,
) -> ProgressPhaseResult:
    """Run the Fig. 6 loop on the safety-phase machine.

    *c0*'s states must be the pair sets produced by
    :func:`~repro.quotient.safety_phase.safety_phase` (``f`` maps each state
    to its pair set; with the canonical encoding it is the identity).

    With a *budget*, each round charges its ``(b, c)`` product-pair checks
    as ``pairs`` (the round's surviving-state count is reported as the
    frontier); exceeding ``max_pairs`` or the wall-clock ceiling raises
    :class:`~repro.errors.BudgetExceeded` with phase ``"progress"``.
    Charges are identical on the kernel and reference paths.

    *interrupt* raises :class:`~repro.errors.InterruptRequested` at the
    same per-round boundaries.  Either exception's ``phase_state`` is the
    tuple of completed rounds; passing it back as *resume* skips those
    rounds exactly (rounds are the phase's natural work unit, and
    removals compose monotonically — see :func:`_strip_states`).
    """
    meter = make_meter(budget, "progress", interrupt)
    if kernel_enabled():
        return progress_phase_kernel(problem, c0, f, meter, resume=resume)
    service = problem.service

    accept_cache: dict[State, list[Alphabet]] = {}

    def acceptance(hub: State) -> list[Alphabet]:
        if hub not in accept_cache:
            accept_cache[hub] = sink_acceptance_sets(service, hub)
        return accept_cache[hub]

    current = c0
    rounds: list[ProgressRound] = []
    if resume:
        rounds = list(resume)
        removed: set[State] = set()
        for completed in rounds:
            removed |= completed.bad_states
        terminal = _replay_terminal(c0, rounds, removed)
        if terminal is not None:
            return terminal
        current = _strip_states(c0, removed)

    def snap() -> dict:
        return {"rounds": tuple(rounds)}

    with obs.span("progress_phase") as phase_span:
        while True:
            with obs.span("progress_round", round=len(rounds)) as round_span:
                # τ*.⟨b,c⟩ for every pair associated with a surviving state
                needed: list[tuple[State, State]] = []
                for c in current.states:
                    for a, b in sorted(f[c], key=lambda p: (_state_sort_key(p[0]), _state_sort_key(p[1]))):
                        needed.append((b, c))
                if meter is not None:
                    meter.charge(
                        pairs=len(needed),
                        frontier=len(current.states),
                        snapshot=snap,
                    )
                offered = _composite_tau_star(problem, current, needed)

                bad: set[State] = set()
                for c in sorted(current.states, key=_state_sort_key):
                    for a, b in f[c]:
                        menu = acceptance(a)
                        if not any(accept <= offered[(b, c)] for accept in menu):
                            bad.add(c)
                            break
                rounds.append(
                    ProgressRound(
                        round_index=len(rounds),
                        bad_states=frozenset(bad),
                        remaining=len(current.states) - len(bad),
                    )
                )
                round_span.set(
                    pairs_checked=len(needed),
                    bad=len(bad),
                    remaining=len(current.states) - len(bad),
                )
                obs.add("quotient.progress.rounds", 1)
                obs.add("quotient.progress.pairs_checked", len(needed))
                obs.add("quotient.progress.bad_states_removed", len(bad))
            if not bad:
                phase_span.set(exists=True, rounds=len(rounds))
                obs.gauge("quotient.progress.final_states", len(current.states))
                return ProgressPhaseResult(spec=current, rounds=tuple(rounds))
            if current.initial in bad or len(bad) == len(current.states):
                # removing the initial state makes all states unreachable:
                # no quotient exists (Theorem 2)
                phase_span.set(exists=False, rounds=len(rounds))
                obs.gauge("quotient.progress.final_states", 0)
                return ProgressPhaseResult(spec=None, rounds=tuple(rounds))
            keep = current.states - bad
            current = Specification(
                current.name,
                keep,
                current.alphabet,
                (
                    (s, e, s2)
                    for s, e, s2 in current.external
                    if s in keep and s2 in keep
                ),
                (),
                current.initial,
            )
