"""Removing "superfluous portions" of a maximal converter (Section 5).

The quotient algorithm returns the converter with the *maximal* trace set;
the paper notes (Fig. 14, dotted boxes) that such a converter may contain
cycles that are harmless but "do nothing for overall system progress", and
that removing them "is computationally expensive and is best done by hand."

This module implements the expensive part as optional utilities:

* :func:`drop_vacuous_states` — remove states whose pair set is empty.
  Those states encode converter traces that ``B`` can never match; they are
  unreachable in the composite ``B ‖ C``, so removal never changes system
  behaviour (cheap, always sound).
* :func:`merge_equivalent_states` — quotient the (deterministic, λ-free)
  converter by trace equivalence via DFA minimization.  For a deterministic
  converter, a state's future cooperation with ``B`` is exactly its
  trace language, so the composite's behaviour is preserved.
* :func:`minimize_converter` — the greedy brute force: repeatedly try
  deleting a state and keep the deletion iff the composite still satisfies
  the service (verified through the independent checker).  Produces a
  *minimal-by-inclusion* (not necessarily minimum) correct converter.

Every utility re-verifies its output when given the problem, so a pruned
converter is exactly as trustworthy as the original.
"""

from __future__ import annotations

from .. import obs
from ..satisfy.verify import product_satisfies
from ..spec.minimize import minimize_deterministic
from ..spec.ops import prune_unreachable, remove_states
from ..spec.spec import Specification, State, _state_sort_key
from .types import PairSet, QuotientProblem


def drop_vacuous_states(
    converter: Specification, f: dict[State, PairSet]
) -> Specification:
    """Remove states whose pair set is empty (B-unmatchable traces).

    The initial state always has a nonempty pair set (it contains
    ``(a0, b0)``), so it is never removed.  The result is trimmed to its
    reachable part.
    """
    vacuous = {s for s in converter.states if not f.get(s, frozenset())}
    vacuous.discard(converter.initial)
    obs.add("quotient.prune.vacuous_states_removed", len(vacuous))
    if not vacuous:
        return converter
    return prune_unreachable(remove_states(converter, vacuous))


def merge_equivalent_states(converter: Specification) -> Specification:
    """DFA-minimize a deterministic λ-free converter (trace-preserving)."""
    return minimize_deterministic(converter)


def minimize_converter(
    problem: QuotientProblem,
    converter: Specification,
    *,
    max_passes: int = 10,
) -> Specification:
    """Greedy state-deletion minimization, verified at every step.

    Deterministic order; O(states² · verification) per pass, which is why
    the paper recommends doing this "by hand" — it is provided for the small
    machines where exhaustive cleanup is affordable.
    """
    current = converter

    def still_correct(candidate: Specification) -> bool:
        return product_satisfies(
            problem.component, candidate, problem.service
        ).holds

    for _ in range(max_passes):
        improved = False
        for state in sorted(current.states, key=_state_sort_key):
            if state == current.initial:
                continue
            candidate = prune_unreachable(remove_states(current, [state]))
            if len(candidate.states) >= len(current.states):
                continue
            if still_correct(candidate):
                current = candidate
                improved = True
                break
        if not improved:
            return current
    return current


def prune_converter(
    problem: QuotientProblem,
    converter: Specification,
    f: dict[State, PairSet],
    *,
    exhaustive: bool = False,
) -> Specification:
    """One-call cleanup pipeline: vacuous-state drop, DFA merge, and —
    when *exhaustive* — greedy deletion minimization.

    The result is re-verified against the problem before being returned.
    """
    with obs.span("prune_converter", exhaustive=exhaustive) as sp:
        pruned = drop_vacuous_states(converter, f)
        pruned = merge_equivalent_states(pruned)
        if exhaustive:
            pruned = minimize_converter(problem, pruned)
        sp.set(before=len(converter.states), after=len(pruned.states))
        obs.add(
            "quotient.prune.states_removed",
            len(converter.states) - len(pruned.states),
        )
    report = product_satisfies(problem.component, pruned, problem.service)
    if not report.holds:  # pragma: no cover - internal consistency guard
        raise AssertionError(
            "pruning broke the converter:\n" + report.describe()
        )
    return pruned.renamed(f"pruned({converter.name})")
