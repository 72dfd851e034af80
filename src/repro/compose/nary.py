"""N-ary composition of specifications.

Conversion systems are built from chains of components — e.g. the paper's
Fig. 9 configuration ``A0 ‖ Ach ‖ Nch ‖ N1``.  :func:`compose_many` folds
the binary operator left-to-right and then flattens the nested pair state
labels into plain tuples ``(s1, s2, ..., sk)``, which keeps multi-component
composites readable and hashable.

Note on associativity: iterated binary ``‖`` hides an event as soon as two
adjacent partial composites share it, so an event appearing in *three*
component alphabets would be hidden after the first synchronization and the
third component could never participate.  :func:`compose_many` detects this
through its static-analysis preflight (rule ``COMP001``) and raises
:class:`~repro.errors.LintError` (a :class:`CompositionError` subclass),
since it almost always indicates a mis-declared interface.  (Events shared
by exactly two components — the normal point-to-point interface case — are
handled exactly as the paper's operator does.)
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Sequence

from .. import obs
from ..errors import CompositionError
from ..lint.engine import preflight_composition
from ..spec.spec import Specification, State
from .binary import compose

if TYPE_CHECKING:
    # type-only: a runtime import would be circular (quotient imports compose)
    from ..persist.interrupt import InterruptController
    from ..quotient.budget import Budget


def _flatten_state(state: State, depth: int) -> tuple:
    """Unfold ``(((s1, s2), s3), s4)`` into ``(s1, s2, s3, s4)``."""
    if depth == 1:
        return (state,)
    assert isinstance(state, tuple) and len(state) == 2
    return _flatten_state(state[0], depth - 1) + (state[1],)


def compose_many(
    specs: Sequence[Specification],
    *,
    name: str | None = None,
    reachable_only: bool = True,
    preflight: bool = True,
    budget: "Budget | None" = None,
    interrupt: "InterruptController | None" = None,
) -> Specification:
    """Compose ``specs[0] ‖ specs[1] ‖ ... ‖ specs[k-1]``.

    Parameters
    ----------
    specs:
        At least one specification.  A single spec is returned unchanged
        (modulo renaming).
    name:
        Display name of the composite (default: joined component names).
    reachable_only:
        Restrict to the reachable product (default True).
    preflight:
        Run the composition-scope static-analysis rules first (default
        on); error-severity findings — e.g. ``COMP001``, an event shared
        by three or more alphabets — raise :class:`~repro.errors.LintError`
        before any product is built.  With ``preflight=False`` only the
        hard overshared-event check runs (the composition would be
        silently wrong without it).
    budget:
        Optional :class:`~repro.quotient.budget.Budget` passed to every
        binary :func:`~repro.compose.compose` in the fold; each binary
        step gets a fresh meter, so the limits apply per step.
    interrupt:
        Optional :class:`~repro.persist.InterruptController` passed to
        every binary step for cooperative cancellation.

    Raises
    ------
    CompositionError
        If ``specs`` is empty, or an event appears in three or more
        component alphabets (see module docstring).
    """
    if not specs:
        raise CompositionError("compose_many requires at least one specification")
    composite_name = name if name is not None else "||".join(s.name for s in specs)
    if len(specs) == 1:
        return specs[0].renamed(composite_name)

    if preflight:
        preflight_composition(specs).raise_if_errors()
    else:
        counts = Counter(e for s in specs for e in s.alphabet)
        overshared = sorted(e for e, n in counts.items() if n >= 3)
        if overshared:
            raise CompositionError(
                f"events {overshared} appear in three or more component "
                "alphabets; iterated binary composition would hide them after "
                "the first synchronization — declare distinct point-to-point "
                "interfaces"
            )

    with obs.span("compose_many", parts=len(specs), composite=composite_name) as sp:
        result = specs[0]
        for nxt in specs[1:]:
            result = compose(
                result,
                nxt,
                reachable_only=reachable_only,
                budget=budget,
                interrupt=interrupt,
            )
        result = result.renamed(composite_name)
        depth = len(specs)
        mapping = {s: _flatten_state(s, depth) for s in result.states}
        result = result.map_states(mapping)
        sp.set(states=len(result.states))
    return result
