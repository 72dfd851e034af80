"""Reachable product graphs for the semantic analyzer.

The ``SEM2xx`` rules (:mod:`repro.lint.semantic`) are reachability
properties of the *product* of several communicating machines: a state of
one part may be locally reachable yet dead in every composed run, a
transition may never fire on any product path, a product state may
deadlock.  This module builds that product once, deterministically, and
hands the rules a fully decoded :class:`ProductGraph`:

* **vectors** — every reachable tuple ``⟨s₁ … sₙ⟩`` of part states, in
  BFS discovery order (``vectors[0]`` is the initial vector);
* **edges** — per vector, the external moves (events owned by exactly one
  part) and the internal moves (one part's λ step, or a synchronization
  on an event shared by two or more parts — the moves ``‖`` would hide);
* **usage** — per part, which states appear in some vector and which
  transitions actually fire on some product edge;
* **witnesses** — first-discovery parent pointers, so every vector has a
  deterministic shortest-in-BFS-order trace from the initial vector.

Exploration follows the semantics of :func:`repro.compose.binary.compose`
(synchronize on shared events, interleave the rest) but keeps the part
structure instead of collapsing to an opaque composite, because the rules
must attribute findings to individual parts.

Exploration runs over the labeled states directly: the products the
analyzer sees are small, and a compiled twin saved at most 1.3 ms on any
``analyze --scenario`` product.  It is budget-metered (:class:`~repro.quotient.budget.Budget`): one
``states`` charge per discovered vector, one ``pairs`` charge per expanded
vector.  The ``lint.sem.product_states`` / ``lint.sem.product_edges``
counters record what was explored even when the budget trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .. import obs
from ..events import Event
from ..spec.spec import Specification, State, _state_sort_key

if TYPE_CHECKING:
    from ..quotient.budget import BudgetMeter

#: Label used for a part's internal (λ) step in rendered witness traces.
LAMBDA_STEP = "λ"


@dataclass(frozen=True)
class ProductGraph:
    """The reachable product of ``parts``, fully decoded and indexed.

    ``ext_out[i]`` / ``int_out[i]`` are the outgoing moves of vector
    ``i``: ``(event, target)`` pairs for solo (external) moves, and
    ``(label, target)`` pairs for hidden moves where ``label`` is the
    synchronized event or ``None`` for a single part's λ step.
    ``used[p]`` / ``fired_ext[p]`` / ``fired_int[p]`` project the product
    back onto part ``p``.
    """

    parts: tuple[Specification, ...]
    vectors: tuple[tuple[State, ...], ...]
    ext_out: tuple[tuple[tuple[Event, int], ...], ...]
    int_out: tuple[tuple[tuple[Event | None, int], ...], ...]
    parents: tuple[tuple[int, Event | None] | None, ...]
    used: tuple[frozenset[State], ...]
    fired_ext: tuple[frozenset[tuple[State, Event, State]], ...]
    fired_int: tuple[frozenset[tuple[State, State]], ...]
    _trace_cache: dict[int, tuple[str, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        return len(self.vectors)

    def trace_to(self, idx: int) -> tuple[str, ...]:
        """Event labels along the BFS discovery path to vector *idx*.

        External and synchronized steps contribute the event name;
        λ steps contribute :data:`LAMBDA_STEP`.  Deterministic: the path
        follows first-discovery parent pointers.
        """
        cached = self._trace_cache.get(idx)
        if cached is not None:
            return cached
        labels: list[str] = []
        cursor = idx
        while True:
            parent = self.parents[cursor]
            if parent is None:
                break
            prev, label = parent
            labels.append(LAMBDA_STEP if label is None else label)
            cursor = prev
        labels.reverse()
        trace = tuple(labels)
        self._trace_cache[idx] = trace
        return trace

    def witness(self, idx: int) -> dict:
        """The standard product-state witness payload for diagnostics."""
        return {
            "product_state": self.vectors[idx],
            "trace": list(self.trace_to(idx)),
        }


def _event_owners(
    parts: Sequence[Specification],
) -> tuple[tuple[Event, ...], dict[Event, tuple[int, ...]]]:
    """The sorted union alphabet and each event's owning part indices."""
    owners: dict[Event, list[int]] = {}
    for p_idx, part in enumerate(parts):
        for e in part.alphabet:
            owners.setdefault(e, []).append(p_idx)
    events = tuple(sorted(owners))
    return events, {e: tuple(owners[e]) for e in events}


def explore_product(
    parts: Sequence[Specification],
    *,
    meter: "BudgetMeter | None" = None,
) -> ProductGraph:
    """Build the reachable product graph of *parts*.

    Raises :class:`~repro.errors.BudgetExceeded` /
    :class:`~repro.errors.InterruptRequested` mid-exploration when the
    *meter* trips; charges are placed after completed work units, so a
    budget that never trips cannot change the result.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("cannot explore the product of zero parts")
    with obs.span("semantic_product", parts=len(parts)):
        return _explore(parts, meter)


def _explore(
    parts: tuple[Specification, ...],
    meter: "BudgetMeter | None",
) -> ProductGraph:
    events, owners = _event_owners(parts)

    initial = tuple(p.initial for p in parts)
    index: dict[tuple[State, ...], int] = {initial: 0}
    vectors: list[tuple[State, ...]] = [initial]
    parents: list[tuple[int, Event | None] | None] = [None]
    ext_out: list[tuple[tuple[Event, int], ...]] = []
    int_out: list[tuple[tuple[Event | None, int], ...]] = []
    cursor = 0
    try:
        if meter is not None:
            meter.charge(states=1, frontier=1)
        while cursor < len(vectors):
            vec = vectors[cursor]
            ext_moves: list[tuple[Event, int]] = []
            int_moves: list[tuple[Event | None, int]] = []

            def intern(target: tuple[State, ...], label: Event | None) -> int:
                idx = index.get(target)
                if idx is None:
                    idx = len(vectors)
                    index[target] = idx
                    vectors.append(target)
                    parents.append((cursor, label))
                    if meter is not None:
                        meter.charge(states=1, frontier=len(vectors) - cursor)
                return idx

            for e in events:
                owner_ids = owners[e]
                if any(e not in parts[p].enabled(vec[p]) for p in owner_ids):
                    continue
                # cartesian product of each owner's targets, owner-major order
                combos: list[list[State]] = [[]]
                for p in owner_ids:
                    targets = sorted(
                        parts[p].successors(vec[p], e), key=_state_sort_key
                    )
                    combos = [c + [t] for c in combos for t in targets]
                for combo in combos:
                    target = list(vec)
                    for p, t in zip(owner_ids, combo):
                        target[p] = t
                    idx = intern(tuple(target), e)
                    if len(owner_ids) == 1:
                        ext_moves.append((e, idx))
                    else:
                        int_moves.append((e, idx))
            for p, part in enumerate(parts):
                for t in sorted(part.internal_successors(vec[p]), key=_state_sort_key):
                    target = vec[:p] + (t,) + vec[p + 1 :]
                    int_moves.append((None, intern(target, None)))

            ext_out.append(tuple(ext_moves))
            int_out.append(tuple(int_moves))
            cursor += 1
            if meter is not None:
                meter.charge(pairs=1, frontier=len(vectors) - cursor)
    finally:
        # recorded on a budget trip too, so partial runs report their work
        obs.add("lint.sem.product_states", len(vectors))
        obs.add(
            "lint.sem.product_edges",
            sum(len(m) for m in ext_out) + sum(len(m) for m in int_out),
        )

    return _finish(parts, vectors, ext_out, int_out, parents, owners)


# ----------------------------------------------------------------------
# projection / packaging
# ----------------------------------------------------------------------
def _finish(
    parts: tuple[Specification, ...],
    vectors: list[tuple[State, ...]],
    ext_out: list[tuple[tuple[Event, int], ...]],
    int_out: list[tuple[tuple[Event | None, int], ...]],
    parents: list[tuple[int, Event | None] | None],
    owners: dict[Event, tuple[int, ...]],
) -> ProductGraph:
    used: list[set[State]] = [set() for _ in parts]
    for vec in vectors:
        for p, s in enumerate(vec):
            used[p].add(s)

    fired_ext: list[set[tuple[State, Event, State]]] = [set() for _ in parts]
    fired_int: list[set[tuple[State, State]]] = [set() for _ in parts]
    for src, moves in enumerate(ext_out):
        vec = vectors[src]
        for e, dst in moves:
            (p,) = owners[e]
            fired_ext[p].add((vec[p], e, vectors[dst][p]))
    for src, moves in enumerate(int_out):
        vec = vectors[src]
        for label, dst in moves:
            target = vectors[dst]
            if label is None:
                for p, s in enumerate(vec):
                    if target[p] != s:
                        fired_int[p].add((s, target[p]))
                if target == vec:
                    # a self-looping λ step: attribute it to every part
                    # that has one (cannot be told apart — all fired)
                    for p, part in enumerate(parts):
                        if vec[p] in part.internal_successors(vec[p]):
                            fired_int[p].add((vec[p], vec[p]))
            else:
                for p in owners[label]:
                    fired_ext[p].add((vec[p], label, target[p]))

    return ProductGraph(
        parts=parts,
        vectors=tuple(vectors),
        ext_out=tuple(ext_out),
        int_out=tuple(int_out),
        parents=tuple(parents),
        used=tuple(frozenset(u) for u in used),
        fired_ext=tuple(frozenset(f) for f in fired_ext),
        fired_int=tuple(frozenset(f) for f in fired_int),
    )
