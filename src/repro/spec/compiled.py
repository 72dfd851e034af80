"""The compiled integer-indexed kernel behind the hot product-graph loops.

Every phase of the paper's algorithm — composition (Section 3), the safety
and progress phases of the quotient (Section 4), and independent
satisfaction checking — reduces to exploring a product graph whose nodes
pair states of two machines.  Running those explorations directly over
heterogeneous hashable state labels (nested tuples, frozensets) pays for
``repr()``-based sort keys, per-call ``frozenset`` allocations, and tuple
hashing on every step.

:class:`CompiledSpec` is built **once** per immutable
:class:`~repro.spec.spec.Specification` and re-expresses the machine over
dense integers:

* states are interned to ``0..n-1`` in the spec's canonical deterministic
  order (the cached ``_state_sort_key`` order), so ``sorted(ids)`` is
  exactly the ordering the labeled algorithms use;
* the alphabet is interned to event ids in lexicographic order, with each
  state's enabled set available as an int **bitmask**;
* external and internal adjacency are flat per-state tuples of target ids.

Whole-spec analyses (``λ*`` closures, ``τ*`` event masks, sink sets and
acceptance menus, the normal-form ``ψ`` table) are memoized on the compiled
object, and compiled objects themselves are memoized in a bounded LRU cache
keyed on the spec — valid because specifications are immutable, hashable
value objects.

The kernel runs in six places, each of which a benchmark workload
measures: :func:`~repro.compose.binary.compose`,
:func:`~repro.satisfy.safety.satisfies_safety`,
:func:`~repro.satisfy.progress.satisfies_progress`, the quotient's
safety and progress phases (:mod:`repro.quotient.kernel`), and
:func:`~repro.satisfy.verify.product_satisfies`, which checks ``B ‖ C``
against the service on a compiled view of the product that
:meth:`CompiledSpec.from_tables` builds straight from pair codes (such
views never enter the cache below).  Each keeps its labeled reference
path beside it as the differential oracle; :func:`use_kernel` forces
those paths.  Both produce *identical* results — the compiled
explorations decode back to the same labeled specifications, verdicts
and counterexamples at the boundary (see ``tests/test_compiled_kernel.py``
and ``docs/performance.md``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator

from .. import obs
from ..events import Alphabet, Event
from .graph import strongly_connected
from .spec import Specification, State

__all__ = [
    "CompiledSpec",
    "compiled",
    "compiled_cache_clear",
    "compiled_cache_info",
    "iter_bits",
    "kernel_enabled",
    "use_kernel",
]

#: Bound on the compiled-spec LRU cache.  Compilation is linear in the spec,
#: so the bound only matters to keep long-lived processes from pinning every
#: spec they ever touched.
CACHE_MAXSIZE = 128

_ENABLED = True


def kernel_enabled() -> bool:
    """Whether hot paths should use the compiled kernel (default on)."""
    return _ENABLED


@contextmanager
def use_kernel(enabled: bool) -> Iterator[None]:
    """Temporarily force the kernel on or off (testing / benchmarking)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    try:
        yield
    finally:
        _ENABLED = previous


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of *mask*, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CompiledSpec:
    """An integer-indexed view of one immutable specification.

    Attributes
    ----------
    source:
        The specification this was compiled from (used only to decode and
        to delegate error reporting; equal specs compile interchangeably).
    states:
        Tuple of state labels; ``states[i]`` decodes id ``i``.  The order is
        the spec's deterministic sort order, so ascending ids reproduce
        every ``sorted(..., key=_state_sort_key)`` in the labeled paths.
    events:
        Tuple of event names in lexicographic order; ``events[j]`` decodes
        event id ``j`` and bit ``1 << j`` represents it in masks.
    ext_moves:
        ``ext_moves[i]`` is a tuple of ``(event_id, targets)`` pairs for the
        events enabled in state ``i``, event ids ascending, ``targets`` a
        tuple of target ids ascending.
    ext_by_eid:
        ``ext_by_eid[i]`` maps event id → target-id tuple (lookup form of
        ``ext_moves``; absent keys mean the event is not enabled).
    int_succ:
        ``int_succ[i]`` is the tuple of λ-successor ids, ascending.
    enabled_mask:
        ``enabled_mask[i]`` is the event bitmask of ``τ.s`` for state ``i``.
    """

    __slots__ = (
        "source",
        "states",
        "index",
        "events",
        "event_index",
        "initial",
        "n_states",
        "n_events",
        "ext_moves",
        "ext_by_eid",
        "int_succ",
        "enabled_mask",
        "_memo",
    )

    def __init__(self, spec: Specification) -> None:
        order = spec.sorted_by_rank(spec.states)
        index = {s: i for i, s in enumerate(order)}
        events = tuple(sorted(spec.alphabet))
        event_index = {e: j for j, e in enumerate(events)}
        ext_moves: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
        int_succ: list[tuple[int, ...]] = []
        for s in order:
            moves: list[tuple[int, tuple[int, ...]]] = []
            for e in sorted(spec.enabled(s)):
                targets = tuple(sorted(index[t] for t in spec.successors(s, e)))
                moves.append((event_index[e], targets))
            ext_moves.append(tuple(moves))
            int_succ.append(
                tuple(sorted(index[t] for t in spec.internal_successors(s)))
            )
        self._set_tables(
            spec, tuple(order), events, index[spec.initial],
            tuple(ext_moves), tuple(int_succ),
        )
        self.index = index
        self.ext_by_eid = tuple(
            {eid: targets for eid, targets in moves} for moves in self.ext_moves
        )

    @classmethod
    def from_tables(
        cls,
        *,
        states: tuple[State, ...],
        events: tuple[Event, ...],
        initial: int,
        ext_moves: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...],
        int_succ: tuple[tuple[int, ...], ...],
    ) -> "CompiledSpec":
        """A compiled spec with no source specification.

        For a product that is walked but never built as a
        :class:`Specification` (:func:`repro.compose.binary.compiled_product`).
        The tables must follow the orders documented on the class.  Only
        what a walk over the machine reads is set: ``source`` is ``None``
        and ``index`` and ``ext_by_eid`` are absent, so such an object must
        not be composed or solved against.
        """
        self = cls.__new__(cls)
        self._set_tables(None, states, events, initial, ext_moves, int_succ)
        return self

    def _set_tables(
        self,
        source: Specification | None,
        states: tuple[State, ...],
        events: tuple[Event, ...],
        initial: int,
        ext_moves: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...],
        int_succ: tuple[tuple[int, ...], ...],
    ) -> None:
        self.source = source
        self.states = states
        self.events = events
        self.event_index = {e: j for j, e in enumerate(events)}
        self.initial = initial
        self.n_states = len(states)
        self.n_events = len(events)
        self.ext_moves = ext_moves
        self.int_succ = int_succ
        enabled_mask: list[int] = []
        for moves in ext_moves:
            mask = 0
            for eid, _ in moves:
                mask |= 1 << eid
            enabled_mask.append(mask)
        self.enabled_mask = tuple(enabled_mask)
        self._memo: dict[str, object] = {}

    # ------------------------------------------------------------------
    # decode helpers
    # ------------------------------------------------------------------
    def decode_event_mask(self, mask: int) -> Alphabet:
        """An event bitmask as an :class:`~repro.events.Alphabet`."""
        events = self.events
        return Alphabet(events[j] for j in iter_bits(mask))

    def decode_state_mask(self, mask: int) -> frozenset:
        """A state bitmask as a frozenset of state labels."""
        states = self.states
        return frozenset(states[i] for i in iter_bits(mask))

    def encode_events(self, events) -> int:
        """An iterable of event names as a bitmask."""
        event_index = self.event_index
        mask = 0
        for e in events:
            mask |= 1 << event_index[e]
        return mask

    def closure_of(self, state: int) -> list[int]:
        """``λ*`` of one state as ascending ids.

        A depth-first walk from *state*: unlike :meth:`closure_masks`, it
        builds no table for the whole machine.
        """
        int_succ = self.int_succ
        seen = {state}
        stack = [state]
        while stack:
            for t in int_succ[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return sorted(seen)

    # ------------------------------------------------------------------
    # memoized whole-spec analyses
    # ------------------------------------------------------------------
    def _condensation(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Tarjan SCCs of the λ graph over ids.

        Returns ``(scc_of, components)`` with components emitted in reverse
        topological order (every λ-successor component has a lower index).
        """
        cached = self._memo.get("condensation")
        if cached is None:
            components, scc_of = strongly_connected(
                range(self.n_states), self.int_succ.__getitem__
            )
            cached = (
                tuple(scc_of[i] for i in range(self.n_states)),
                tuple(tuple(members) for members in components),
            )
            self._memo["condensation"] = cached
        return cached  # type: ignore[return-value]

    def closure_masks(self) -> tuple[int, ...]:
        """``λ*`` per state, as a state bitmask (bit ``i`` = state id ``i``)."""
        cached = self._memo.get("closure_masks")
        if cached is None:
            scc_of, components = self._condensation()
            comp_mask = [0] * len(components)
            # components arrive children-first, so one pass suffices
            for idx, members in enumerate(components):
                mask = 0
                for m in members:
                    mask |= 1 << m
                for m in members:
                    for t in self.int_succ[m]:
                        j = scc_of[t]
                        if j != idx:
                            mask |= comp_mask[j]
                comp_mask[idx] = mask
            cached = tuple(comp_mask[scc_of[i]] for i in range(self.n_states))
            self._memo["closure_masks"] = cached
        return cached  # type: ignore[return-value]

    def tau_star_masks(self) -> tuple[int, ...]:
        """``τ*`` per state, as an event bitmask."""
        cached = self._memo.get("tau_star_masks")
        if cached is None:
            scc_of, components = self._condensation()
            comp_events = [0] * len(components)
            for idx, members in enumerate(components):
                events = 0
                for m in members:
                    events |= self.enabled_mask[m]
                    for t in self.int_succ[m]:
                        j = scc_of[t]
                        if j != idx:
                            events |= comp_events[j]
                comp_events[idx] = events
            cached = tuple(comp_events[scc_of[i]] for i in range(self.n_states))
            self._memo["tau_star_masks"] = cached
        return cached  # type: ignore[return-value]

    def sink_menu(self) -> tuple[tuple[int, int], ...]:
        """Sink sets as ``(member_mask, acceptance_event_mask)`` pairs.

        Ordered exactly like :func:`repro.spec.graph.sink_sets` (by the
        sorted member ids, which is the sorted state-key order).
        """
        cached = self._memo.get("sink_menu")
        if cached is None:
            scc_of, components = self._condensation()
            sinks: list[tuple[tuple[int, ...], int, int]] = []
            for idx, members in enumerate(components):
                leaves = any(
                    scc_of[t] != idx for m in members for t in self.int_succ[m]
                )
                if leaves:
                    continue
                member_mask = 0
                accept = 0
                for m in members:
                    member_mask |= 1 << m
                    accept |= self.enabled_mask[m]
                sinks.append((tuple(sorted(members)), member_mask, accept))
            sinks.sort(key=lambda entry: entry[0])
            cached = tuple((mask, accept) for _, mask, accept in sinks)
            self._memo["sink_menu"] = cached
        return cached  # type: ignore[return-value]

    def acceptance_menus(self) -> tuple[tuple[int, ...], ...]:
        """Per state: acceptance event masks of the λ*-reachable sinks.

        Mirrors :func:`repro.spec.graph.sink_acceptance_sets` — one entry
        per reachable sink in global sink order, duplicates preserved.
        """
        cached = self._memo.get("acceptance_menus")
        if cached is None:
            closures = self.closure_masks()
            menu = self.sink_menu()
            cached = tuple(
                tuple(
                    accept
                    for member_mask, accept in menu
                    if member_mask & closures[i]
                )
                for i in range(self.n_states)
            )
            self._memo["acceptance_menus"] = cached
        return cached  # type: ignore[return-value]

    def psi_table(self) -> tuple[tuple[int, ...], ...]:
        """``ψ``-step table for a normal-form spec: state × event → id.

        ``psi_table()[a][e] == -1`` means the event is not enabled anywhere
        in ``a``'s internal closure (the labeled ``psi_step`` returns
        ``None``).  Ambiguity — possible only when the spec is *not* in
        normal form — raises the same :class:`~repro.errors.NormalFormError`
        the labeled path raises, by delegating to it.
        """
        cached = self._memo.get("psi_table")
        if cached is None:
            closures = self.closure_masks()
            rows: list[tuple[int, ...]] = []
            for a in range(self.n_states):
                row = [-1] * self.n_events
                for member in iter_bits(closures[a]):
                    for eid, targets in self.ext_moves[member]:
                        for t in targets:
                            if row[eid] == -1 or row[eid] == t:
                                row[eid] = t
                            else:
                                # non-unique ψ-step: raise the reference error
                                from .normal_form import psi_step

                                psi_step(
                                    self.source,
                                    self.states[a],
                                    self.events[eid],
                                )
                rows.append(tuple(row))
            cached = tuple(rows)
            self._memo["psi_table"] = cached
        return cached  # type: ignore[return-value]


# ----------------------------------------------------------------------
# the bounded compile cache
# ----------------------------------------------------------------------
_CACHE: OrderedDict[Specification, CompiledSpec] = OrderedDict()
#: Held across each lookup-and-refresh and each insert-and-evict: the
#: server's worker threads share the cache, and an eviction between
#: ``get`` and ``move_to_end`` would make ``move_to_end`` raise KeyError.
_CACHE_LOCK = threading.Lock()


def compiled(spec: Specification) -> CompiledSpec:
    """The compiled form of *spec*, from the bounded LRU cache.

    Keyed on the specification itself: equality is structural, so two equal
    specs (regardless of display name) share one compiled object — safe
    because the compiled form never exposes the name.  Safe to call from
    any thread; a miss compiles outside the lock.
    """
    with _CACHE_LOCK:
        entry = _CACHE.get(spec)
        if entry is not None:
            _CACHE.move_to_end(spec)
    if entry is not None:
        obs.add("kernel.cache_hits", 1)
        return entry
    obs.add("kernel.cache_misses", 1)
    obs.add("kernel.compile_calls", 1)
    entry = CompiledSpec(spec)
    with _CACHE_LOCK:
        _CACHE[spec] = entry
        if len(_CACHE) > CACHE_MAXSIZE:
            _CACHE.popitem(last=False)
    return entry


def compiled_cache_clear() -> None:
    """Drop every cached compiled spec (testing aid)."""
    with _CACHE_LOCK:
        _CACHE.clear()


def compiled_cache_info() -> dict[str, int]:
    """Current cache occupancy (``size`` / ``maxsize``)."""
    return {"size": len(_CACHE), "maxsize": CACHE_MAXSIZE}
