"""Integer-indexed kernel for the quotient phases (Fig. 5 / Fig. 6).

The safety and progress phases both walk graphs whose nodes are built from
``(a, b)`` pairs of service and component states.  The reference
implementations (:mod:`repro.quotient.safety_phase`,
:mod:`repro.quotient.progress_phase`) operate directly on labeled states
and pay for ``repr()``-based sorting and tuple hashing on every step.

This module runs the same explorations over the compiled forms of the two
input machines (:mod:`repro.spec.compiled`): a pair ``(a, b)`` becomes the
int code ``a_id * |S_B| + b_id``, the ``ψ``-advance of the service hub is a
table lookup, and the ``ok`` check of the Ext-closure is a row of ints.
Results decode back to the reference pair-set representation at the
boundary, so the constructed ``C0``/converter specifications — and every
phase counter — are identical to the reference path's.

Compiled problems are memoized in a small bounded cache keyed on the
:class:`~repro.quotient.types.QuotientProblem` (a frozen, hashable value
object), so the safety and progress phases of one solve — and every later
solve of an equal problem, on any thread — share a single compilation.
The ``τ*`` crawl condenses its product subgraph with the shared
:func:`~repro.spec.graph.strongly_connected`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque

from .. import obs
from ..spec.compiled import CompiledSpec, compiled
from ..spec.graph import strongly_connected
from ..spec.spec import Specification
from .types import Pair, PairSet, QuotientProblem

__all__ = [
    "CompiledProblem",
    "compiled_problem",
    "problem_cache_clear",
    "safety_explore_kernel",
    "progress_phase_kernel",
]

#: Bound on the compiled-problem cache (each entry also pins the compiled
#: service and component in the spec-level cache).
PROBLEM_CACHE_MAXSIZE = 64

#: Distinguishes "no cached successor batch" from a cached ``None`` (¬ok).
_MISS = object()


class CompiledProblem:
    """A quotient problem over interned ids.

    Pairs ``(a, b)`` are coded as ``a_id * n_component + b_id``, where ids
    come from the compiled service (``ca``) and component (``cb``).

    One instance is shared, through the problem cache, by every solve of
    an equal problem, concurrent ones included.  That is safe because the
    object is read-only apart from the ``_succ_codes``/``_int_seeds``
    memos, and those hold only pure functions of their key: a racing
    thread can at worst compute an entry twice, with the same value.
    Per-call scratch (visited sets, stacks) must stay local to the call.
    """

    __slots__ = (
        "problem",
        "ca",
        "cb",
        "n_component",
        "psi",
        "menus",
        "int_events",
        "ext_moves_b",
        "int_moves_b",
        "ext_mask_b",
        "_succ_codes",
        "_int_seeds",
    )

    def __init__(self, problem: QuotientProblem) -> None:
        self.problem = problem
        ca: CompiledSpec = compiled(problem.service)
        cb: CompiledSpec = compiled(problem.component)
        self.ca = ca
        self.cb = cb
        self.n_component = cb.n_states
        self.psi = ca.psi_table()
        self.menus = ca.acceptance_menus()

        ext = problem.interface.ext_events
        self.int_events = sorted(problem.interface.int_events)
        int_index = {e: k for k, e in enumerate(self.int_events)}

        # Component moves, partitioned by the interface: Ext moves carry the
        # *service* event id (they drive the ψ table); Int moves carry the
        # index into the sorted Int-event list (they drive φ and the
        # converter's transitions).
        ext_moves_b: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
        int_moves_b: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
        ext_mask_b: list[int] = []
        for b in range(cb.n_states):
            ext_here: list[tuple[int, tuple[int, ...]]] = []
            int_here: list[tuple[int, tuple[int, ...]]] = []
            mask = 0
            for eid, targets in cb.ext_moves[b]:
                event = cb.events[eid]
                if event in ext:
                    svc_eid = ca.event_index[event]
                    ext_here.append((svc_eid, targets))
                    mask |= 1 << svc_eid
                else:
                    int_here.append((int_index[event], targets))
            ext_moves_b.append(tuple(ext_here))
            int_moves_b.append(tuple(int_here))
            ext_mask_b.append(mask)
        self.ext_moves_b = tuple(ext_moves_b)
        self.int_moves_b = tuple(int_moves_b)
        self.ext_mask_b = tuple(ext_mask_b)

        self._succ_codes: dict[int, tuple[int, ...] | None] = {}
        self._int_seeds: dict[int, tuple[tuple[int, ...], ...]] = {}

    # ------------------------------------------------------------------
    # pair-code helpers
    # ------------------------------------------------------------------
    def decode_pairs(self, codes: frozenset[int]) -> PairSet:
        """A frozenset of pair codes as the reference ``PairSet``."""
        nb = self.n_component
        a_states = self.ca.states
        b_states = self.cb.states
        return frozenset(
            (a_states[code // nb], b_states[code % nb]) for code in codes
        )

    def encode_pair(self, pair: Pair) -> int:
        a, b = pair
        return self.ca.index[a] * self.n_component + self.cb.index[b]

    # ------------------------------------------------------------------
    # the Ext-closure (h / φ saturation with the ok check)
    # ------------------------------------------------------------------
    def _succ_for(self, code: int) -> tuple[int, ...] | None:
        """The one-step successor codes of *code*, memoized (``None`` = ¬ok).

        A pair's λ- and ψ-mirrored expansions depend only on the pair, and
        the same codes recur across thousands of closure calls, so the
        batch is computed once per code.
        """
        nb = self.n_component
        a, b = divmod(code, nb)
        base = code - b
        out = [base + b2 for b2 in self.cb.int_succ[b]]
        psi_row = self.psi[a]
        result: tuple[int, ...] | None = None
        for svc_eid, targets in self.ext_moves_b[b]:
            a2 = psi_row[svc_eid]
            if a2 < 0:
                # τ.b ∩ Ext ⊄ τ*.a — ok fails for any set containing (a, b)
                break
            base2 = a2 * nb
            out.extend(base2 + b2 for b2 in targets)
        else:
            result = tuple(out)
        self._succ_codes[code] = result
        return result

    def ext_closure(self, seed) -> frozenset[int] | None:
        """Saturate *seed* under B's λ steps and service-mirrored Ext events.

        Returns ``None`` when some reached pair ``(a, b)`` has ``B`` enabling
        an Ext event the service hub cannot perform (``¬ok``), mirroring
        :func:`repro.quotient.hmap.ext_closure`.
        """
        succ_codes = self._succ_codes
        stack: list[int] = []
        closed: set[int] = set()
        for code in seed:
            if code not in closed:
                closed.add(code)
                stack.append(code)
        while stack:
            code = stack.pop()
            succs = succ_codes.get(code, _MISS)
            if succs is _MISS:
                succs = self._succ_for(code)
            if succs is None:
                return None
            for c2 in succs:
                if c2 not in closed:
                    closed.add(c2)
                    stack.append(c2)
        return frozenset(closed)

    def extend(self, codes: frozenset[int], int_idx: int) -> frozenset[int] | None:
        """``φ(J, e)`` over pair codes for the Int event at *int_idx*."""
        int_seeds = self._int_seeds
        seed: list[int] = []
        for code in codes:
            segments = int_seeds.get(code)
            if segments is None:
                segments = self._int_seeds_for(code)
            targets = segments[int_idx]
            if targets:
                seed.extend(targets)
        return self.ext_closure(seed)

    def _int_seeds_for(self, code: int) -> tuple[tuple[int, ...], ...]:
        """Per Int event, the φ seed codes contributed by *code* (memoized).

        ``extend`` runs once per (pair set, event) and iterates the whole
        set each time; batching a code's shifted targets for **all** Int
        events in one cached row turns that inner loop into a dict hit
        and a tuple index.
        """
        b = code % self.n_component
        base = code - b
        row: list[tuple[int, ...]] = [()] * len(self.int_events)
        for int_idx, targets in self.int_moves_b[b]:
            row[int_idx] = tuple(base + b2 for b2 in targets)
        segments = tuple(row)
        self._int_seeds[code] = segments
        return segments


# ----------------------------------------------------------------------
# the bounded problem cache
# ----------------------------------------------------------------------
_PROBLEM_CACHE: OrderedDict[QuotientProblem, CompiledProblem] = OrderedDict()
#: Guards the cache the way :data:`repro.spec.compiled._CACHE_LOCK` does.
_PROBLEM_CACHE_LOCK = threading.Lock()


def compiled_problem(problem: QuotientProblem) -> CompiledProblem:
    """The compiled form of *problem*, from a bounded LRU cache.

    Safe to call from any thread; a miss compiles outside the lock.
    """
    with _PROBLEM_CACHE_LOCK:
        entry = _PROBLEM_CACHE.get(problem)
        if entry is not None:
            _PROBLEM_CACHE.move_to_end(problem)
    if entry is not None:
        obs.add("kernel.problem_cache_hits", 1)
        return entry
    obs.add("kernel.problem_cache_misses", 1)
    entry = CompiledProblem(problem)
    with _PROBLEM_CACHE_LOCK:
        _PROBLEM_CACHE[problem] = entry
        evicted = len(_PROBLEM_CACHE) > PROBLEM_CACHE_MAXSIZE
        if evicted:
            _PROBLEM_CACHE.popitem(last=False)
    if evicted:
        obs.add("kernel.problem_cache_evictions", 1)
    return entry


def problem_cache_clear() -> None:
    """Drop every cached compiled problem (testing aid)."""
    with _PROBLEM_CACHE_LOCK:
        _PROBLEM_CACHE.clear()


# ----------------------------------------------------------------------
# safety phase (Fig. 5) over pair codes
# ----------------------------------------------------------------------
def safety_explore_kernel(
    problem: QuotientProblem,
    meter=None,
    resume: dict | None = None,
) -> tuple[PairSet | None, set[PairSet], list[tuple[PairSet, str, PairSet]], int, int]:
    """The Fig. 5 exploration, returning the reference representation.

    Returns ``(start, states, transitions, explored, rejected)`` — exactly
    what the labeled loop in :mod:`repro.quotient.safety_phase` computes
    (``start is None`` when ``¬ok.(h.ε)``).  *meter* is an optional
    :class:`~repro.quotient.budget.BudgetMeter`; the loop is flattened
    exactly like the reference one's, with charges after each work unit,
    so count limits and interrupts trip at identical points.  *resume* is
    a snapshot in the reference (pair-set) representation — checkpoints
    are path-independent — re-encoded here through the bijective
    ``encode_pair``.
    """
    cp = compiled_problem(problem)
    int_events = cp.int_events
    n_events = len(int_events)
    if resume is None:
        start_codes = cp.ext_closure(
            {cp.ca.initial * cp.n_component + cp.cb.initial}
        )
        if start_codes is None:
            if meter is not None:
                meter.charge(pairs=1)
            return None, set(), [], 1, 1
        start = cp.decode_pairs(start_codes)
        explored = 1
        rejected = 0
        decoded: dict[frozenset[int], PairSet] = {start_codes: start}
        states: set[PairSet] = {start}
        transitions: list[tuple[PairSet, str, PairSet]] = []
        seen: set[frozenset[int]] = {start_codes}
        worklist: deque[frozenset[int]] = deque([start_codes])
        current: frozenset[int] | None = None
        next_event = 0
    else:
        def encode(label: PairSet) -> frozenset[int]:
            return frozenset(cp.encode_pair(pair) for pair in label)

        start = resume["start"]
        explored = resume["explored"]
        rejected = resume["rejected"]
        states = set(resume["states"])
        transitions = list(resume["transitions"])
        decoded = {}
        seen = set()
        for label in states:
            codes = encode(label)
            decoded[codes] = label
            seen.add(codes)
        worklist = deque(encode(label) for label in resume["worklist"])
        resumed_current = resume["current"]
        current = None if resumed_current is None else encode(resumed_current)
        next_event = resume["next_event"]

    def snap() -> dict:
        return {
            "start": start,
            "current": None if current is None else decoded[current],
            "next_event": next_event,
            "states": set(states),
            "worklist": [decoded[codes] for codes in worklist],
            "transitions": list(transitions),
            "explored": explored,
            "rejected": rejected,
        }

    if resume is None and meter is not None:
        meter.charge(pairs=1, states=1, snapshot=snap)
    while True:
        if current is None or next_event >= n_events:
            if not worklist:
                break
            current = worklist.popleft()
            next_event = 0
            continue
        int_idx = next_event
        candidate = cp.extend(current, int_idx)
        explored += 1
        next_event += 1
        added = 0
        if candidate is None:
            rejected += 1
        else:
            label = decoded.get(candidate)
            if label is None:
                label = cp.decode_pairs(candidate)
                decoded[candidate] = label
            if candidate not in seen:
                seen.add(candidate)
                states.add(label)
                worklist.append(candidate)
                added = 1
            transitions.append((decoded[current], int_events[int_idx], label))
        if meter is not None:
            meter.charge(
                pairs=1, states=added, frontier=len(worklist), snapshot=snap
            )
    return start, states, transitions, explored, rejected


# ----------------------------------------------------------------------
# progress phase (Fig. 6) over interned converter states
# ----------------------------------------------------------------------
def _adjacency_from(
    cp: CompiledProblem,
    succ_c: tuple[dict[int, tuple[int, ...]], ...],
    alive,
    n_converter: int,
    seeds,
) -> dict[int, tuple[int, ...]]:
    """The internal product subgraph reachable from *seeds*.

    Node code is ``b_id * n_converter + ci``; each node's successor batch
    is a function of the node and the round's ``succ_c``/``alive``
    context alone.
    """
    lam = cp.cb.int_succ
    int_moves_b = cp.int_moves_b
    m = n_converter

    def successors(node: int) -> tuple[int, ...]:
        b, ci = divmod(node, m)
        result: list[int] = []
        for b2 in lam[b]:
            result.append(b2 * m + ci)
        row = succ_c[ci]
        for int_idx, targets in int_moves_b[b]:
            cjs = row.get(int_idx)
            if not cjs:
                continue
            for cj in cjs:
                if cj in alive:
                    for b2 in targets:
                        result.append(b2 * m + cj)
        return tuple(result)

    adjacency: dict[int, tuple[int, ...]] = {}
    stack = list(seeds)
    while stack:
        node = stack.pop()
        if node in adjacency:
            continue
        succs = successors(node)
        adjacency[node] = succs
        for nxt in succs:
            if nxt not in adjacency:
                stack.append(nxt)
    return adjacency


def _tau_star_from_adjacency(
    cp: CompiledProblem,
    adjacency: dict[int, tuple[int, ...]],
    n_converter: int,
) -> dict[int, int]:
    """``τ*.⟨b, c⟩`` event masks for every node of a closed *adjacency*.

    Mirrors ``_composite_tau_star_impl``: condensation of the internal
    subgraph, then Ext-event propagation successors-first.  The result
    (and the emitted node/SCC counters) depends only on the graph, not on
    the dict's insertion order.
    """
    ext_mask_b = cp.ext_mask_b
    m = n_converter
    components, scc_of = strongly_connected(adjacency, adjacency.__getitem__)
    scc_events: list[int] = []
    for comp_idx, members in enumerate(components):
        events = 0
        for node in members:
            events |= ext_mask_b[node // m]
            for nxt in adjacency[node]:
                j = scc_of[nxt]
                if j != comp_idx:
                    events |= scc_events[j]
        scc_events.append(events)

    obs.add("quotient.progress.tau_star_nodes", len(adjacency))
    obs.add("quotient.progress.tau_star_sccs", len(scc_events))
    return {node: scc_events[scc_of[node]] for node in adjacency}


def _round_tau_star(
    cp: CompiledProblem,
    succ_c: tuple[dict[int, tuple[int, ...]], ...],
    alive: set[int],
    n_converter: int,
    needed: list[int],
) -> dict[int, int]:
    """``τ*.⟨b, c⟩`` event masks for the requested product nodes."""
    adjacency = _adjacency_from(
        cp, succ_c, alive, n_converter, list(dict.fromkeys(needed))
    )
    return _tau_star_from_adjacency(cp, adjacency, n_converter)


def progress_phase_kernel(problem, c0, f, meter=None, resume=None):
    """The Fig. 6 loop over interned ids; see ``progress_phase``.

    Imports of the result types are deferred to the caller's module to keep
    a single definition site; this function returns the identical
    ``ProgressPhaseResult`` the reference loop produces (including returning
    the *original* ``c0`` object when round 0 removes nothing).  *meter* is
    an optional :class:`~repro.quotient.budget.BudgetMeter`, charged one
    ``pairs`` unit per product-pair check exactly as the reference loop.
    *resume* is a tuple of completed ``ProgressRound``s (label space, so
    checkpoints transfer between paths); the corresponding bad states are
    stripped from ``alive`` before the loop re-enters.
    """
    from .progress_phase import _replay_terminal
    from .types import ProgressPhaseResult, ProgressRound

    cp = compiled_problem(problem)
    int_index = {e: k for k, e in enumerate(cp.int_events)}

    # intern the converter: its states are the safety-phase pair sets
    c_states = list(c0.states)
    c_index = {c: ci for ci, c in enumerate(c_states)}
    m = len(c_states)
    succ_c_build: list[dict[int, list[int]]] = [{} for _ in range(m)]
    for s, e, s2 in c0.external:
        succ_c_build[c_index[s]].setdefault(int_index[e], []).append(c_index[s2])
    succ_c: tuple[dict[int, tuple[int, ...]], ...] = tuple(
        {k: tuple(v) for k, v in row.items()} for row in succ_c_build
    )
    # pair codes per converter state (duplicates impossible: f[c] is a set)
    ca_index = cp.ca.index
    cb_index = cp.cb.index
    nb = cp.n_component
    pairs_of: list[list[int]] = [
        [ca_index[a] * nb + cb_index[b] for a, b in f[c]] for c in c_states
    ]
    menus = cp.menus
    initial_ci = c_index[c0.initial]

    alive = set(range(m))
    rounds: list = []
    if resume:
        rounds = list(resume)
        removed: set = set()
        for completed in rounds:
            removed |= completed.bad_states
        terminal = _replay_terminal(c0, rounds, removed)
        if terminal is not None:
            return terminal
        alive = {ci for ci in alive if c_states[ci] not in removed}

    def snap() -> dict:
        return {"rounds": tuple(rounds)}

    with obs.span("progress_phase") as phase_span:
        while True:
            with obs.span("progress_round", round=len(rounds)) as round_span:
                needed: list[int] = []
                for ci in alive:
                    base = ci
                    for code in pairs_of[ci]:
                        needed.append((code % nb) * m + base)
                if meter is not None:
                    meter.charge(
                        pairs=len(needed), frontier=len(alive), snapshot=snap
                    )
                with obs.span("tau_star", pairs=len(needed)):
                    offered = _round_tau_star(cp, succ_c, alive, m, needed)

                bad: set[int] = set()
                for ci in alive:
                    for code in pairs_of[ci]:
                        off = offered[(code % nb) * m + ci]
                        menu = menus[code // nb]
                        if not any(accept & off == accept for accept in menu):
                            bad.add(ci)
                            break
                rounds.append(
                    ProgressRound(
                        round_index=len(rounds),
                        bad_states=frozenset(c_states[ci] for ci in bad),
                        remaining=len(alive) - len(bad),
                    )
                )
                round_span.set(
                    pairs_checked=len(needed),
                    bad=len(bad),
                    remaining=len(alive) - len(bad),
                )
                obs.add("quotient.progress.rounds", 1)
                obs.add("quotient.progress.pairs_checked", len(needed))
                obs.add("quotient.progress.bad_states_removed", len(bad))
            if not bad:
                phase_span.set(exists=True, rounds=len(rounds))
                obs.gauge("quotient.progress.final_states", len(alive))
                if len(rounds) == 1:
                    spec = c0
                else:
                    keep = {c_states[ci] for ci in alive}
                    spec = Specification(
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
                return ProgressPhaseResult(spec=spec, rounds=tuple(rounds))
            if initial_ci in bad or len(bad) == len(alive):
                phase_span.set(exists=False, rounds=len(rounds))
                obs.gauge("quotient.progress.final_states", 0)
                return ProgressPhaseResult(spec=None, rounds=tuple(rounds))
            alive -= bad
