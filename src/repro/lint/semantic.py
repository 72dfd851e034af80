"""The semantic analyzer: reachability-based ``SEM2xx`` rules.

Where the structural rules (:mod:`repro.lint.rules`) inspect one machine's
shape, the semantic pass certifies *behaviour*: it builds the reachable
product graph of a system (:mod:`repro.lint.product`, budget-bounded) and
reports the classic failure modes of communicating machines — the
properties reachability analysis detects statically (Pachl's CFSM
analysis; the paper's Section 5 livelock observation):

``SEM201``  a part's state never occurs in any reachable product state;
``SEM202``  a part's transition never fires on any reachable product path;
``SEM203``  an unspecified reception: a shared receive event is offered,
            but a co-owning part can never accept it from its current
            state (anywhere in its forward cone);
``SEM204``  a reachable product deadlock (no moves at all);
``SEM205``  a livelock: an internal cycle with no exit and no external
            event offered anywhere on it;
``SEM206``  sink-unreachable acceptance: a product state from which every
            internal path falls silent (``τ* = ∅``) without being a
            deadlock or livelock itself;
``SEM207``  converter-coverage gaps: states/transitions of a derived
            converter ``C`` never exercised on the reachable ``B ‖ C``;
``SEM208``  quotient-maximality diagnostics: safety-quotient states the
            progress phase removed (and vacuous converter states) on a
            solved problem.

Every finding carries a **product-state witness**: the offending vector
``⟨s₁ … sₙ⟩`` plus the shortest-in-BFS-order event trace reaching it
(``λ`` marks internal steps).  Findings flow through the ordinary
:class:`~repro.lint.diagnostics.Diagnostic` / :class:`LintReport`
machinery, so text/JSON/SARIF rendering, ``select``/``ignore`` filtering,
and the docs self-check all treat semantic rules like structural ones.

Entry points: :func:`analyze_spec`, :func:`analyze_composition`,
:func:`analyze_converter`, :func:`analyze_result`, :func:`analyze_problem`
and the :func:`deep_preflight` hook used by ``solve_quotient``.  All are
budget-aware: a tripped :class:`~repro.quotient.budget.Budget` raises
:class:`~repro.errors.BudgetExceeded` with the diagnostics collected so
far attached as ``exc.partial_report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

from .. import obs
from ..events import Alphabet, Event, is_receive
from ..errors import BudgetExceeded, InterruptRequested
from ..spec.graph import reachable_states, strongly_connected
from ..spec.spec import Specification, State, _state_sort_key
from .diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Diagnostic,
    LintReport,
)
from .engine import Selection, select_rules
from .product import ProductGraph, explore_product
from .rules import Rule, rule

if TYPE_CHECKING:
    from ..persist.interrupt import InterruptController
    from ..quotient.budget import Budget, BudgetMeter
    from ..quotient.types import QuotientResult

#: Scope names of the semantic rule family (see ``select_rules``).
SEMANTIC_SCOPES = ("semantic", "semantic-converter", "semantic-result")


# ----------------------------------------------------------------------
# analysis targets (pre-chewed so rules stay pure formatters)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SemanticTarget:
    """A system's reachable product graph plus the derived facts the
    ``SEM201``–``SEM206`` rules report on."""

    parts: tuple[Specification, ...]
    graph: ProductGraph
    context: str
    local_reachable: tuple[frozenset[State], ...]
    future_events: tuple[Mapping[State, Alphabet], ...]
    deadlock_idxs: tuple[int, ...]
    livelock_sccs: tuple[tuple[int, ...], ...]
    doomed_idxs: tuple[int, ...]


@dataclass(frozen=True)
class ConverterTarget:
    """A derived converter against its component composite (``B ‖ C``)."""

    component: Specification
    converter: Specification
    graph: ProductGraph


@dataclass(frozen=True)
class ResultTarget:
    """A solved quotient (:class:`~repro.quotient.types.QuotientResult`)."""

    result: "QuotientResult"


# ----------------------------------------------------------------------
# derived-fact computation
# ----------------------------------------------------------------------
def _future_events(part: Specification) -> dict[State, Alphabet]:
    """Events enabled anywhere in each state's forward cone (``T ∪ λ``).

    ``e ∉ future_events[s]`` means the part can *never* take ``e`` again
    once in ``s`` — the conservative trigger for ``SEM203``.
    """
    future: dict[State, set[Event]] = {
        s: set(part.enabled(s)) for s in part.states
    }
    succs: dict[State, list[State]] = {}
    for s in part.states:
        nexts: set[State] = set(part.internal_successors(s))
        for e in part.enabled(s):
            nexts |= part.successors(s, e)
        succs[s] = sorted(nexts, key=_state_sort_key)
    changed = True
    while changed:
        changed = False
        for s in part.sorted_states():
            merged = future[s]
            before = len(merged)
            for s2 in succs[s]:
                merged |= future[s2]
            if len(merged) != before:
                changed = True
    return {s: Alphabet(evs) for s, evs in future.items()}


def _live_flags(graph: ProductGraph) -> list[bool]:
    """``live[i]`` — an external event is offered somewhere in the
    internal closure of vector ``i`` (the product-level ``τ* ≠ ∅``)."""
    n = graph.n
    live = [bool(graph.ext_out[i]) for i in range(n)]
    rev: list[list[int]] = [[] for _ in range(n)]
    for src in range(n):
        for _, dst in graph.int_out[src]:
            rev[dst].append(src)
    stack = [i for i in range(n) if live[i]]
    while stack:
        i = stack.pop()
        for j in rev[i]:
            if not live[j]:
                live[j] = True
                stack.append(j)
    return live


def _semantic_target(
    parts: Sequence[Specification],
    *,
    meter: "BudgetMeter | None" = None,
    context: str | None = None,
) -> SemanticTarget:
    parts = tuple(parts)
    graph = explore_product(parts, meter=meter)
    live = _live_flags(graph)
    deadlocks = tuple(
        i
        for i in range(graph.n)
        if not graph.ext_out[i] and not graph.int_out[i]
    )
    components, _ = strongly_connected(
        range(graph.n), lambda i: [dst for _, dst in graph.int_out[i]]
    )
    livelock_sccs: list[tuple[int, ...]] = []
    for comp_idx, members in enumerate(components):
        member_set = set(members)
        has_cycle = len(members) > 1 or any(
            dst == members[0] for _, dst in graph.int_out[members[0]]
        )
        if not has_cycle:
            continue
        if any(graph.ext_out[i] for i in members):
            continue
        leaves = any(
            dst not in member_set
            for i in members
            for _, dst in graph.int_out[i]
        )
        if not leaves:
            livelock_sccs.append(tuple(sorted(members)))
    livelock_sccs.sort(key=lambda scc: scc[0])
    livelocked = {i for scc in livelock_sccs for i in scc}
    dead = set(deadlocks)
    doomed = tuple(
        i
        for i in range(graph.n)
        if not live[i] and i not in dead and i not in livelocked
    )
    return SemanticTarget(
        parts=parts,
        graph=graph,
        context=context or "||".join(p.name for p in parts),
        local_reachable=tuple(frozenset(reachable_states(p)) for p in parts),
        future_events=tuple(_future_events(p) for p in parts),
        deadlock_idxs=deadlocks,
        livelock_sccs=tuple(livelock_sccs),
        doomed_idxs=doomed,
    )


# ----------------------------------------------------------------------
# rendering helpers (stable — golden files pin these formats)
# ----------------------------------------------------------------------
def _fmt_vec(vec: tuple[State, ...]) -> str:
    return "⟨" + ", ".join(repr(s) for s in vec) + "⟩"


def _fmt_trace(trace: tuple[str, ...]) -> str:
    return "⟨" + ".".join(trace) + "⟩"


# ----------------------------------------------------------------------
# SEM201–SEM206 — product-graph rules
# ----------------------------------------------------------------------
@rule(
    "SEM201",
    "dead-state-in-context",
    scope="semantic",
    severity=SEVERITY_WARNING,
    summary="a locally reachable state never occurs in any reachable "
    "product state of the composed system",
    hint="the state is dead code in this composition: remove it, or fix "
    "the partner specs that block every path to it",
)
def _check_dead_in_context(r: Rule, target: SemanticTarget) -> Iterator[Diagnostic]:
    for p, part in enumerate(target.parts):
        dead = target.local_reachable[p] - target.graph.used[p]
        for s in sorted(dead, key=_state_sort_key):
            yield r.diagnostic(
                f"state {s!r} of part {part.name!r} is locally reachable "
                f"but never occurs in any reachable state of "
                f"{target.context}",
                spec_name=part.name,
                state=s,
            )


@rule(
    "SEM202",
    "non-executable-transition",
    scope="semantic",
    severity=SEVERITY_WARNING,
    summary="a transition never fires on any reachable product path",
    hint="the transition is non-executable in this composition (Pachl's "
    "dead transition): remove it or fix the synchronization that "
    "blocks it",
)
def _check_non_executable(r: Rule, target: SemanticTarget) -> Iterator[Diagnostic]:
    for p, part in enumerate(target.parts):
        used = target.graph.used[p]
        fired_ext = target.graph.fired_ext[p]
        fired_int = target.graph.fired_int[p]
        ext = sorted(
            (t for t in part.external if t[0] in used and t not in fired_ext),
            key=lambda t: (_state_sort_key(t[0]), t[1], _state_sort_key(t[2])),
        )
        for s, e, t in ext:
            yield r.diagnostic(
                f"transition {s!r} --{e}--> {t!r} of part {part.name!r} "
                f"can never fire in {target.context}",
                spec_name=part.name,
                state=s,
                event=e,
                witness={"source": s, "event": e, "target": t},
            )
        lam = sorted(
            (t for t in part.internal if t[0] in used and t not in fired_int),
            key=lambda t: (_state_sort_key(t[0]), _state_sort_key(t[1])),
        )
        for s, t in lam:
            yield r.diagnostic(
                f"internal transition {s!r} --λ--> {t!r} of part "
                f"{part.name!r} can never fire in {target.context}",
                spec_name=part.name,
                state=s,
                witness={"source": s, "event": None, "target": t},
            )


@rule(
    "SEM203",
    "unspecified-reception",
    scope="semantic",
    severity=SEVERITY_ERROR,
    summary="a shared receive event is offered but a co-owning part can "
    "never accept it from its current state",
    hint="add the missing reception to the refusing machine (every state "
    "in its forward cone lacks the event), or show the offer is "
    "unreachable",
)
def _check_unspecified_reception(
    r: Rule, target: SemanticTarget
) -> Iterator[Diagnostic]:
    if len(target.parts) < 2:
        return
    parts = target.parts
    graph = target.graph
    owners: dict[Event, list[int]] = {}
    for p, part in enumerate(parts):
        for e in part.alphabet:
            owners.setdefault(e, []).append(p)
    shared_recv = sorted(
        e for e, ps in owners.items() if len(ps) >= 2 and is_receive(e)
    )
    if not shared_recv:
        return
    seen: set[tuple[int, State, Event]] = set()
    for idx in range(graph.n):
        vec = graph.vectors[idx]
        for e in shared_recv:
            owner_ids = owners[e]
            offerers = [p for p in owner_ids if e in parts[p].enabled(vec[p])]
            if not offerers:
                continue
            for p in owner_ids:
                if e in target.future_events[p][vec[p]]:
                    continue
                key = (p, vec[p], e)
                if key in seen:
                    continue
                seen.add(key)
                offerer = parts[offerers[0]]
                yield r.diagnostic(
                    f"reception {e!r} is unspecified: part "
                    f"{offerer.name!r} offers it in product state "
                    f"{_fmt_vec(vec)} (after {_fmt_trace(graph.trace_to(idx))}) "
                    f"but part {parts[p].name!r} can never accept it from "
                    f"state {vec[p]!r}",
                    spec_name=parts[p].name,
                    state=vec[p],
                    event=e,
                    witness={
                        **graph.witness(idx),
                        "event": e,
                        "offering_part": offerer.name,
                        "refusing_part": parts[p].name,
                        "refusing_state": vec[p],
                    },
                )


@rule(
    "SEM204",
    "reachable-deadlock",
    scope="semantic",
    severity=SEVERITY_ERROR,
    summary="a reachable product state has no outgoing transitions at all",
    hint="follow the witness trace; the composed machines block each "
    "other — add the missing synchronization or reception",
)
def _check_reachable_deadlock(
    r: Rule, target: SemanticTarget
) -> Iterator[Diagnostic]:
    graph = target.graph
    for idx in target.deadlock_idxs:
        vec = graph.vectors[idx]
        yield r.diagnostic(
            f"deadlock: product state {_fmt_vec(vec)} is reachable after "
            f"{_fmt_trace(graph.trace_to(idx))} and has no outgoing "
            f"transitions",
            spec_name=target.context,
            state=vec,
            witness=graph.witness(idx),
        )


@rule(
    "SEM205",
    "livelock-scc",
    scope="semantic",
    severity=SEVERITY_ERROR,
    summary="an internal cycle with no exit offers no external event "
    "(useless exchange forever)",
    hint="the paper's Section 5 livelock: the parts exchange hidden "
    "messages forever while the environment sees nothing — break the "
    "cycle or expose an external event on it",
)
def _check_livelock_scc(r: Rule, target: SemanticTarget) -> Iterator[Diagnostic]:
    graph = target.graph
    for scc in target.livelock_sccs:
        entry = scc[0]
        yield r.diagnostic(
            f"livelock: {len(scc)} product state(s) reachable after "
            f"{_fmt_trace(graph.trace_to(entry))} cycle internally forever "
            f"with no exit and no external event (entry "
            f"{_fmt_vec(graph.vectors[entry])})",
            spec_name=target.context,
            state=graph.vectors[entry],
            witness={
                "scc": [graph.vectors[i] for i in scc],
                "trace": list(graph.trace_to(entry)),
            },
        )


@rule(
    "SEM206",
    "sink-unreachable-acceptance",
    scope="semantic",
    severity=SEVERITY_WARNING,
    summary="every internal path from a reachable product state falls "
    "silent: no sink set with a non-empty acceptance menu is reachable",
    hint="the state is doomed (its τ* is empty): every continuation ends "
    "in the deadlock or livelock reported alongside",
)
def _check_sink_unreachable(
    r: Rule, target: SemanticTarget
) -> Iterator[Diagnostic]:
    graph = target.graph
    for idx in target.doomed_idxs:
        vec = graph.vectors[idx]
        yield r.diagnostic(
            f"no acceptance reachable from product state {_fmt_vec(vec)} "
            f"(after {_fmt_trace(graph.trace_to(idx))}): τ* is empty, every "
            f"internal path ends in deadlock or livelock",
            spec_name=target.context,
            state=vec,
            witness=graph.witness(idx),
        )


# ----------------------------------------------------------------------
# SEM207 — converter coverage on B ‖ C
# ----------------------------------------------------------------------
@rule(
    "SEM207",
    "converter-coverage-gap",
    scope="semantic-converter",
    severity=SEVERITY_INFO,
    summary="a state or transition of the derived converter is never "
    "exercised on the reachable B ‖ C",
    hint="expected for a maximal converter (the paper's \"superfluous "
    "portions\"); prune with prune_unreachable()/coverage tooling if a "
    "minimal converter is wanted",
)
def _check_converter_coverage(
    r: Rule, target: ConverterTarget
) -> Iterator[Diagnostic]:
    graph = target.graph
    conv = target.converter
    engaged = graph.used[1]
    for s in sorted(conv.states - engaged, key=_state_sort_key):
        yield r.diagnostic(
            f"converter state {s!r} is never engaged by any reachable "
            f"state of {target.component.name}||{conv.name}",
            spec_name=conv.name,
            state=s,
        )
    fired = graph.fired_ext[1]
    unexercised = sorted(
        (t for t in conv.external if t[0] in engaged and t not in fired),
        key=lambda t: (_state_sort_key(t[0]), t[1], _state_sort_key(t[2])),
    )
    for s, e, t in unexercised:
        yield r.diagnostic(
            f"converter transition {s!r} --{e}--> {t!r} is never exercised "
            f"on the reachable {target.component.name}||{conv.name}",
            spec_name=conv.name,
            state=s,
            event=e,
            witness={"source": s, "event": e, "target": t},
        )


# ----------------------------------------------------------------------
# SEM208 — quotient maximality on a solved problem
# ----------------------------------------------------------------------
def _sorted_pairs(pairs: Iterable[tuple[State, State]]) -> list[tuple[State, State]]:
    return sorted(
        pairs, key=lambda ab: (_state_sort_key(ab[0]), _state_sort_key(ab[1]))
    )


@rule(
    "SEM208",
    "quotient-maximality",
    scope="semantic-result",
    severity=SEVERITY_INFO,
    summary="diagnostics on how far the solved converter is from the "
    "safety-maximal quotient (progress-removed and vacuous states)",
    hint="informational: Theorem 2 removes exactly the non-progressing "
    "states, so these gaps are inherent to the problem, not a solver "
    "defect",
)
def _check_quotient_maximality(
    r: Rule, target: ResultTarget
) -> Iterator[Diagnostic]:
    result = target.result
    if not result.exists or result.converter is None or result.c0 is None:
        return
    surviving = set(result.f.values())
    removed_in_round: dict[Any, int] = {}
    if result.progress is not None:
        for rnd in result.progress.rounds:
            for bad in rnd.bad_states:
                removed_in_round.setdefault(bad, rnd.round_index)
    for state in sorted(result.c0_f, key=_state_sort_key):
        pair_set = result.c0_f[state]
        if pair_set in surviving:
            continue
        pairs = _sorted_pairs(pair_set)
        round_idx = removed_in_round.get(pair_set)
        if round_idx is not None:
            reason = f"removed as non-progressing in progress round {round_idx}"
        else:
            reason = "unreachable after progress pruning"
        yield r.diagnostic(
            f"safety-quotient state {state!r} ({len(pairs)} pair(s)) is "
            f"not in the final converter: {reason}",
            spec_name=result.converter.name,
            state=state,
            witness={"pairs": pairs, "reason": reason},
        )
    for state in sorted(result.f, key=_state_sort_key):
        if not result.f[state]:
            yield r.diagnostic(
                f"converter state {state!r} is vacuous: its quotient pair "
                f"set is empty (no component trace matches any converter "
                f"trace reaching it)",
                spec_name=result.converter.name,
                state=state,
                witness={"pairs": [], "reason": "vacuous"},
            )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def _meter(
    budget: "Budget | None", interrupt: "InterruptController | None"
) -> "BudgetMeter | None":
    from ..quotient.budget import make_meter

    return make_meter(budget, "semantic", interrupt)


def _attach_partial(
    exc: BudgetExceeded | InterruptRequested, reports: Sequence[LintReport]
) -> None:
    partial = LintReport.collect((), target="(semantic, partial)")
    for report in reports:
        partial = partial.merged_with(report)
    exc.partial_report = partial  # type: ignore[attr-defined]


def _finish_report(report: LintReport) -> LintReport:
    obs.add("lint.sem.analyses", 1)
    obs.add("lint.sem.findings", len(report.diagnostics))
    return report


def analyze_spec(
    spec: Specification,
    *,
    budget: "Budget | None" = None,
    interrupt: "InterruptController | None" = None,
    select: Selection = None,
    ignore: Selection = None,
) -> LintReport:
    """Semantic analysis of one machine's own reachable graph.

    For a single part the composition-only rules (``SEM201``–``SEM203``)
    are vacuous by construction; the pass certifies deadlock (SEM204),
    livelock (SEM205) and doomed-state (SEM206) freedom.
    """
    return analyze_composition(
        [spec], budget=budget, interrupt=interrupt, select=select, ignore=ignore
    )


def analyze_composition(
    parts: Sequence[Specification],
    *,
    budget: "Budget | None" = None,
    interrupt: "InterruptController | None" = None,
    select: Selection = None,
    ignore: Selection = None,
) -> LintReport:
    """Semantic analysis of the product of *parts* (``SEM201``–``SEM206``)."""
    rules = select_rules(scopes=["semantic"], select=select, ignore=ignore)
    parts = tuple(parts)
    context = "||".join(p.name for p in parts)
    with obs.span("analyze_semantic", target=context):
        try:
            target = _semantic_target(parts, meter=_meter(budget, interrupt))
        except (BudgetExceeded, InterruptRequested) as exc:
            _attach_partial(exc, [])
            raise
        found: list[Diagnostic] = []
        for r in rules:
            found.extend(r.check(target))
    return _finish_report(
        LintReport.collect(
            found, target=context, rules_run=(r.code for r in rules)
        )
    )


def analyze_converter(
    component: Specification,
    converter: Specification,
    *,
    budget: "Budget | None" = None,
    interrupt: "InterruptController | None" = None,
    select: Selection = None,
    ignore: Selection = None,
) -> LintReport:
    """Coverage analysis of a derived converter on ``B ‖ C`` (``SEM207``)."""
    rules = select_rules(
        scopes=["semantic-converter"], select=select, ignore=ignore
    )
    context = f"{component.name}||{converter.name}"
    with obs.span("analyze_converter", target=context):
        try:
            graph = explore_product(
                (component, converter), meter=_meter(budget, interrupt)
            )
        except (BudgetExceeded, InterruptRequested) as exc:
            _attach_partial(exc, [])
            raise
        target = ConverterTarget(component, converter, graph)
        found: list[Diagnostic] = []
        for r in rules:
            found.extend(r.check(target))
    return _finish_report(
        LintReport.collect(
            found, target=context, rules_run=(r.code for r in rules)
        )
    )


def analyze_result(
    result: "QuotientResult",
    *,
    budget: "Budget | None" = None,
    interrupt: "InterruptController | None" = None,
    select: Selection = None,
    ignore: Selection = None,
) -> LintReport:
    """Post-solve analysis: ``SEM207`` coverage plus ``SEM208`` maximality."""
    rules = select_rules(scopes=["semantic-result"], select=select, ignore=ignore)
    target_name = (
        result.converter.name
        if result.converter is not None
        else f"{result.problem.service.name}/{result.problem.component.name}"
    )
    found: list[Diagnostic] = []
    for r in rules:
        found.extend(r.check(ResultTarget(result)))
    report = LintReport.collect(
        found, target=target_name, rules_run=(r.code for r in rules)
    )
    if result.exists and result.converter is not None:
        try:
            coverage = analyze_converter(
                result.problem.component,
                result.converter,
                budget=budget,
                interrupt=interrupt,
                select=select,
                ignore=ignore,
            )
        except (BudgetExceeded, InterruptRequested) as exc:
            _attach_partial(exc, [report])
            raise
        report = report.merged_with(coverage)
    return _finish_report(report)


def analyze_problem(
    service: Specification,
    component: Specification,
    int_events: Iterable[str] | None = None,
    *,
    solve: bool = True,
    budget: "Budget | None" = None,
    interrupt: "InterruptController | None" = None,
    select: Selection = None,
    ignore: Selection = None,
) -> LintReport:
    """Full semantic certification of a quotient problem.

    Analyzes the service and the component composite as standalone
    machines, then (with ``solve``, the default) derives the converter and
    adds the ``SEM207``/``SEM208`` coverage and maximality diagnostics.
    A problem with no converter simply contributes no coverage findings —
    use ``repro-converter diagnose`` for the *why*.
    """
    reports: list[LintReport] = []
    try:
        reports.append(
            analyze_spec(
                service,
                budget=budget,
                interrupt=interrupt,
                select=select,
                ignore=ignore,
            )
        )
        reports.append(
            analyze_spec(
                component,
                budget=budget,
                interrupt=interrupt,
                select=select,
                ignore=ignore,
            )
        )
        if solve:
            from ..quotient.solve import solve_quotient

            result = solve_quotient(
                service,
                component,
                int_events=int_events,
                budget=budget,
                interrupt=interrupt,
            )
            reports.append(
                analyze_result(
                    result,
                    budget=budget,
                    interrupt=interrupt,
                    select=select,
                    ignore=ignore,
                )
            )
    except (BudgetExceeded, InterruptRequested) as exc:
        if not hasattr(exc, "partial_report"):
            _attach_partial(exc, reports)
        else:
            _attach_partial(
                exc, reports + [exc.partial_report]  # type: ignore[attr-defined]
            )
        raise
    merged = reports[0]
    for report in reports[1:]:
        merged = merged.merged_with(report)
    return merged


def deep_preflight(
    service: Specification,
    component: Specification,
    *,
    budget: "Budget | None" = None,
    interrupt: "InterruptController | None" = None,
) -> LintReport:
    """The ``solve_quotient(deep_preflight=True)`` hook.

    Semantically certifies both inputs *before* the quotient runs: a
    component composite with a reachable deadlock or livelock (``SEM204``
    / ``SEM205``) is a malformed world model, and catching it here gives
    a witness trace instead of an empty converter downstream.  Errors
    abort the solve via :meth:`LintReport.raise_if_errors`.
    """
    report = analyze_spec(service, budget=budget, interrupt=interrupt)
    return report.merged_with(
        analyze_spec(component, budget=budget, interrupt=interrupt)
    )
