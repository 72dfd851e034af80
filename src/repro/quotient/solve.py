"""Top-level quotient solver.

Runs the two phases of Section 4 in order, trims the result to its
reachable part (presentation only — bad-state removal has already been
applied exhaustively), relabels converter states to compact integers while
retaining the pair-set annotation ``f``, and — by default — **independently
re-verifies** the produced converter through :mod:`repro.satisfy` (a
different code path), so a returned converter is never taken on faith.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Iterable

from .. import obs
from ..errors import BudgetExceeded, InterruptRequested, QuotientError
from ..lint.engine import lint_checkpoint, preflight_quotient
from ..satisfy.verify import SatisfactionReport, product_satisfies
from ..spec.ops import prune_unreachable
from ..spec.spec import Specification, State
from .budget import Budget
from .progress_phase import progress_phase
from .safety_phase import safety_phase
from .types import PairSet, QuotientProblem, QuotientResult

if TYPE_CHECKING:
    from ..persist.checkpoint import Checkpoint
    from ..persist.interrupt import InterruptController


def _relabel_with_f(
    spec: Specification,
) -> tuple[Specification, dict[State, PairSet]]:
    """BFS-relabel a pair-set-state machine to integers, keeping ``f``."""
    order = spec._bfs_order()
    mapping = {s: i for i, s in enumerate(order)}
    relabeled = spec.map_states(mapping)
    f = {mapping[s]: s for s in spec.states}
    return relabeled, f


def solve_quotient(
    service: Specification,
    component: Specification,
    *,
    int_events: Iterable[str] | None = None,
    verify: bool = True,
    preflight: bool = True,
    deep_preflight: bool = False,
    budget: Budget | None = None,
    interrupt: "InterruptController | None" = None,
    resume_from: "Checkpoint | None" = None,
) -> QuotientResult:
    """Compute the quotient ``service / component``.

    Parameters
    ----------
    service:
        The service specification ``A`` (must be in normal form, alphabet
        ``Ext``).
    component:
        The composite of existing protocol components ``B`` (alphabet
        ``Int ∪ Ext``).
    int_events:
        Optional declaration of ``Int`` to validate against the inferred
        ``Σ_B − Σ_A``.
    verify:
        Re-check the returned converter independently via
        :func:`repro.satisfy.verify.product_satisfies` (default on).  A
        verification failure raises :class:`QuotientError` — it would
        indicate a bug in the solver, never a property of the inputs.
    preflight:
        Statically lint the problem first (default on): partition
        violations, a non-normal-form service, and similar malformations
        raise :class:`~repro.errors.LintError` with *every* violation
        collected, instead of a first-failure exception from inside the
        algorithm.  Pass ``False`` to opt out (the per-check exceptions of
        :class:`~repro.quotient.types.QuotientProblem` still apply).
    deep_preflight:
        Additionally run the *semantic* analyzer
        (:func:`repro.lint.semantic.deep_preflight`) over both inputs
        before solving: reachability-level defects — a reachable deadlock
        (``SEM204``) or livelock (``SEM205``) in the component composite —
        raise :class:`~repro.errors.LintError` with a product-state
        witness trace, instead of surfacing as an inexplicably empty
        converter.  Off by default because it explores both machines'
        full graphs; the exploration honors ``budget``.
    budget:
        Optional :class:`~repro.quotient.budget.Budget` bounding the solve.
        Each phase (safety, progress, the verification product) gets a
        fresh meter, so count/time limits apply per phase; exceeding a
        limit raises :class:`~repro.errors.BudgetExceeded` naming the
        interrupted phase and carrying its partial statistics.  A budget
        that is never hit leaves the result byte-identical to an
        unbudgeted run.
    interrupt:
        Optional :class:`~repro.persist.InterruptController`.  A pending
        SIGINT, an expired deadline, or a deterministic test point raises
        :class:`~repro.errors.InterruptRequested` at the next charge
        boundary.  Both it and :class:`~repro.errors.BudgetExceeded`
        carry a :class:`~repro.persist.Checkpoint` (``exc.checkpoint``)
        capturing the interrupted phase's exact state.
    resume_from:
        A checkpoint from a previous interrupted solve of the *same*
        problem.  The solve continues where it stopped and produces a
        result byte-identical to an uninterrupted run.  A checkpoint
        whose fingerprint does not match the problem raises
        :class:`~repro.errors.LintError` (rule ``QUOT104``).  Budgets are
        per-run: the resumed run charges fresh meters, so pass a larger
        budget (or none) or the same limit will trip again.

    Returns
    -------
    QuotientResult
        ``result.exists`` tells whether a converter exists; when it does,
        ``result.converter`` is the maximal converter (Theorem 1 / 2) with
        integer states and ``result.f`` maps each state to its ``(a, b)``
        pair set.  When an :mod:`repro.obs` collector is recording,
        ``result.stats`` carries the collected metrics snapshot.
    """
    with obs.span(
        "solve_quotient", service=service.name, component=component.name
    ) as sp:
        result = _solve(
            service,
            component,
            int_events=int_events,
            verify=verify,
            preflight=preflight,
            deep_preflight=deep_preflight,
            budget=budget,
            interrupt=interrupt,
            resume_from=resume_from,
        )
        sp.set(exists=result.exists)
    stats = obs.snapshot_if_recording()
    if stats is not None:
        result = replace(result, stats=stats)
    return result


def _validate_resume(
    problem: QuotientProblem, checkpoint: "Checkpoint"
) -> tuple[dict | None, "tuple | None"]:
    """Decode *checkpoint* for *problem*, rejecting stale checkpoints.

    A checkpoint taken for different inputs (service, component, or Int)
    fails the ``QUOT104`` lint with a :class:`~repro.errors.LintError`;
    resuming from it would silently compute garbage.  Returns the decoded
    ``(safety_resume, progress_resume)`` states.
    """
    from ..persist.checkpoint import (
        decode_quotient_payload,
        problem_fingerprint,
    )

    lint_checkpoint(
        kind=checkpoint.kind,
        phase=checkpoint.phase,
        fingerprint=checkpoint.fingerprint,
        expected_kind="quotient",
        expected_fingerprint=problem_fingerprint(problem),
    ).raise_if_errors()
    return decode_quotient_payload(checkpoint)


def _attach_checkpoint(
    exc: BudgetExceeded | InterruptRequested,
    problem: QuotientProblem,
    *,
    phase: str,
    safety_state: dict | None,
    rounds: "tuple | None",
) -> None:
    from ..persist.checkpoint import quotient_checkpoint

    exc.checkpoint = quotient_checkpoint(
        problem, phase=phase, safety_state=safety_state, rounds=rounds
    )


def _solve(
    service: Specification,
    component: Specification,
    *,
    int_events: Iterable[str] | None,
    verify: bool,
    preflight: bool,
    deep_preflight: bool = False,
    budget: Budget | None = None,
    interrupt: "InterruptController | None" = None,
    resume_from: "Checkpoint | None" = None,
) -> QuotientResult:
    if preflight:
        with obs.span("preflight"):
            preflight_quotient(service, component, int_events).raise_if_errors()
    if deep_preflight:
        from ..lint.semantic import deep_preflight as semantic_preflight

        with obs.span("deep_preflight"):
            semantic_preflight(
                service, component, budget=budget, interrupt=interrupt
            ).raise_if_errors()
    problem = QuotientProblem.build(service, component, int_events)

    safety_resume: dict | None = None
    progress_resume: "tuple | None" = None
    if resume_from is not None:
        safety_resume, progress_resume = _validate_resume(problem, resume_from)

    try:
        safety = safety_phase(
            problem, budget=budget, interrupt=interrupt, resume=safety_resume
        )
    except (BudgetExceeded, InterruptRequested) as exc:
        _attach_checkpoint(
            exc,
            problem,
            phase="safety",
            safety_state=exc.phase_state,
            rounds=None,
        )
        raise
    if not safety.exists:
        return QuotientResult(
            problem=problem,
            exists=False,
            converter=None,
            safety=safety,
            progress=None,
        )
    assert safety.spec is not None

    from ..persist.checkpoint import completed_safety_state

    try:
        progress = progress_phase(
            problem,
            safety.spec,
            safety.f,
            budget=budget,
            interrupt=interrupt,
            resume=progress_resume,
        )
    except (BudgetExceeded, InterruptRequested) as exc:
        _attach_checkpoint(
            exc,
            problem,
            phase="progress",
            safety_state=completed_safety_state(safety),
            rounds=(exc.phase_state or {"rounds": ()})["rounds"],
        )
        raise

    c0_relabeled, c0_f = _relabel_with_f(safety.spec)

    if not progress.exists:
        return QuotientResult(
            problem=problem,
            exists=False,
            converter=None,
            c0=c0_relabeled,
            c0_f=c0_f,
            safety=safety,
            progress=progress,
        )
    assert progress.spec is not None

    with obs.span("finalize") as sp:
        final = prune_unreachable(progress.spec)
        converter, f = _relabel_with_f(final)
        converter = converter.renamed(
            f"C({problem.service.name}/{problem.component.name})"
        )
        sp.set(states=len(converter.states), transitions=len(converter.external))
        obs.gauge("quotient.converter.states", len(converter.states))
        obs.gauge("quotient.converter.transitions", len(converter.external))

    verification: SatisfactionReport | None = None
    if verify:
        try:
            with obs.span("verify"):
                verification = verify_converter(
                    problem, converter, budget=budget, interrupt=interrupt
                )
        except (BudgetExceeded, InterruptRequested) as exc:
            # both phases are complete; a resume redoes only verification
            _attach_checkpoint(
                exc,
                problem,
                phase="verify",
                safety_state=completed_safety_state(safety),
                rounds=progress.rounds,
            )
            raise

    return QuotientResult(
        problem=problem,
        exists=True,
        converter=converter,
        f=f,
        c0=c0_relabeled,
        c0_f=c0_f,
        safety=safety,
        progress=progress,
        verification=verification,
    )


def verify_converter(
    problem: QuotientProblem,
    converter: Specification,
    *,
    budget: Budget | None = None,
    interrupt: "InterruptController | None" = None,
) -> SatisfactionReport:
    """Independently check ``B ‖ converter`` satisfies the service.

    Raises :class:`QuotientError` when the check fails — for converters
    produced by :func:`solve_quotient` this is an internal-consistency
    failure; for hand-written converters it is the answer to "is this
    converter correct?" (catch the exception or call
    :func:`repro.satisfy.verify.product_satisfies` directly for a
    non-raising check).  An optional *budget* bounds the exploration of
    ``B ‖ converter``; an optional *interrupt* lets it be cancelled
    cooperatively.
    """
    report = product_satisfies(
        problem.component,
        converter,
        problem.service,
        budget=budget,
        interrupt=interrupt,
    )
    if not report.holds:
        raise QuotientError(
            "converter failed independent verification:\n" + report.describe()
        )
    return report
