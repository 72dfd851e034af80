"""Analytical resilience evaluation: sweep fault models over a converter.

Given a service ``A``, the components of a conversion system, and a
derived converter ``C``, :func:`evaluate_resilience` asks, for every fault
model in a grid: *does the fixed converter still work when one component
degrades, and if not, could a converter be re-derived for the degraded
world?*  Each cell of the resulting :class:`ResilienceMatrix` carries one
of five verdicts:

``tolerated``
    ``B′ ‖ C ⊨ A`` still holds — the existing converter absorbs the fault.
``re-derivable``
    The fixed converter fails, but :func:`repro.quotient.solve_quotient`
    finds a (different) converter for the faulted components.
``safety-broken`` / ``progress-broken``
    The fixed converter fails in the named phase and **no** converter
    exists for the faulted world (or re-derivation was skipped or ran out
    of budget) — the fault is fatal to the conversion, not just to this
    converter.  Failure cells carry the counterexample trace or progress
    violation from the satisfaction check.
``no-converter``
    The cell could not be evaluated at all (e.g. the fault model does not
    apply to the target component).

Verdict precedence is ``tolerated`` > ``re-derivable`` > phase-broken:
the matrix reports the *best* outcome available at each cell.

Every sweep is instrumented with ``faults.*`` obs counters; solves accept
a :class:`~repro.quotient.budget.Budget` so a fault-inflated state space
degrades into a recorded ``budget-exceeded`` note instead of a runaway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .. import obs
from ..compose.nary import compose_many
from ..errors import (
    BudgetExceeded,
    FaultModelError,
    InterruptRequested,
    ReproError,
)
from ..events import is_receive, is_send, message_of
from ..gcpause import gc_paused
from ..lint.engine import lint_checkpoint
from ..obs.progress import current_reporter
from ..persist.checkpoint import (
    KIND_RESILIENCE,
    Checkpoint,
    resilience_fingerprint,
)
from ..persist.store import load_checkpoint, save_checkpoint
from ..quotient.budget import Budget
from ..quotient.solve import solve_quotient
from ..satisfy.verify import product_satisfies
from ..spec.spec import Specification
from ..traces.core import Trace, format_trace
from .models import FaultModel, fault_model

if TYPE_CHECKING:
    from ..persist.interrupt import InterruptController

__all__ = [
    "ResilienceCell",
    "ResilienceMatrix",
    "default_grid",
    "evaluate_resilience",
    "sweep_fingerprint",
]

VERDICTS = (
    "tolerated",
    "re-derivable",
    "safety-broken",
    "progress-broken",
    "no-converter",
)


def default_grid(
    severities: Sequence[int] = (1, 2), *, timeout: str = "timeout"
) -> tuple[FaultModel, ...]:
    """The standard sweep: every fault kind at each severity.

    ``loss`` is parameterized with *timeout* so its added event matches
    the protocol under test (e.g. the AB protocol's ``timeout``).
    """
    grid: list[FaultModel] = []
    for severity in severities:
        grid.append(fault_model("loss", severity, timeout=timeout))
        grid.append(fault_model("duplication", severity))
        grid.append(fault_model("reorder", severity))
        grid.append(fault_model("corruption", severity))
        grid.append(fault_model("crash_restart", severity))
    return tuple(grid)


@dataclass(frozen=True)
class ResilienceCell:
    """One (fault model × target) evaluation of the matrix."""

    model: FaultModel
    target: str
    verdict: str
    fixed_holds: bool
    failure_phase: str | None = None
    counterexample: Trace | None = None
    rederive_attempted: bool = False
    rederive_exists: bool | None = None
    rederived_states: int | None = None
    budget_exceeded: dict | None = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.to_json_dict(),
            "target": self.target,
            "verdict": self.verdict,
            "fixed": {
                "holds": self.fixed_holds,
                "failure_phase": self.failure_phase,
                "counterexample": (
                    list(self.counterexample)
                    if self.counterexample is not None
                    else None
                ),
            },
            "rederive": {
                "attempted": self.rederive_attempted,
                "exists": self.rederive_exists,
                "states": self.rederived_states,
                "budget_exceeded": self.budget_exceeded,
            },
            "detail": self.detail,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ResilienceCell":
        """Rebuild a cell from :meth:`to_json_dict` output.

        This is what makes resilience checkpoints resumable: completed
        cells round-trip through JSON exactly, so a resumed sweep's
        matrix is equal to the uninterrupted one's.
        """
        model_doc = doc["model"]
        fixed = doc["fixed"]
        rederive = doc["rederive"]
        counterexample = fixed.get("counterexample")
        return cls(
            model=fault_model(
                model_doc["kind"],
                model_doc["severity"],
                **model_doc.get("params", {}),
            ),
            target=doc["target"],
            verdict=doc["verdict"],
            fixed_holds=fixed["holds"],
            failure_phase=fixed.get("failure_phase"),
            counterexample=(
                tuple(counterexample) if counterexample is not None else None
            ),
            rederive_attempted=rederive["attempted"],
            rederive_exists=rederive["exists"],
            rederived_states=rederive["states"],
            budget_exceeded=rederive["budget_exceeded"],
            detail=doc.get("detail", ""),
        )


@dataclass(frozen=True)
class ResilienceMatrix:
    """The full sweep: cells in grid order, plus identifying context."""

    service: str
    converter: str
    target: str
    cells: tuple[ResilienceCell, ...]

    def cell(self, kind: str, severity: int) -> ResilienceCell:
        """The cell for ``kind@severity`` (:class:`KeyError` if absent)."""
        for c in self.cells:
            if c.model.kind == kind and c.model.severity == severity:
                return c
        raise KeyError(f"{kind}@{severity}")

    def counts(self) -> dict[str, int]:
        """Verdict histogram over the cells (only nonzero entries)."""
        out: dict[str, int] = {}
        for c in self.cells:
            out[c.verdict] = out.get(c.verdict, 0) + 1
        return dict(sorted(out.items()))

    # ------------------------------------------------------------------
    def render_text(self) -> str:
        """The matrix as a deterministic text table with failure details."""
        kinds = list(dict.fromkeys(c.model.kind for c in self.cells))
        severities = sorted({c.model.severity for c in self.cells})
        by_key = {(c.model.kind, c.model.severity): c for c in self.cells}

        lines = [
            f"resilience matrix: service={self.service} "
            f"converter={self.converter} target={self.target}"
        ]
        width = max(12, *(len(k) for k in kinds)) + 2
        cell_w = max(len(v) for v in VERDICTS) + 2
        header = "fault".ljust(width) + "".join(
            f"sev {s}".ljust(cell_w) for s in severities
        )
        lines.append(header)
        lines.append("-" * len(header.rstrip()))
        for kind in kinds:
            row = kind.ljust(width)
            for s in severities:
                c = by_key.get((kind, s))
                row += (c.verdict if c else "-").ljust(cell_w)
            lines.append(row.rstrip())
        summary = ", ".join(f"{v}: {n}" for v, n in self.counts().items())
        lines.append("")
        lines.append(f"verdicts: {summary}")

        details = [c for c in self.cells if c.detail]
        if details:
            lines.append("")
            lines.append("details:")
            for c in details:
                lines.append(f"  {c.model.label}: {c.detail}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "service": self.service,
            "converter": self.converter,
            "target": self.target,
            "verdict_counts": self.counts(),
            "cells": [c.to_json_dict() for c in self.cells],
        }


def _is_channel_shaped(spec: Specification) -> bool:
    """A channel carries every message in both directions (``-x`` and ``+x``).

    Mere presence of sends and receives is not enough — a protocol
    endpoint sends data and receives acknowledgements, so its message
    sets differ.  A channel's coincide.
    """
    sends = {message_of(e) for e in spec.alphabet if is_send(e)}
    receives = {message_of(e) for e in spec.alphabet if is_receive(e)}
    return bool(sends) and sends == receives


def _resolve_target(
    components: Sequence[Specification], target: int | str | None
) -> int:
    if isinstance(target, int):
        if not 0 <= target < len(components):
            raise FaultModelError(
                f"target index {target} out of range for "
                f"{len(components)} components"
            )
        return target
    if isinstance(target, str):
        for i, c in enumerate(components):
            if c.name == target:
                return i
        raise FaultModelError(
            f"no component named {target!r} "
            f"(have: {[c.name for c in components]})"
        )
    for i, c in enumerate(components):
        if _is_channel_shaped(c):
            return i
    raise FaultModelError(
        "no channel-shaped component to fault; pass target= explicitly"
    )


def _evaluate_cell(
    service: Specification,
    components: Sequence[Specification],
    target_idx: int,
    converter: Specification,
    model: FaultModel,
    *,
    int_events: Iterable[str] | None,
    rederive: bool,
    budget: Budget | None,
    interrupt: "InterruptController | None" = None,
) -> ResilienceCell:
    target_name = components[target_idx].name
    try:
        faulted = model.apply(components[target_idx])
    except FaultModelError as exc:
        obs.add("faults.cells_skipped", 1)
        return ResilienceCell(
            model=model,
            target=target_name,
            verdict="no-converter",
            fixed_holds=False,
            detail=f"fault not applicable: {exc}",
        )

    parts = list(components)
    parts[target_idx] = faulted
    try:
        composite_b = compose_many(
            parts,
            name=f"B'[{model.label}]",
            preflight=False,
            budget=budget,
            interrupt=interrupt,
        )
        report = product_satisfies(
            composite_b, converter, service, budget=budget, interrupt=interrupt
        )
    except InterruptRequested:
        # interruption ends the whole sweep (the caller checkpoints the
        # completed cells); never degrade it into a per-cell verdict
        raise
    except BudgetExceeded as exc:
        obs.add("faults.budget_exceeded", 1)
        return ResilienceCell(
            model=model,
            target=target_name,
            verdict="no-converter",
            fixed_holds=False,
            budget_exceeded=exc.to_json_dict(),
            detail=f"check interrupted: {exc}",
        )
    except ReproError as exc:
        obs.add("faults.cells_skipped", 1)
        return ResilienceCell(
            model=model,
            target=target_name,
            verdict="no-converter",
            fixed_holds=False,
            detail=f"check failed: {exc}",
        )

    if report.holds:
        obs.add("faults.tolerated", 1)
        return ResilienceCell(
            model=model,
            target=target_name,
            verdict="tolerated",
            fixed_holds=True,
        )

    if not report.safety.holds:
        failure_phase = "safety"
        counterexample: Trace | None = report.safety.counterexample
        failure_note = (
            "fixed converter breaks safety: performs "
            f"{format_trace(counterexample or ())}"
        )
    else:
        failure_phase = "progress"
        # ProgressResult.__bool__ is its verdict, so test for presence
        # explicitly — a failed check is falsy but carries the violation.
        violation = (
            report.progress.violation if report.progress is not None else None
        )
        counterexample = violation.trace if violation is not None else None
        failure_note = "fixed converter breaks progress"
        if violation is not None:
            failure_note += (
                f" after {format_trace(violation.trace)} "
                f"(offers only {{{','.join(sorted(violation.offered))}}})"
            )

    rederive_exists: bool | None = None
    rederived_states: int | None = None
    budget_info: dict | None = None
    if rederive:
        try:
            result = solve_quotient(
                service,
                composite_b,
                int_events=int_events,
                budget=budget,
                interrupt=interrupt,
            )
        except InterruptRequested:
            raise
        except BudgetExceeded as exc:
            obs.add("faults.budget_exceeded", 1)
            budget_info = exc.to_json_dict()
        except ReproError:
            rederive_exists = False
        else:
            rederive_exists = result.exists
            if result.exists:
                assert result.converter is not None
                rederived_states = len(result.converter.states)

    if rederive_exists:
        obs.add("faults.rederivable", 1)
        verdict = "re-derivable"
        detail = (
            f"{failure_note}; re-derived converter exists "
            f"({rederived_states} states)"
        )
    else:
        obs.add(f"faults.{failure_phase}_broken", 1)
        verdict = f"{failure_phase}-broken"
        if budget_info is not None:
            detail = f"{failure_note}; re-derivation exceeded budget"
        elif rederive:
            detail = f"{failure_note}; no converter exists for this fault"
        else:
            detail = f"{failure_note}; re-derivation not attempted"

    return ResilienceCell(
        model=model,
        target=target_name,
        verdict=verdict,
        fixed_holds=False,
        failure_phase=failure_phase,
        counterexample=counterexample,
        rederive_attempted=rederive,
        rederive_exists=rederive_exists,
        rederived_states=rederived_states,
        budget_exceeded=budget_info,
        detail=detail,
    )


def _sweep_checkpoint(
    fingerprint: str, cells: Sequence[ResilienceCell], total: int
) -> Checkpoint:
    return Checkpoint(
        kind=KIND_RESILIENCE,
        fingerprint=fingerprint,
        phase="sweep",
        payload={
            "cells": [c.to_json_dict() for c in cells],
            "total": total,
        },
    )


def _load_completed_cells(
    checkpoint_path: str, fingerprint: str, total: int
) -> list[ResilienceCell]:
    """The completed cells from a sweep checkpoint, validated for resume."""
    ckpt = load_checkpoint(checkpoint_path)
    lint_checkpoint(
        kind=ckpt.kind,
        phase=ckpt.phase,
        fingerprint=ckpt.fingerprint,
        expected_kind=KIND_RESILIENCE,
        expected_fingerprint=fingerprint,
    ).raise_if_errors()
    docs = ckpt.payload.get("cells", [])[:total]
    cells = [ResilienceCell.from_json_dict(doc) for doc in docs]
    obs.add("faults.resume.cells_skipped", len(cells))
    obs.add("faults.resume.resumed", 1)
    return cells


def sweep_fingerprint(
    service: Specification,
    components: Sequence[Specification],
    converter: Specification,
    grid: Sequence[FaultModel] | None = None,
    target: int | str | None = None,
    *,
    timeout: str = "timeout",
) -> str:
    """The fingerprint :func:`evaluate_resilience` would checkpoint under.

    Resolves *target* and defaults *grid* exactly like the sweep itself,
    so callers (the CLI's run ledger) can key records without starting
    the evaluation.
    """
    target_idx = _resolve_target(components, target)
    models = tuple(grid) if grid is not None else default_grid(timeout=timeout)
    return resilience_fingerprint(
        service, components, converter, models, target_idx
    )


def evaluate_resilience(
    service: Specification,
    components: Sequence[Specification],
    converter: Specification,
    *,
    int_events: Iterable[str] | None = None,
    target: int | str | None = None,
    grid: Sequence[FaultModel] | None = None,
    rederive: bool = True,
    budget: Budget | None = None,
    timeout: str = "timeout",
    interrupt: "InterruptController | None" = None,
    checkpoint: str | None = None,
    resume: bool = False,
) -> ResilienceMatrix:
    """Sweep *grid* over one component and judge the converter per cell.

    Parameters
    ----------
    service, components, converter:
        The conversion system under evaluation: ``A``, the unfaulted parts
        of ``B``, and the derived converter ``C``.
    int_events:
        Declared Int events for re-derivation (as for
        :func:`~repro.quotient.solve_quotient`).
    target:
        Which component to fault: an index, a component name, or ``None``
        to pick the first channel-shaped component (one with both ``-x``
        and ``+x`` events).
    grid:
        The fault models to sweep (default: :func:`default_grid` at
        severities 1 and 2, with *timeout*).
    rederive:
        Attempt :func:`~repro.quotient.solve_quotient` on cells where the
        fixed converter fails (default on); when off, failing cells report
        the failure phase without the re-derivability refinement.
    budget:
        Optional :class:`~repro.quotient.budget.Budget` applied to every
        composition and solve in the sweep; a tripped budget is recorded
        in the cell instead of propagating.
    interrupt:
        Optional :class:`~repro.persist.InterruptController`: a pending
        SIGINT/deadline ends the sweep with
        :class:`~repro.errors.InterruptRequested` carrying a sweep-level
        checkpoint of the completed cells.
    checkpoint:
        Optional file path.  After every computed cell the sweep durably
        snapshots its completed cells there (atomic write, previous good
        snapshot kept as ``.prev``), so a crash — not just a cooperative
        interrupt — loses at most the in-flight cell.
    resume:
        Load *checkpoint* first and skip its completed cells (counted as
        ``faults.resume.cells_skipped``; ``faults.cells`` counts only
        computed cells).  The resumed matrix equals the uninterrupted
        one's cell for cell.  A checkpoint for a different system fails
        lint rule ``QUOT104``.
    """
    target_idx = _resolve_target(components, target)
    models = tuple(grid) if grid is not None else default_grid(timeout=timeout)

    fingerprint: str | None = None
    if checkpoint is not None or resume:
        fingerprint = resilience_fingerprint(
            service, components, converter, models, target_idx
        )

    cells: list[ResilienceCell] = []
    if resume:
        if checkpoint is None:
            raise ValueError("resume=True requires a checkpoint path")
        assert fingerprint is not None
        cells = _load_completed_cells(checkpoint, fingerprint, len(models))

    with obs.span(
        "resilience",
        service=service.name,
        converter=converter.name,
        target=components[target_idx].name,
        cells=len(models),
    ):
        for model in models[len(cells):]:
            reporter = current_reporter()
            if reporter is not None:
                # label the following heartbeats with the in-flight cell
                reporter.note(
                    cell=model.label,
                    cell_index=len(cells) + 1,
                    cells=len(models),
                )
            with obs.span("resilience.cell", model=model.label):
                obs.add("faults.cells", 1)
                try:
                    # the pause ends before either checkpoint write below
                    with gc_paused():
                        cell = _evaluate_cell(
                            service, components, target_idx, converter,
                            model, int_events=int_events, rederive=rederive,
                            budget=budget, interrupt=interrupt,
                        )
                except InterruptRequested as exc:
                    # replace any quotient-kind checkpoint attached inside
                    # the cell with the sweep-level view: completed cells
                    # are the unit of resume here
                    assert fingerprint is not None or checkpoint is None
                    exc.checkpoint = _sweep_checkpoint(
                        fingerprint
                        or resilience_fingerprint(
                            service, components, converter, models, target_idx
                        ),
                        cells,
                        len(models),
                    )
                    if checkpoint is not None:
                        save_checkpoint(checkpoint, exc.checkpoint)
                    raise
                cells.append(cell)
                if checkpoint is not None:
                    assert fingerprint is not None
                    save_checkpoint(
                        checkpoint,
                        _sweep_checkpoint(fingerprint, cells, len(models)),
                    )

    return ResilienceMatrix(
        service=service.name,
        converter=converter.name,
        target=components[target_idx].name,
        cells=tuple(cells),
    )
