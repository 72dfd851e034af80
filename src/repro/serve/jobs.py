"""Job documents: what a client submits and what the server executes.

A :class:`JobRequest` is a JSON-safe description of one unit of service
work — a quotient solve, a resilience sweep, or a semantic analysis —
with the specs embedded in :mod:`repro.io.json_codec` form.  Its
:meth:`~JobRequest.fingerprint` is the server's content address: two
requests asking the same mathematical question hash identically no
matter how their specs are named or which client sent them, because it
reuses the name-insensitive SHA-256 fingerprints of
:mod:`repro.persist.checkpoint`.  For ``solve`` jobs the fingerprint *is*
:func:`~repro.persist.checkpoint.problem_fingerprint`, so cached results,
run-ledger records, and resume checkpoints all share one key space.

Priorities, deadlines, and budgets deliberately stay **out** of the
fingerprint: they shape *how* a job runs, not *what* it computes.  Only
complete results are ever cached, so a budget-tripped run can never
poison the cache for an unbudgeted one.

:func:`execute_job` is the pure execution core — no queueing, retry, or
persistence; that is :mod:`repro.serve.workers`' business.  Its returned
body is *canonical*: a cached, retried, or resumed execution is
byte-identical to a direct :func:`~repro.quotient.solve_quotient` call
on the same inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import ServeError
from ..io.json_codec import spec_from_dict
from ..persist.checkpoint import problem_fingerprint, spec_fingerprint
from ..quotient.budget import Budget
from ..quotient.types import QuotientProblem

__all__ = [
    "JOB_KINDS",
    "JOB_SCHEMA",
    "ExecutionOutcome",
    "JobRequest",
    "execute_job",
]

#: Version of the job request/record documents.
JOB_SCHEMA = 1

#: Work the server knows how to execute.
JOB_KINDS = ("solve", "resilience", "analyze")

_REQUEST_KEYS = frozenset(
    {"schema", "kind", "payload", "priority", "deadline_s", "budget", "label"}
)
_BUDGET_KEYS = frozenset({"max_pairs", "max_states", "wall_time_s"})


def _sha256_of(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _specs_from(payload: Mapping[str, Any], key: str, *, many: bool = False):
    try:
        if many:
            docs = payload[key]
            if not isinstance(docs, list) or not docs:
                raise ServeError(
                    f"payload field {key!r} must be a non-empty list of specs"
                )
            return [spec_from_dict(d) for d in docs]
        return spec_from_dict(payload[key])
    except KeyError as exc:
        raise ServeError(f"payload is missing the {key!r} spec") from exc


@dataclass(frozen=True)
class JobRequest:
    """One submitted unit of work (validated, JSON-round-trippable).

    ``priority`` orders admission under load: higher runs first, and the
    *lowest* priority is shed first when the queue saturates.
    ``deadline_s`` bounds one execution attempt's wall time (cooperative,
    via :class:`~repro.persist.InterruptController`); ``budget`` bounds
    its work counters.  Neither affects the fingerprint.
    """

    kind: str
    payload: Mapping[str, Any]
    priority: int = 0
    deadline_s: float | None = None
    budget: Mapping[str, Any] | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ServeError(
                f"unknown job kind {self.kind!r} (accepted: "
                f"{', '.join(JOB_KINDS)})"
            )
        if not isinstance(self.payload, Mapping):
            raise ServeError("payload must be an object")
        if not isinstance(self.priority, int) or isinstance(self.priority, bool):
            raise ServeError(f"priority must be an int, got {self.priority!r}")
        if self.deadline_s is not None and (
            not isinstance(self.deadline_s, (int, float))
            or self.deadline_s <= 0
        ):
            raise ServeError(
                f"deadline_s must be a positive number, got {self.deadline_s!r}"
            )
        if self.budget is not None:
            if not isinstance(self.budget, Mapping):
                raise ServeError("budget must be an object")
            unknown = sorted(set(self.budget) - _BUDGET_KEYS)
            if unknown:
                raise ServeError(
                    f"unknown budget field(s) {unknown} "
                    f"(accepted: {', '.join(sorted(_BUDGET_KEYS))})"
                )

    # -- codec ---------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "schema": JOB_SCHEMA,
            "kind": self.kind,
            "payload": dict(self.payload),
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "budget": dict(self.budget) if self.budget is not None else None,
            "label": self.label,
        }

    @classmethod
    def from_json_dict(cls, doc: Any) -> "JobRequest":
        if not isinstance(doc, dict):
            raise ServeError(f"job request is not an object: {doc!r}")
        unknown = sorted(set(doc) - _REQUEST_KEYS)
        if unknown:
            raise ServeError(
                f"job request carries unknown field(s) {unknown} "
                f"(accepted: {', '.join(sorted(_REQUEST_KEYS))})"
            )
        if doc.get("schema", JOB_SCHEMA) != JOB_SCHEMA:
            raise ServeError(
                f"job request has unsupported schema {doc.get('schema')!r} "
                f"(this server reads {JOB_SCHEMA})"
            )
        if "kind" not in doc or "payload" not in doc:
            raise ServeError("job request needs 'kind' and 'payload'")
        return cls(
            kind=doc["kind"],
            payload=doc["payload"],
            priority=doc.get("priority", 0),
            deadline_s=doc.get("deadline_s"),
            budget=doc.get("budget"),
            label=doc.get("label", ""),
        )

    # -- identity ------------------------------------------------------
    def fingerprint(self) -> str:
        """The content address of *what this job computes*.

        Decodes the payload specs (so a malformed payload fails here, at
        admission, not inside a worker) and hashes their name-insensitive
        fingerprints.  ``solve`` jobs use the checkpoint layer's
        :func:`~repro.persist.checkpoint.problem_fingerprint` verbatim —
        the same key the resume machinery validates against — so a solve
        job, its cached result, and its crash checkpoints coincide.
        """
        if self.kind == "solve":
            problem = QuotientProblem.build(
                _specs_from(self.payload, "service"),
                _specs_from(self.payload, "component"),
                self.payload.get("int_events"),
            )
            return problem_fingerprint(problem)
        if self.kind == "resilience":
            return _sha256_of(
                {
                    "kind": "serve-resilience",
                    "service": spec_fingerprint(
                        _specs_from(self.payload, "service")
                    ),
                    "components": [
                        spec_fingerprint(s)
                        for s in _specs_from(
                            self.payload, "components", many=True
                        )
                    ],
                    "converter": spec_fingerprint(
                        _specs_from(self.payload, "converter")
                    ),
                    "target": self.payload.get("target"),
                    "severities": list(self.payload.get("severities", (1, 2))),
                    "timeout": self.payload.get("timeout", "timeout"),
                }
            )
        assert self.kind == "analyze"
        return _sha256_of(
            {
                "kind": "serve-analysis",
                "specs": sorted(
                    spec_fingerprint(s)
                    for s in _specs_from(self.payload, "specs", many=True)
                ),
            }
        )

    def budget_object(self) -> Budget | None:
        if self.budget is None:
            return None
        try:
            return Budget(**dict(self.budget))
        except (TypeError, ValueError) as exc:
            raise ServeError(f"invalid budget: {exc}") from exc


@dataclass(frozen=True)
class ExecutionOutcome:
    """What one successful execution attempt produced.

    ``body`` is the canonical result (cacheable, byte-stable);
    ``counters`` the nested deterministic work counters for the run
    ledger.
    """

    body: dict
    verdict: str | None
    counters: dict = field(default_factory=dict)


def execute_job(
    request: JobRequest,
    *,
    interrupt: Any = None,
    resume_from: Any = None,
) -> ExecutionOutcome:
    """Run *request* to completion on the calling thread.

    Raises whatever the underlying engine raises —
    :class:`~repro.errors.BudgetExceeded` and
    :class:`~repro.errors.InterruptRequested` (both carrying checkpoints
    for ``solve``) propagate to the supervisor, which owns retry and
    resume policy.
    """
    budget = request.budget_object()
    if request.kind == "solve":
        from ..quotient.solve import solve_quotient

        result = solve_quotient(
            _specs_from(request.payload, "service"),
            _specs_from(request.payload, "component"),
            int_events=request.payload.get("int_events"),
            budget=budget,
            interrupt=interrupt,
            resume_from=resume_from,
        )
        return ExecutionOutcome(
            body=result.to_json_dict(),
            verdict="converter" if result.exists else "no-converter",
            counters=result.phase_counters(),
        )
    if request.kind == "resilience":
        from ..faults import default_grid, evaluate_resilience

        severities = tuple(request.payload.get("severities", (1, 2)))
        matrix = evaluate_resilience(
            _specs_from(request.payload, "service"),
            _specs_from(request.payload, "components", many=True),
            _specs_from(request.payload, "converter"),
            target=request.payload.get("target"),
            grid=default_grid(
                severities,
                timeout=request.payload.get("timeout", "timeout"),
            ),
            budget=budget,
            interrupt=interrupt,
        )
        counts = matrix.counts()
        bad = sum(n for v, n in counts.items() if v != "resilient")
        return ExecutionOutcome(
            body=matrix.to_json_dict(),
            verdict="resilient" if bad == 0 else "degraded",
            counters={"cells": len(matrix.cells), "verdicts": dict(counts)},
        )
    assert request.kind == "analyze"
    from ..lint import analyze_composition, analyze_spec

    specs = _specs_from(request.payload, "specs", many=True)
    if len(specs) == 1:
        report = analyze_spec(specs[0], budget=budget, interrupt=interrupt)
    else:
        report = analyze_composition(specs, budget=budget, interrupt=interrupt)
    body = report.to_json_dict()
    return ExecutionOutcome(
        body=body,
        verdict="clean" if not report.errors else "findings",
        counters={
            "diagnostics": len(report.diagnostics),
            "errors": len(report.errors),
            "warnings": len(report.warnings),
        },
    )
