"""The run ledger: a persistent, append-only record of every run.

Where :mod:`repro.obs.core` observes a single process and dies with it,
the ledger is the *flight recorder across processes*: one schema-versioned
record per solve / resilience / analyze / bench run, keyed by the same
SHA-256 fingerprints the checkpoint layer computes
(:func:`~repro.persist.checkpoint.problem_fingerprint`,
:func:`~repro.persist.checkpoint.spec_fingerprint`), so runs of the
same problem are comparable across sessions, and the derivation server's
jobs (kind ``served``) land beside them.

The file is JSON lines (ledger schema 2) kept by
:class:`~repro.persist.lines.JsonLines` (this module builds on persist,
never the other way round).  An append reads back only the last line,
for the last run id.  A read skips, counting ``ledger.corrupt_skipped``,
any record whose hash does not match.  ``gc`` rewrites the file
atomically and keeps the newest record, so no id is reused.  A file
without the schema-2 header, a schema-1 ledger included, is refused.

Record determinism policy (mirrors the bench output hygiene rule): the
``work`` counters are deterministic exploration counts and are what
``history diff`` compares; ``wall_time_s`` / ``created_at`` are
machine-dependent, live only in the JSON, and are **never diffed**.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

from ..errors import PersistError
from ..persist.lines import JsonLines
from .core import add as _count

__all__ = [
    "LEDGER_SCHEMA",
    "RECORD_SCHEMA",
    "Ledger",
    "RunRecord",
    "WorkDiff",
    "diff_records",
    "flatten_work",
]

#: Version of the ledger file: 1 was one envelope rewritten per append,
#: 2 is JSON lines (see the module docstring).
LEDGER_SCHEMA = 2

#: Version of one run record.
RECORD_SCHEMA = 1

#: Run outcomes a record may carry.  ``failed`` is written only by the
#: serve layer (a job that exhausted its retries or hit a hard error);
#: CLI runs surface hard errors as exit codes instead of records.
OUTCOMES = ("complete", "partial-budget", "partial-interrupt", "failed")

_RECORD_KEYS = frozenset(
    {
        "schema",
        "run_id",
        "kind",
        "fingerprint",
        "label",
        "outcome",
        "verdict",
        "work",
        "phases",
        "wall_time_s",
        "created_at",
        "artifacts",
    }
)


@dataclass(frozen=True)
class RunRecord:
    """One ledger entry: what a run was and how much work it did.

    ``work`` is a flat name → number map of *deterministic* counters
    (pairs explored, states materialized, cells computed ...) — the part
    ``history diff`` compares.  ``phases`` is the run's nested phase
    counters, informational.  ``wall_time_s`` / ``created_at`` are
    machine-dependent and excluded from all diffs.
    """

    kind: str
    fingerprint: str
    label: str = ""
    outcome: str = "complete"
    verdict: str | None = None
    work: Mapping[str, float] = field(default_factory=dict)
    phases: Mapping[str, Any] = field(default_factory=dict)
    wall_time_s: float | None = None
    created_at: float | None = None
    artifacts: Mapping[str, str] = field(default_factory=dict)
    run_id: int = 0
    schema: int = RECORD_SCHEMA

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise ValueError(
                f"outcome must be one of {OUTCOMES}, got {self.outcome!r}"
            )

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "label": self.label,
            "outcome": self.outcome,
            "verdict": self.verdict,
            "work": {k: self.work[k] for k in sorted(self.work)},
            "phases": dict(self.phases),
            "wall_time_s": self.wall_time_s,
            "created_at": self.created_at,
            "artifacts": {k: self.artifacts[k] for k in sorted(self.artifacts)},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RunRecord":
        if not isinstance(doc, dict):
            raise PersistError(f"ledger record is not an object: {doc!r}")
        unknown = sorted(set(doc) - _RECORD_KEYS)
        if unknown:
            raise PersistError(
                f"ledger record carries unknown field(s) {unknown} — "
                "written by a newer schema?"
            )
        if doc.get("schema") != RECORD_SCHEMA:
            raise PersistError(
                f"ledger record has unsupported schema {doc.get('schema')!r} "
                f"(this version reads {RECORD_SCHEMA})"
            )
        for key in ("run_id", "kind", "fingerprint", "outcome"):
            if key not in doc:
                raise PersistError(f"ledger record is missing {key!r}")
        try:
            return cls(
                kind=doc["kind"],
                fingerprint=doc["fingerprint"],
                label=doc.get("label", ""),
                outcome=doc["outcome"],
                verdict=doc.get("verdict"),
                work=dict(doc.get("work") or {}),
                phases=dict(doc.get("phases") or {}),
                wall_time_s=doc.get("wall_time_s"),
                created_at=doc.get("created_at"),
                artifacts=dict(doc.get("artifacts") or {}),
                run_id=doc["run_id"],
            )
        except (TypeError, ValueError) as exc:
            raise PersistError(f"malformed ledger record: {exc}") from exc


def flatten_work(counters: Mapping[str, Any], prefix: str = "") -> dict[str, float]:
    """Flatten nested phase counters into the diffable ``work`` map.

    Keeps numeric scalars under dotted keys, counts lists (a rounds list
    becomes ``progress.rounds.count``), and drops everything
    machine-dependent or non-numeric: booleans, strings, ``None``, any
    key ending in ``_s`` / ``_ms`` (wall times are never diffed), and the
    cyclic collector's ``gc.*`` counters, which vary with the Python
    version.
    """
    flat: dict[str, float] = {}
    for key, value in counters.items():
        name = f"{prefix}{key}"
        if key.endswith(("_s", "_ms")) or name.startswith("gc."):
            continue
        if isinstance(value, bool) or value is None or isinstance(value, str):
            continue
        if isinstance(value, Mapping):
            flat.update(flatten_work(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            flat[f"{name}.count"] = len(value)
        elif isinstance(value, (int, float)):
            flat[name] = value
    return flat


# ----------------------------------------------------------------------
# the ledger file
# ----------------------------------------------------------------------
class Ledger:
    """An append-only run ledger at *path* (created on first append)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lines = JsonLines(path, kind="ledger", schema=LEDGER_SCHEMA)

    # -- reading -------------------------------------------------------
    def read(self) -> tuple[RunRecord, ...]:
        """All records, oldest first ([] when the file does not exist)."""
        documents, corrupt = self._lines.read()
        if corrupt:
            _count("ledger.corrupt_skipped", corrupt)
        return tuple(RunRecord.from_json_dict(doc) for doc in documents)

    def get(self, run_id: int) -> RunRecord:
        for record in self.read():
            if record.run_id == run_id:
                return record
        raise PersistError(
            f"ledger {self.path!r} has no run {run_id!r} "
            f"(use 'history list' to see runs)"
        )

    def runs_of(
        self, fingerprint: str, *, kind: str | None = None
    ) -> tuple[RunRecord, ...]:
        """Records with this fingerprint (oldest first)."""
        return tuple(
            r
            for r in self.read()
            if r.fingerprint == fingerprint
            and (kind is None or r.kind == kind)
        )

    # -- writing -------------------------------------------------------
    def append(self, record: RunRecord) -> RunRecord:
        """Durably append *record*, assigning the next run id.

        The id is one past the last record's; when the last line is
        corrupt, one past the newest readable record.  The line is
        fsynced before this returns.
        """

        def stamp(last: dict | None) -> dict:
            if last is not None:
                last_id = RunRecord.from_json_dict(last).run_id
            else:
                last_id = max((r.run_id for r in self.read()), default=0)
            return replace(record, run_id=last_id + 1).to_json_dict()

        doc = self._lines.append(stamp)
        _count("ledger.appends", 1)
        return replace(record, run_id=doc["run_id"])

    def gc(self, *, keep: int = 5) -> int:
        """Drop all but the newest *keep* records per (fingerprint, kind).

        Returns the number of records removed; the rewrite is atomic.
        """
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep!r}")
        records = self.read()
        survivors_rev: list[RunRecord] = []
        seen: dict[tuple[str, str], int] = {}
        for record in reversed(records):
            group = (record.fingerprint, record.kind)
            if seen.get(group, 0) < keep:
                seen[group] = seen.get(group, 0) + 1
                survivors_rev.append(record)
        removed = len(records) - len(survivors_rev)
        if removed:
            self._lines.rewrite(
                r.to_json_dict() for r in reversed(survivors_rev)
            )
            _count("ledger.gc_removed", removed)
        return removed


def append_run(
    path: str,
    *,
    kind: str,
    fingerprint: str,
    label: str = "",
    outcome: str = "complete",
    verdict: str | None = None,
    work: Mapping[str, float] | None = None,
    phases: Mapping[str, Any] | None = None,
    wall_time_s: float | None = None,
    artifacts: Mapping[str, str] | None = None,
) -> RunRecord:
    """One-call convenience: append a stamped record to the ledger at *path*."""
    return Ledger(path).append(
        RunRecord(
            kind=kind,
            fingerprint=fingerprint,
            label=label,
            outcome=outcome,
            verdict=verdict,
            work=dict(work or {}),
            phases=dict(phases or {}),
            wall_time_s=wall_time_s,
            created_at=time.time(),
            artifacts=dict(artifacts or {}),
        )
    )


# ----------------------------------------------------------------------
# history diffing: deterministic work counters only
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkDiff:
    """The comparison of two runs' deterministic work counters.

    ``rows`` is ``(counter, base, new, regressed)`` per counter in either
    record (``None`` marks a counter one side lacks).  A counter regresses
    when its new value exceeds the base by more than *threshold* (a
    relative fraction; 0 means any increase).  Wall times never appear
    here by construction (:func:`flatten_work` drops them at record time).
    """

    base: RunRecord
    new: RunRecord
    threshold: float
    rows: tuple[tuple[str, float | None, float | None, bool], ...]

    @property
    def regressions(self) -> tuple[tuple[str, float | None, float | None], ...]:
        return tuple((n, b, v) for n, b, v, bad in self.rows if bad)

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)

    def to_json_dict(self) -> dict:
        return {
            "base_run": self.base.run_id,
            "new_run": self.new.run_id,
            "fingerprint": self.base.fingerprint,
            "threshold": self.threshold,
            "regressed": self.regressed,
            "counters": [
                {"name": n, "base": b, "new": v, "regressed": bad}
                for n, b, v, bad in self.rows
            ],
        }

    def render_text(self) -> str:
        lines = [
            f"history diff: run {self.base.run_id} -> run {self.new.run_id} "
            f"({self.base.kind}, fingerprint {self.base.fingerprint[:12]}..., "
            f"threshold {self.threshold:g})"
        ]
        width = max((len(n) for n, *_ in self.rows), default=0)
        for name, base, new, bad in self.rows:
            mark = " REGRESSED" if bad else ""
            base_s = "-" if base is None else f"{base:g}"
            new_s = "-" if new is None else f"{new:g}"
            lines.append(f"  {name:<{width}s}  {base_s} -> {new_s}{mark}")
        lines.append(
            f"verdict: {len(self.regressions)} regressed counter(s)"
            if self.regressed
            else "verdict: no work regression"
        )
        return "\n".join(lines)


def diff_records(
    base: RunRecord, new: RunRecord, *, threshold: float = 0.0
) -> WorkDiff:
    """Compare deterministic work counters of two runs of one problem.

    Raises :class:`~repro.errors.PersistError` when the runs are not
    comparable (different fingerprints or kinds) — diffing unrelated runs
    would only produce noise.
    """
    if base.fingerprint != new.fingerprint:
        raise PersistError(
            f"runs {base.run_id} and {new.run_id} have different "
            f"fingerprints ({base.fingerprint[:12]}... vs "
            f"{new.fingerprint[:12]}...); history diff compares runs of "
            "the same problem"
        )
    if base.kind != new.kind:
        raise PersistError(
            f"runs {base.run_id} ({base.kind}) and {new.run_id} "
            f"({new.kind}) are different kinds of run"
        )
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold!r}")
    rows: list[tuple[str, float | None, float | None, bool]] = []
    for name in sorted(set(base.work) | set(new.work)):
        b = base.work.get(name)
        v = new.work.get(name)
        regressed = (
            b is not None
            and v is not None
            and v > b
            and (b == 0 or (v - b) / b > threshold)
        )
        rows.append((name, b, v, regressed))
    return WorkDiff(base=base, new=new, threshold=threshold, rows=tuple(rows))


def render_history_list(records: Iterable[RunRecord]) -> str:
    """The ``history list`` table (oldest first)."""
    records = list(records)
    if not records:
        return "(ledger is empty)"
    rows = [
        (
            str(r.run_id),
            r.kind,
            r.fingerprint[:12],
            r.outcome,
            r.verdict if r.verdict is not None else "-",
            r.label,
        )
        for r in records
    ]
    headers = ("run", "kind", "fingerprint", "outcome", "verdict", "label")
    widths = [
        max(len(headers[i]), max(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    ]
    for row in rows:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)
