"""The run ledger: a persistent, append-only record of every run.

Where :mod:`repro.obs.core` observes a single process and dies with it,
the ledger is the *flight recorder across processes*: one schema-versioned
record per solve / resilience / analyze / bench run, keyed by the same
SHA-256 fingerprints the checkpoint layer computes
(:func:`~repro.persist.checkpoint.problem_fingerprint`,
:func:`~repro.persist.checkpoint.spec_fingerprint`), so runs of the
same problem are comparable across sessions, and the derivation server's
jobs (kind ``served``) land beside them.

The file is JSON lines (ledger schema 2): a header line, then one line
per record, ``{"record": {...}, "sha256": <hex of the canonical
record>}``.  An append costs O(1) in the ledger's size: it reads only
the file's tail to find the last run id, writes one line and fsyncs it
before returning, under ``DEFAULT_STORE_RETRY`` and the ``store.write``
chaos seam of :mod:`repro.persist.store` (this module builds on persist,
never the other way round).  A failed attempt truncates the file back
to its length before the attempt, so a crash can tear only the last
line — a record that was never acknowledged.  Readers drop a torn last
line, and skip (counting ``ledger.corrupt_skipped``) any inner record
whose hash does not match.  ``gc`` rewrites the whole file atomically
(tmp file + fsync + ``os.replace``); it always keeps the newest record,
so the next id, one past the last record's, is never reused.

A ledger written in the schema-1 format — one integrity envelope with
``.prev`` rotation, rewritten per append — reads back as the same
records, and its first append or ``gc`` converts it atomically.

Record determinism policy (mirrors the bench output hygiene rule): the
``work`` counters are deterministic exploration counts and are what
``history diff`` compares; ``wall_time_s`` / ``created_at`` are
machine-dependent, live only in the JSON, and are **never diffed**.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import IO, Any, Iterable, Mapping

from ..chaos import DEFAULT_STORE_RETRY
from ..errors import PersistError
from ..persist.store import (
    PREV_SUFFIX,
    _canonical_body,
    injected_write_fault,
    read_bytes,
    read_envelope,
)
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

#: The first line of every schema-2 ledger.
_HEADER = (
    json.dumps({"kind": "ledger", "schema": LEDGER_SCHEMA}, sort_keys=True)
    + "\n"
).encode("utf-8")

#: Bytes an append reads from the ledger's end at first; the window
#: doubles until it holds the last complete line.
_TAIL_WINDOW = 4096

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
def _record_line(doc: dict) -> bytes:
    digest = hashlib.sha256(_canonical_body(doc)).hexdigest()
    line = json.dumps({"record": doc, "sha256": digest}, sort_keys=True)
    return (line + "\n").encode("utf-8")


def _line_record(line: bytes) -> dict | None:
    """The record document of one complete line; ``None`` if corrupt."""
    try:
        doc = json.loads(line)
    except ValueError:
        return None
    if not (
        isinstance(doc, dict)
        and set(doc) == {"record", "sha256"}
        and isinstance(doc["record"], dict)
    ):
        return None
    digest = hashlib.sha256(_canonical_body(doc["record"])).hexdigest()
    return doc["record"] if digest == doc["sha256"] else None


def _is_lines(head: bytes) -> bool:
    """Whether a file starting with *head* is a schema-2 ledger.

    A proper prefix of the header (an empty file included) is a torn
    first append: a schema-2 ledger with no records.
    """
    return _HEADER.startswith(head[: len(_HEADER)])


def _tail(fh: IO[bytes]) -> tuple[int, bytes]:
    """``(end, last)`` of a schema-2 ledger open for reading.

    *end* is the length of the file's complete lines (0 when not even
    the header is whole); *last* is the last complete line, newline
    included.  Reads windows from the end, doubling until the window
    holds that whole line.
    """
    size = fh.seek(0, os.SEEK_END)
    window = _TAIL_WINDOW
    while True:
        start = max(0, size - window)
        fh.seek(start)
        chunk = fh.read(size - start)
        last_nl = chunk.rfind(b"\n")
        if last_nl < 0 and start == 0:
            return 0, b""
        if last_nl >= 0:
            prev_nl = chunk.rfind(b"\n", 0, last_nl)
            if prev_nl >= 0 or start == 0:
                return start + last_nl + 1, chunk[prev_nl + 1 : last_nl + 1]
        window *= 2


def _replace_raw(path: str, data: bytes) -> None:
    """One atomic rewrite attempt: tmp file + fsync + ``os.replace``."""
    if injected_write_fault(path) == "partial":
        # a torn tmp file never replaces the ledger
        raise OSError(errno.EIO, f"chaos: injected torn write of {path!r}")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except OSError:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class Ledger:
    """An append-only run ledger at *path* (created on first append)."""

    def __init__(self, path: str) -> None:
        self.path = path

    # -- reading -------------------------------------------------------
    def _documents(self) -> list[dict]:
        """The readable record documents, oldest first."""
        try:
            data = read_bytes(self.path, kind="ledger")
        except FileNotFoundError:
            # a schema-1 crash between its two renames leaves only .prev
            if not os.path.exists(self.path + PREV_SUFFIX):
                return []
            return self._legacy_documents()
        if not _is_lines(data):
            return self._legacy_documents()
        documents = []
        corrupt = 0
        # lines[0] is the header; the last piece is b"" or a torn line
        for line in data.split(b"\n")[1:-1]:
            doc = _line_record(line)
            if doc is None:
                corrupt += 1
            else:
                documents.append(doc)
        if corrupt:
            _count("ledger.corrupt_skipped", corrupt)
        return documents

    def _legacy_documents(self) -> list[dict]:
        body = read_envelope(self.path, kind="ledger")
        if body.get("kind") != "ledger":
            raise PersistError(
                f"{self.path!r} is not a ledger "
                f"(kind {body.get('kind')!r})"
            )
        if body.get("schema") != 1:
            raise PersistError(
                f"ledger {self.path!r} has unsupported schema "
                f"{body.get('schema')!r} (this version reads 1 and "
                f"{LEDGER_SCHEMA})"
            )
        if not isinstance(body.get("entries"), list):
            raise PersistError(f"ledger {self.path!r} entries is not a list")
        return body["entries"]

    def read(self) -> tuple[RunRecord, ...]:
        """All records, oldest first ([] when the file does not exist)."""
        return tuple(
            RunRecord.from_json_dict(doc) for doc in self._documents()
        )

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

        The line is fsynced before this returns.  A failed attempt
        leaves the ledger as it found it, so every record readable
        before stays readable, once.
        """
        if self._is_legacy():
            self._rewrite(self.read())
        try:
            with open(self.path, "a+b") as fh:
                stamped = DEFAULT_STORE_RETRY.call(
                    lambda: self._append_raw(fh, record),
                    site="store.write:ledger",
                )
        except OSError as exc:
            raise PersistError(
                f"cannot write ledger {self.path!r}: {exc}"
            ) from exc
        _count("ledger.appends", 1)
        return stamped

    def _is_legacy(self) -> bool:
        try:
            with open(self.path, "rb") as fh:
                return not _is_lines(fh.read(len(_HEADER)))
        except FileNotFoundError:
            return os.path.exists(self.path + PREV_SUFFIX)

    def _append_raw(self, fh: IO[bytes], record: RunRecord) -> RunRecord:
        """One append attempt; raises :class:`OSError` on failure."""
        fault = injected_write_fault(self.path)
        end, last = _tail(fh)
        last_id = 0
        if end and last != _HEADER:
            doc = _line_record(last)
            if doc is not None:
                last_id = RunRecord.from_json_dict(doc).run_id
            else:
                # a corrupt last line: one past the newest readable record
                last_id = max((r.run_id for r in self.read()), default=0)
        stamped = replace(record, run_id=last_id + 1)
        data = _record_line(stamped.to_json_dict())
        if end == 0:
            data = _HEADER + data
        try:
            # a torn last line was never acknowledged: cut it off
            fh.truncate(end)
            if fault == "partial":
                # the write tears and the attempt fails; the truncate
                # below removes what it left
                fh.write(data[: len(data) // 2])
                fh.flush()
                raise OSError(
                    errno.EIO, f"chaos: injected torn write of {self.path!r}"
                )
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        except OSError:
            try:
                fh.truncate(end)
            except OSError:
                pass
            raise
        return stamped

    def _rewrite(self, records: Iterable[RunRecord]) -> None:
        """Atomically replace the file with *records* in schema 2."""
        data = _HEADER + b"".join(
            _record_line(r.to_json_dict()) for r in records
        )
        try:
            DEFAULT_STORE_RETRY.call(
                lambda: _replace_raw(self.path, data),
                site="store.write:ledger",
            )
        except OSError as exc:
            raise PersistError(
                f"cannot write ledger {self.path!r}: {exc}"
            ) from exc
        try:
            # a schema-1 ledger's previous snapshot is stale from here on
            os.unlink(self.path + PREV_SUFFIX)
        except FileNotFoundError:
            pass

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
            self._rewrite(reversed(survivors_rev))
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
