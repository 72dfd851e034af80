"""Append-only JSON-lines files: the run ledger's and the job journal's format.

A header line ``{"kind": ..., "schema": ...}``, then one line per record,
``{"record": {...}, "sha256": "<hex of the canonical record>"}``.  An
append costs O(1) in the file's size: it scans back from the end only
to the last newline, writes one line and fsyncs it before returning,
under ``DEFAULT_STORE_RETRY`` and the ``store.write`` chaos seam.  A
failed attempt truncates the file back to its length before the
attempt, so a crash can tear only the last line, which was never
acknowledged; readers drop it and the next append cuts it off.  Lines
once written are never overwritten, so there is no ``.prev`` copy.
Readers skip, and report, an inner line whose hash does not match.
:meth:`JsonLines.rewrite` replaces the whole file atomically (tmp file +
fsync + ``os.replace``).  A file that does not start with the header is
refused with :class:`~repro.errors.PersistError`, on read and on append,
and is never truncated or rewritten.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
from typing import IO, Any, Callable, Iterable

from ..chaos import DEFAULT_STORE_RETRY
from ..errors import PersistError
from .store import _canonical_body, injected_write_fault, read_bytes

__all__ = ["JsonLines"]

#: Bytes read per step when scanning back for a newline; doubles per step.
_TAIL_WINDOW = 4096


def _line(doc: dict) -> bytes:
    digest = hashlib.sha256(_canonical_body(doc)).hexdigest()
    line = json.dumps({"record": doc, "sha256": digest}, sort_keys=True)
    return (line + "\n").encode("utf-8")


def _record(line: bytes) -> dict | None:
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


def _line_start(fh: IO[bytes], pos: int) -> int:
    """The offset just past the last newline before *pos* (0 if none)."""
    window = _TAIL_WINDOW
    while pos > 0:
        start = max(0, pos - window)
        fh.seek(start)
        newline = fh.read(pos - start).rfind(b"\n")
        if newline >= 0:
            return start + newline + 1
        pos = start
        window *= 2
    return 0


def _replace_raw(path: str, data: bytes) -> None:
    """One atomic rewrite attempt: tmp file + fsync + ``os.replace``."""
    if injected_write_fault(path) == "partial":
        # a torn tmp file never replaces the file
        raise OSError(errno.EIO, f"chaos: injected torn write of {path!r}")
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp",
        dir=os.path.dirname(os.path.abspath(path)),
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


class JsonLines:
    """The JSON-lines file of one *kind* at *path*, created by its first
    append.  Callers serialize their own writes."""

    def __init__(self, path: str, *, kind: str, schema: int) -> None:
        self.path = path
        self.kind = kind
        self.header = (
            json.dumps({"kind": kind, "schema": schema}, sort_keys=True)
            + "\n"
        ).encode("utf-8")

    def _check_head(self, head: bytes) -> None:
        # a proper prefix of the header (an empty file included) is a
        # torn first append
        if not self.header.startswith(head[: len(self.header)]):
            raise PersistError(
                f"{self.path!r} is not a {self.kind} of this version: it "
                f"does not start with {self.header.decode().strip()}"
            )

    def read(self) -> tuple[list[dict], int]:
        """``(records, corrupt)``: the readable records, oldest first, and
        how many inner lines failed their hash (``([], 0)`` if no file)."""
        try:
            data = read_bytes(self.path, kind=self.kind)
        except FileNotFoundError:
            return [], 0
        self._check_head(data)
        # lines[0] is the header; the last piece is b"" or a torn line
        docs = [_record(line) for line in data.split(b"\n")[1:-1]]
        records = [doc for doc in docs if doc is not None]
        return records, len(docs) - len(records)

    def append(self, record: dict | Callable[[dict | None], dict]) -> dict:
        """Durably append one line; returns the record it holds.

        *record* may be a function that makes the record from the last
        complete one (``None`` if there is none or it is corrupt); only
        then is the last line read back.
        """
        return self._retried(lambda: self._append_raw(record))

    def _append_raw(
        self, record: dict | Callable[[dict | None], dict]
    ) -> dict:
        """One append attempt; raises :class:`OSError` on failure."""
        with open(self.path, "a+b") as fh:
            fh.seek(0)
            self._check_head(fh.read(len(self.header)))
            fault = injected_write_fault(self.path)
            end = _line_start(fh, fh.seek(0, os.SEEK_END))
            if callable(record):
                start = _line_start(fh, end - 1) if end else 0
                fh.seek(start)  # the line at 0 is the header
                last = _record(fh.read(end - start)) if start else None
                record = record(last)
            data = _line(record)
            if end == 0:
                data = self.header + data
            try:
                fh.truncate(end)  # cut off a torn last line
                if fault == "partial":
                    # the write tears and the attempt fails; the truncate
                    # below removes what it left
                    fh.write(data[: len(data) // 2])
                    fh.flush()
                    raise OSError(errno.EIO, "chaos: injected torn write "
                                  f"of {self.path!r}")
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            except OSError:
                try:
                    fh.truncate(end)
                except OSError:
                    pass
                raise
        return record

    def rewrite(self, records: Iterable[dict]) -> None:
        """Atomically replace the file with *records*; a failed rewrite
        leaves the old file as it was."""
        data = self.header + b"".join(_line(doc) for doc in records)
        self._retried(lambda: _replace_raw(self.path, data))

    def _retried(self, attempt: Callable[[], Any]) -> Any:
        try:
            return DEFAULT_STORE_RETRY.call(
                attempt, site=f"store.write:{self.kind}"
            )
        except OSError as exc:
            raise PersistError(
                f"cannot write {self.kind} {self.path!r}: {exc}"
            ) from exc
