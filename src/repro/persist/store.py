"""Atomic, integrity-checked JSON document store.

The on-disk format wraps a JSON body in an envelope carrying its own
content hash::

    {"schema": 1, "sha256": "<hex of canonical body>", "body": {...}}

Writes are atomic: the document goes to a temporary file *in the same
directory* (so the final rename never crosses filesystems), is flushed
and fsync'd, and only then renamed over the target with ``os.replace``.
Before the rename, the previous snapshot — known good, because it passed
the same hash check when written — is rotated to ``<path>.prev``.  A
crash at any point therefore leaves either the old snapshot, the new
snapshot, or (between the two renames) only ``.prev``; never a torn file
that parses.

Reads verify the hash over the canonical body serialization.  A
truncated, bit-flipped, or otherwise corrupt file raises
:class:`~repro.errors.PersistError` — and the loaders then fall back to
``.prev`` automatically, so one bad write costs at most one snapshot's
worth of progress.

Envelopes are serialized on one line by CPython's C JSON encoder
(``json.dumps`` without ``indent``, which would select the pure-Python
encoder — about eight times slower on a served job record).

Checkpoints (:func:`save_checkpoint` / :func:`load_checkpoint`) and the
serve layer's results use this machinery.  The run ledger and the job
journal are JSON lines (:mod:`repro.persist.lines`) sharing the write
fault seam (:func:`injected_write_fault`).

Raw file I/O additionally runs under a
:class:`~repro.chaos.RetryPolicy` (``DEFAULT_STORE_RETRY``): a transient
:class:`OSError` — a full disk that frees up, an I/O hiccup — is retried
with deterministic jittered backoff before surfacing as
:class:`~repro.errors.PersistError`.  Integrity failures are **never**
retried (re-reading a bit-flipped file cannot help); they go straight to
the ``.prev`` fallback.  Both the write and the read path carry
:mod:`repro.chaos` seams so fault-injection tests can exercise exactly
these layers; the seams cost one global read when chaos is inactive.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile

from .. import chaos, obs
from ..chaos import DEFAULT_STORE_RETRY, RetryPolicy
from ..errors import PersistError
from .checkpoint import Checkpoint

__all__ = [
    "Store",
    "injected_write_fault",
    "load_checkpoint",
    "read_bytes",
    "read_envelope",
    "save_checkpoint",
    "write_envelope",
]

#: Version of the file *envelope* (independent of the body schema).
STORE_VERSION = 1

_ENVELOPE_KEYS = frozenset({"schema", "sha256", "body"})

#: Suffix of the rotated previous-good snapshot.
PREV_SUFFIX = ".prev"


def _canonical_body(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def injected_write_fault(path: str) -> str | None:
    """The ``store.write`` chaos seam for one physical write of *path*.

    Raises the injected :class:`OSError` for an ``enospc`` or ``error``
    fault; returns ``"partial"`` when the caller must tear its write, and
    ``None`` (one global read) when chaos is inactive.
    """
    state = chaos.active()
    fault = state.store_write_fault() if state is not None else None
    if fault == "enospc":
        raise OSError(errno.ENOSPC, f"chaos: injected ENOSPC writing {path!r}")
    if fault == "error":
        raise OSError(errno.EIO, f"chaos: injected I/O error writing {path!r}")
    return fault


def _write_envelope_raw(path: str, envelope: dict) -> None:
    """One physical write attempt; raises :class:`OSError` on failure.

    The chaos seam sits here — *inside* the retried unit — so an
    injected transient fault exercises the same retry path a real one
    would.  An injected *partial* write is the one fault the atomic
    rename cannot model from outside: it "succeeds" while leaving a torn
    primary (after rotating the previous good snapshot to ``.prev``),
    which is precisely the crash state the read fallback exists for.
    """
    fault = injected_write_fault(path)
    text = json.dumps(envelope, sort_keys=True)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        if os.path.exists(path):
            os.replace(path, path + PREV_SUFFIX)
        if fault == "partial":
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text[: max(8, len(text) // 3)])
            os.unlink(tmp_path)
            return
        os.replace(tmp_path, path)
    except OSError:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_envelope(
    path: str,
    body: dict,
    *,
    kind: str = "document",
    retry: RetryPolicy | None = None,
) -> str:
    """Durably write *body* inside an integrity envelope; returns *path*.

    The write is atomic (tmp file + fsync + ``os.replace``) and the
    previous snapshot (if any) survives as ``path + ".prev"`` until the
    next successful write rotates it out.  Transient :class:`OSError`\\ s
    are retried under *retry* (default ``DEFAULT_STORE_RETRY``) before
    surfacing as :class:`~repro.errors.PersistError`.  *kind* labels
    errors and the retry site.
    """
    canonical = _canonical_body(body)
    envelope = {
        "schema": STORE_VERSION,
        "sha256": hashlib.sha256(canonical).hexdigest(),
        "body": body,
    }
    policy = retry if retry is not None else DEFAULT_STORE_RETRY
    try:
        policy.call(
            lambda: _write_envelope_raw(path, envelope),
            site=f"store.write:{kind}",
        )
    except OSError as exc:
        raise PersistError(f"cannot write {kind} {path!r}: {exc}") from exc
    return path


def _read_raw(path: str) -> bytes:
    """One physical read attempt; raises :class:`OSError` on failure."""
    state = chaos.active()
    if state is not None and state.store_read_fault():
        raise OSError(errno.EIO, f"chaos: injected I/O error reading {path!r}")
    with open(path, "rb") as fh:
        return fh.read()


def read_bytes(path: str, *, kind: str = "document") -> bytes:
    """The bytes at *path*, read under the ``store.read`` chaos seam and
    ``DEFAULT_STORE_RETRY``.

    A missing file raises :class:`FileNotFoundError` at once; any other
    :class:`OSError` that outlasts the retries surfaces as
    :class:`~repro.errors.PersistError`.
    """
    try:
        return DEFAULT_STORE_RETRY.call(
            lambda: _read_raw(path), site=f"store.read:{kind}"
        )
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise PersistError(f"cannot read {kind} {path!r}: {exc}") from exc


def _read_envelope_one(path: str, *, kind: str = "document") -> dict:
    try:
        data = read_bytes(path, kind=kind)
    except FileNotFoundError as exc:
        raise PersistError(f"no {kind} at {path!r}") from exc
    return _validate_envelope(data, path, kind)


def _validate_envelope(text: str | bytes, path: str, kind: str) -> dict:
    try:
        envelope = json.loads(text)
    except ValueError as exc:
        raise PersistError(
            f"{kind} {path!r} is corrupt (not valid JSON): {exc}"
        ) from exc
    if not isinstance(envelope, dict):
        raise PersistError(f"{kind} {path!r} is not an object")
    unknown = sorted(set(envelope) - _ENVELOPE_KEYS)
    if unknown:
        raise PersistError(
            f"{kind} {path!r} carries unknown envelope field(s) "
            f"{unknown} — written by a newer schema?"
        )
    missing = sorted(_ENVELOPE_KEYS - set(envelope))
    if missing:
        raise PersistError(
            f"{kind} {path!r} is missing envelope field(s) {missing}"
        )
    if envelope["schema"] != STORE_VERSION:
        raise PersistError(
            f"{kind} {path!r} has unsupported envelope schema "
            f"{envelope['schema']!r} (this version reads {STORE_VERSION})"
        )
    body = envelope["body"]
    if not isinstance(body, dict):
        raise PersistError(f"{kind} {path!r} body is not an object")
    digest = hashlib.sha256(_canonical_body(body)).hexdigest()
    if digest != envelope["sha256"]:
        raise PersistError(
            f"{kind} {path!r} failed its integrity check "
            f"(sha256 mismatch: file says {envelope['sha256']!r}, "
            f"body hashes to {digest!r}) — truncated or bit-flipped write?"
        )
    return body


def read_envelope(
    path: str, *, fallback: bool = True, kind: str = "document"
) -> dict:
    """Load and verify the envelope body at *path*.

    On corruption (or a missing primary file), falls back to the rotated
    previous-good snapshot ``path + ".prev"`` when *fallback* is on,
    counting ``persist.fallbacks``.  Raises
    :class:`~repro.errors.PersistError` when neither is usable.
    """
    try:
        return _read_envelope_one(path, kind=kind)
    except PersistError as primary_error:
        prev = path + PREV_SUFFIX
        if not fallback or not os.path.exists(prev):
            raise
        obs.add("persist.fallbacks", 1)
        try:
            return _read_envelope_one(prev, kind=kind)
        except PersistError as prev_error:
            raise PersistError(
                f"both snapshots are unusable: {primary_error}; "
                f"fallback: {prev_error}"
            ) from prev_error


def save_checkpoint(path: str, checkpoint: Checkpoint) -> str:
    """Durably write *checkpoint* to *path*; returns the path written.

    The previous snapshot (if any) survives as ``path + ".prev"`` until
    the next successful write rotates it out.  The write is announced to
    the current obs collector (``checkpoint.write`` instant event) and
    the current progress reporter, so it is visible both on the trace
    timeline and in a live ``--progress`` stream.
    """
    write_envelope(path, checkpoint.to_json_dict(), kind="checkpoint")
    obs.add("persist.snapshots_written", 1)
    obs.event("checkpoint.write", path=path, phase=checkpoint.phase)
    from ..obs.progress import current_reporter

    reporter = current_reporter()
    if reporter is not None:
        reporter.checkpoint_written(path)
    return path


def _load_one(path: str) -> Checkpoint:
    body = _read_envelope_one(path, kind="checkpoint")
    checkpoint = Checkpoint.from_json_dict(body)
    obs.add("persist.snapshots_loaded", 1)
    return checkpoint


def load_checkpoint(path: str, *, fallback: bool = True) -> Checkpoint:
    """Load and verify the checkpoint snapshot at *path*.

    On corruption (or a missing primary file, or a body that does not
    decode as a checkpoint), falls back to the rotated previous-good
    snapshot ``path + ".prev"`` when *fallback* is on, counting
    ``persist.fallbacks``.  Raises :class:`~repro.errors.PersistError`
    when neither is usable.
    """
    try:
        return _load_one(path)
    except PersistError as primary_error:
        prev = path + PREV_SUFFIX
        if not fallback or not os.path.exists(prev):
            raise
        obs.add("persist.fallbacks", 1)
        try:
            return _load_one(prev)
        except PersistError as prev_error:
            raise PersistError(
                f"both snapshots are unusable: {primary_error}; "
                f"fallback: {prev_error}"
            ) from prev_error


# ----------------------------------------------------------------------
# directory stores: named documents plus garbage collection
# ----------------------------------------------------------------------
class Store:
    """A directory of named envelope documents, with :meth:`gc`.

    Thin sugar over :func:`write_envelope` / :func:`read_envelope`: each
    document is one file under *root* (names may contain ``/`` for
    subdirectories), so every read and write inherits the atomic-rename,
    ``.prev``-fallback, integrity-check, and chaos/retry machinery of the
    module functions.  The serve layer (:mod:`repro.serve`) keys its
    result cache and checkpoints through stores.

    :meth:`gc` is the maintenance pass the write protocol makes
    necessary: crashes (and injected ``write_partial`` chaos) can leave
    orphaned ``*.tmp`` files, torn primaries, and stale ``.prev``
    snapshots behind.  It prunes the garbage, heals torn primaries from
    their healthy ``.prev``, and counts everything under ``persist.gc.*``.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    # -- paths ---------------------------------------------------------
    def path(self, name: str) -> str:
        if os.path.isabs(name) or ".." in name.split("/"):
            raise PersistError(f"invalid store document name {name!r}")
        return os.path.join(self.root, name)

    def exists(self, name: str) -> bool:
        path = self.path(name)
        return os.path.exists(path) or os.path.exists(path + PREV_SUFFIX)

    def _name_of(self, full: str) -> str:
        return os.path.relpath(full, self.root).replace(os.sep, "/")

    def names(self) -> tuple[str, ...]:
        """Relative names of all primary documents, sorted."""
        out = []
        for dirpath, _, filenames in os.walk(self.root):
            for fn in filenames:
                if fn.endswith((PREV_SUFFIX, ".tmp")):
                    continue
                out.append(self._name_of(os.path.join(dirpath, fn)))
        return tuple(sorted(out))

    # -- documents -----------------------------------------------------
    def write(self, name: str, body: dict, *, kind: str = "document") -> str:
        path = self.path(name)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        return write_envelope(path, body, kind=kind)

    def read(
        self, name: str, *, kind: str = "document", fallback: bool = True
    ) -> dict:
        return read_envelope(self.path(name), kind=kind, fallback=fallback)

    def remove(self, name: str) -> None:
        """Drop a document and its ``.prev`` snapshot (missing is fine)."""
        path = self.path(name)
        for victim in (path, path + PREV_SUFFIX):
            try:
                os.unlink(victim)
            except FileNotFoundError:
                pass

    # -- garbage collection --------------------------------------------
    @staticmethod
    def _probe(path: str) -> bool | None:
        """``True`` healthy, ``False`` corrupt, ``None`` unreadable.

        Deliberately bypasses the chaos read seam and the retry policy:
        gc must never mistake an *injected* transient read fault for
        corruption and delete a healthy file.  A real :class:`OSError`
        maps to ``None`` — gc leaves files it cannot read alone.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            return None
        try:
            _validate_envelope(text, path, "document")
        except PersistError:
            return False
        return True

    def gc(self, *, exempt: frozenset[str] = frozenset()) -> dict:
        """Prune write debris; returns (and counts) what was done.

        *exempt* names files under the root (relative, ``/``-separated)
        that are not envelope documents — such as a run ledger — and
        that the sweep must leave alone, with their ``.prev``.

        Three kinds of garbage, all produced by crashes in the write
        protocol (or its chaos simulation):

        * orphaned ``*.tmp`` files — a crash between ``mkstemp`` and the
          final rename (removed);
        * torn primaries — a partial write that "succeeded" past the
          ``.prev`` rotation (healed by promoting the healthy ``.prev``
          back to primary, or removed when no fallback survives);
        * corrupt or orphaned ``.prev`` snapshots — a fallback that could
          never serve (removed; an orphan whose primary is gone is
          promoted instead).

        Healthy primaries and their healthy ``.prev`` fallbacks are never
        touched.  Stats land in the returned dict and the ``persist.gc.*``
        counters.
        """
        stats = {
            "scanned": 0,
            "tmp_removed": 0,
            "healed": 0,
            "corrupt_removed": 0,
            "prev_removed": 0,
        }
        primaries: list[str] = []
        prevs: list[str] = []
        for dirpath, _, filenames in os.walk(self.root):
            for fn in sorted(filenames):
                full = os.path.join(dirpath, fn)
                if fn.endswith(".tmp"):
                    try:
                        os.unlink(full)
                        stats["tmp_removed"] += 1
                    except OSError:
                        pass
                elif self._name_of(full).removesuffix(PREV_SUFFIX) in exempt:
                    continue
                elif fn.endswith(PREV_SUFFIX):
                    prevs.append(full)
                else:
                    primaries.append(full)
        for path in primaries:
            stats["scanned"] += 1
            verdict = self._probe(path)
            if verdict is None:
                continue
            prev = path + PREV_SUFFIX
            prev_healthy = self._probe(prev) if os.path.exists(prev) else None
            if verdict:
                # healthy primary: a corrupt .prev can never serve as a
                # fallback, so it is garbage
                if prev_healthy is False:
                    os.unlink(prev)
                    stats["prev_removed"] += 1
                continue
            if prev_healthy:
                os.replace(prev, path)
                stats["healed"] += 1
            else:
                os.unlink(path)
                stats["corrupt_removed"] += 1
                if prev_healthy is False:
                    os.unlink(prev)
                    stats["prev_removed"] += 1
        for prev in prevs:
            # an orphaned .prev (primary gone: crash between the two
            # renames) is the previous good snapshot — promote it
            primary = prev[: -len(PREV_SUFFIX)]
            if os.path.exists(primary) or not os.path.exists(prev):
                continue
            if self._probe(prev):
                os.replace(prev, primary)
                stats["healed"] += 1
            else:
                os.unlink(prev)
                stats["prev_removed"] += 1
        obs.add("persist.gc.runs", 1)
        for key, value in stats.items():
            if value:
                obs.add(f"persist.gc.{key}", value)
        return stats
