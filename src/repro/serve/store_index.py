"""The server's durable state: results, checkpoints, job journal, ledger.

Everything lives under one root directory.  Results and checkpoints
sit inside :class:`~repro.persist.Store` envelopes — atomic rename,
``.prev`` fallback, integrity-checked reads — so the server's cache
survives the same crash and torn-write schedules its checkpoints do.
The job journal and the run ledger are append-only JSON lines
(:class:`~repro.persist.lines.JsonLines`).  The ``REPRO_CHAOS`` store
fault sites exercise all of it for free::

    <root>/
      results/<fp>.json       result documents, keyed by fingerprint
      checkpoints/<fp>.json   solve checkpoints of budget-tripped/drained jobs
      journal.json            the job journal, JSON lines
      ledger.json             the run ledger, JSON lines
                              (``history --kind served``)

The **index** is the artifact graph the ROADMAP asks for: each entry
maps a result fingerprint to its kind, label, verdict, and the
fingerprints of the specs that produced it, so "every cached derivation
involving this spec" is one scan.  Each result document carries its
own entry, so the index is a map in memory, built on first use from
``results/`` and extended by :meth:`ResultStore.put_result`; a cached
result costs one document write and no index write.

The **job journal** is the crash-recovery record: one fsynced line per
job state transition, replayed at start-up into every record and the
job-id sequence, so a restarted server can re-enqueue everything that
was queued or running and resume solves from their checkpoints.  A
job's request rides on its admission line, and on its compacted line
only while the job is unfinished.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Iterable

from .. import obs
from ..errors import PersistError
from ..persist import Checkpoint, Store, load_checkpoint, save_checkpoint
from ..persist.lines import JsonLines

__all__ = ["ResultStore"]

INDEX_SCHEMA = 1

#: Version of the job journal file.
JOURNAL_SCHEMA = 1

#: Job states that survive a restart and must be re-run.
RECOVERABLE_STATES = ("queued", "running", "interrupted")

#: The fields of a job's journal lines after its admission line: all
#: that a state transition changes.
TRANSITION_KEYS = (
    "job_id", "state", "outcome", "verdict", "error", "attempts", "resumed"
)


def _seq_of(job_id: str) -> int:
    return int(job_id[1:])  # job ids are "j<seq>"


class ResultStore:
    """All durable server state under one *root* directory."""

    def __init__(self, root: str) -> None:
        for name in ("server.json", "jobs"):  # the journal replaced them
            old = os.path.join(root, name)
            if os.path.lexists(old):
                raise PersistError(
                    f"{old!r} is from a store layout this version does "
                    "not read; serve from a new store root"
                )
        self.root = root
        self._docs = Store(root)
        self._results = Store(os.path.join(root, "results"))
        self._checkpoints = Store(os.path.join(root, "checkpoints"))
        self.ledger_path = os.path.join(root, "ledger.json")
        self.journal_path = os.path.join(root, "journal.json")
        self._journal = JsonLines(
            self.journal_path, kind="journal", schema=JOURNAL_SCHEMA
        )
        # appends come from the event loop and the worker threads
        self._journal_lock = threading.Lock()
        self._lost: dict[str, dict] = {}  # see save_state
        # the index: result fingerprint -> entry, None until first use;
        # worker threads insert while the event loop serves GET /index
        self._entries: dict[str, dict] | None = None
        self._index_lock = threading.Lock()

    # -- results (the content-addressed cache) -------------------------
    def get_result(self, fingerprint: str) -> dict | None:
        """The cached result document for *fingerprint*, or ``None``.

        The document carries ``kind``, ``verdict``, and the canonical
        body under ``result``.  A corrupt entry (both snapshots
        unusable) reads as a miss — the job simply recomputes and
        rewrites it; the cache can lose entries, never serve bad ones.
        """
        name = f"{fingerprint}.json"
        if not self._results.exists(name):
            return None
        try:
            return self._results.read(name, kind="result")
        except PersistError:
            obs.add("serve.cache.corrupt", 1)
            return None

    def put_result(
        self,
        fingerprint: str,
        *,
        kind: str,
        label: str,
        spec_fingerprints: list[str],
        body: dict,
        verdict: str | None,
    ) -> None:
        """Cache a *complete* result and index it (idempotent)."""
        entry = {
            "kind": kind,
            "label": label,
            "verdict": verdict,
            "specs": sorted(spec_fingerprints),
        }
        self._results.write(
            f"{fingerprint}.json",
            {**entry, "fingerprint": fingerprint, "result": body},
            kind="result",
        )
        with self._index_lock:
            if self._entries is not None:
                self._entries[fingerprint] = entry

    def _scan_results(self) -> dict[str, dict]:
        """The index entries of every readable result document."""
        entries: dict[str, dict] = {}
        for name in self._results.names():
            try:
                doc = self._results.read(name, kind="result")
            except PersistError:
                continue  # a miss, as in get_result
            entries[name[: -len(".json")]] = {
                "kind": doc.get("kind"),
                "label": doc.get("label", ""),
                "verdict": doc.get("verdict"),
                "specs": doc.get("specs", []),
            }
        return entries

    def _index_entries(self) -> dict[str, dict]:
        """A copy of the index map, built on first use."""
        with self._index_lock:
            if self._entries is None:
                self._entries = self._scan_results()
            return dict(self._entries)

    def index(self) -> dict:
        """The artifact-graph index body."""
        return {"kind": "serve-index", "schema": INDEX_SCHEMA,
                "entries": self._index_entries()}

    def entries_for_spec(self, spec_fingerprint: str) -> dict[str, dict]:
        """Index entries whose inputs include this spec fingerprint."""
        return {
            fp: entry
            for fp, entry in self._index_entries().items()
            if spec_fingerprint in entry["specs"]
        }

    # -- the job journal ------------------------------------------------
    def save_job(self, record: dict, *, admit: bool = False) -> None:
        """Append one fsynced journal line for *record*: the whole record
        with *admit*, else its :data:`TRANSITION_KEYS`."""
        line = record if admit else {k: record[k] for k in TRANSITION_KEYS}
        with self._journal_lock:
            self._journal.append(line)

    def load_jobs(self) -> tuple[list[dict], int]:
        """Replay the journal: ``(records, next_seq)``.

        *records* are the jobs whose admission line is readable, in their
        last state, oldest first: a line naming ``seq`` is a whole record
        (an admission or compacted line), any other a transition.
        *next_seq* is one past the largest sequence number any line
        names, so no id is reused, not even a job's whose admission line
        failed its hash.
        """
        docs, corrupt = self._journal.read()
        if corrupt:
            obs.add("serve.journal.corrupt_skipped", corrupt)
        records: dict[str, dict] = {}
        lost: dict[str, dict] = {}
        next_seq = 0
        for doc in docs:
            job_id = doc["job_id"]
            next_seq = max(next_seq, _seq_of(job_id) + 1)
            if "seq" in doc:
                records[job_id] = doc
            elif job_id in records:
                records[job_id].update(doc)
            else:
                lost.setdefault(job_id, {}).update(doc)
        self._lost = lost
        return sorted(records.values(), key=lambda r: r["seq"]), next_seq

    def save_state(self, records: Iterable[dict]) -> None:
        """Atomically compact the journal to one line per job: each of
        *records*, its request kept only if it is unfinished, and the
        last line of each job whose admission line :meth:`load_jobs`
        skipped, so its id stays taken."""
        lines = [
            record if record["state"] in RECOVERABLE_STATES
            else {k: v for k, v in record.items() if k != "request"}
            for record in records
        ]
        lines.extend(self._lost.values())
        lines.sort(key=lambda doc: _seq_of(doc["job_id"]))
        with self._journal_lock:
            self._journal.rewrite(lines)

    # -- checkpoints (resume-after-crash for solve jobs) ----------------
    def checkpoint_path(self, fingerprint: str) -> str:
        return self._checkpoints.path(f"{fingerprint}.json")

    def save_job_checkpoint(self, fingerprint: str, ckpt: Checkpoint) -> str:
        return save_checkpoint(self.checkpoint_path(fingerprint), ckpt)

    def load_job_checkpoint(self, fingerprint: str) -> Checkpoint | None:
        path = self.checkpoint_path(fingerprint)
        if not (os.path.exists(path) or os.path.exists(path + ".prev")):
            return None
        try:
            return load_checkpoint(path)
        except PersistError:
            # an unusable checkpoint only costs a from-scratch re-run
            return None

    def drop_job_checkpoint(self, fingerprint: str) -> None:
        self._checkpoints.remove(f"{fingerprint}.json")

    # -- maintenance ---------------------------------------------------
    def gc(self) -> dict[str, Any]:
        """Run :meth:`~repro.persist.Store.gc` over the whole tree.

        The root store's walk is recursive, so one pass covers results
        and checkpoints alike.  The journal and the ledger are exempt:
        they are JSON lines, not envelopes, and the sweep would remove
        them as corrupt.
        """
        return self._docs.gc(
            exempt=frozenset(
                os.path.basename(path)
                for path in (self.journal_path, self.ledger_path)
            )
        )
