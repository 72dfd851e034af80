"""The server's durable state: results, jobs, checkpoints, ledger.

Everything lives under one root directory.  Every document except the
ledger sits inside a :class:`~repro.persist.Store` envelope — atomic
rename, ``.prev`` fallback, integrity-checked reads — so the server's
cache survives the same crash and torn-write schedules its checkpoints
do, and the ``REPRO_CHAOS`` store fault sites exercise all of it for
free::

    <root>/
      server.json             monotonic job-id sequence
      results/<fp>.json       result documents, keyed by fingerprint
      jobs/<id>.json          job records (the crash-recovery journal)
      checkpoints/<fp>.json   solve checkpoints of budget-tripped/drained jobs
      ledger.json             the run ledger, JSON lines
                              (``history --kind served``)

The **index** is the artifact graph the ROADMAP asks for: each entry
maps a result fingerprint to its kind, label, verdict, and the
fingerprints of the specs that produced it, so "every cached derivation
involving this spec" is one scan.  Each result document carries its
own entry, so the index is a map in memory, built on first use from
``results/`` and extended by :meth:`ResultStore.put_result`; a cached
result costs one document write and no index write.

Job records double as the **crash journal**: every state transition is
persisted, so a restarted server can re-enqueue everything that was
queued or running and resume solves from their checkpoints.
"""

from __future__ import annotations

import os
import threading
from typing import Any

from .. import obs
from ..errors import PersistError
from ..persist import Checkpoint, Store, load_checkpoint, save_checkpoint

__all__ = ["ResultStore"]

INDEX_SCHEMA = 1

#: Job states that survive a restart and must be re-run.
RECOVERABLE_STATES = ("queued", "running", "interrupted")


class ResultStore:
    """All durable server state under one *root* directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._docs = Store(root)
        self._results = Store(os.path.join(root, "results"))
        self._jobs = Store(os.path.join(root, "jobs"))
        self._checkpoints = Store(os.path.join(root, "checkpoints"))
        self.ledger_path = os.path.join(root, "ledger.json")
        # the index: result fingerprint -> entry, None until first use;
        # worker threads insert while the event loop serves GET /index
        self._entries: dict[str, dict] | None = None
        self._index_lock = threading.Lock()

    # -- server state (the job-id sequence) ----------------------------
    def load_state(self) -> dict:
        if not self._docs.exists("server.json"):
            return {"next_seq": 0}
        try:
            return self._docs.read("server.json", kind="serve-state")
        except PersistError:
            # recoverable: the job records carry their own seq numbers
            return {"next_seq": 0}

    def save_state(self, state: dict) -> None:
        self._docs.write("server.json", state, kind="serve-state")

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
        legacy: dict[str, Any] | None = None
        entries: dict[str, dict] = {}
        for name in self._results.names():
            try:
                doc = self._results.read(name, kind="result")
            except PersistError:
                continue  # a miss, as in get_result
            fingerprint = name[: -len(".json")]
            old: dict[str, Any] = {}
            if "specs" not in doc:
                # cached before result documents carried their entry
                if legacy is None:
                    legacy = self._legacy_index()
                old = legacy.get(fingerprint) or {}
            entries[fingerprint] = {
                "kind": doc.get("kind"),
                "label": doc.get("label", old.get("label", "")),
                "verdict": doc.get("verdict"),
                "specs": doc.get("specs", old.get("specs", [])),
            }
        return entries

    def _legacy_index(self) -> dict[str, Any]:
        try:
            body = self._docs.read("index.json", kind="serve-index")
        except PersistError:
            return {}
        entries = body.get("entries")
        return entries if isinstance(entries, dict) else {}

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

    # -- job records (the crash journal) -------------------------------
    def save_job(self, record: dict) -> None:
        self._jobs.write(
            f"{record['job_id']}.json", record, kind="job-record"
        )

    def load_job(self, job_id: str) -> dict | None:
        name = f"{job_id}.json"
        if not self._jobs.exists(name):
            return None
        return self._jobs.read(name, kind="job-record")

    def load_jobs(self) -> list[dict]:
        """Every job record, oldest submission first."""
        records = []
        for name in self._jobs.names():
            try:
                records.append(self._jobs.read(name, kind="job-record"))
            except PersistError:
                continue
        records.sort(key=lambda r: r.get("seq", 0))
        return records

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

        The root store's walk is recursive, so one pass covers results,
        jobs and checkpoints alike.  The ledger is exempt: it is JSON
        lines, not an envelope, and the sweep would remove it as corrupt.
        """
        return self._docs.gc(
            exempt=frozenset({os.path.basename(self.ledger_path)})
        )
