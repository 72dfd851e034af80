"""The server's durable state: results, jobs, checkpoints, index, ledger.

Everything lives under one root directory, every document inside a
:class:`~repro.persist.Store` envelope — atomic rename, ``.prev``
fallback, integrity-checked reads — so the server's cache survives the
same crash and torn-write schedules its checkpoints do, and the
``REPRO_CHAOS`` store fault sites exercise all of it for free::

    <root>/
      index.json              spec → problem → result artifact graph
      server.json             monotonic job-id sequence
      results/<fp>.json       canonical result bodies, keyed by fingerprint
      jobs/<id>.json          job records (the crash-recovery journal)
      checkpoints/<fp>.json   solve checkpoints of budget-tripped/drained jobs
      ledger.json             the run ledger (``history --kind served``)

The **index** is the artifact graph the ROADMAP asks for: each entry
maps a result fingerprint to its kind, verdict, and the fingerprints of
the specs that produced it, so "every cached derivation involving this
spec" is one scan.  The index is a cache of the ``results/`` directory —
rebuildable, never authoritative — so a lost index costs a re-solve, not
an answer.

Job records double as the **crash journal**: every state transition is
persisted, so a restarted server can re-enqueue everything that was
queued or running and resume solves from their checkpoints (see
:meth:`ResultStore.recoverable_jobs`).
"""

from __future__ import annotations

import os
from typing import Any

from .. import obs
from ..errors import PersistError
from ..persist import Checkpoint, Store, load_checkpoint, save_checkpoint

__all__ = ["ResultStore"]

INDEX_SCHEMA = 1

#: Job states that survive a restart and must be re-run.
RECOVERABLE_STATES = ("queued", "running", "retrying", "interrupted")


class ResultStore:
    """All durable server state under one *root* directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._docs = Store(root)
        self._results = Store(os.path.join(root, "results"))
        self._jobs = Store(os.path.join(root, "jobs"))
        self._checkpoints = Store(os.path.join(root, "checkpoints"))
        self.ledger_path = os.path.join(root, "ledger.json")

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
        self._results.write(
            f"{fingerprint}.json",
            {
                "kind": kind,
                "fingerprint": fingerprint,
                "verdict": verdict,
                "result": body,
            },
            kind="result",
        )
        index = self.index()
        index["entries"][fingerprint] = {
            "kind": kind,
            "label": label,
            "verdict": verdict,
            "specs": sorted(spec_fingerprints),
        }
        self._docs.write("index.json", index, kind="serve-index")

    def index(self) -> dict:
        """The artifact-graph index body (fresh empty one when absent)."""
        if not self._docs.exists("index.json"):
            return {"kind": "serve-index", "schema": INDEX_SCHEMA,
                    "entries": {}}
        try:
            body = self._docs.read("index.json", kind="serve-index")
        except PersistError:
            # the index is a rebuildable cache; a torn one starts empty
            return {"kind": "serve-index", "schema": INDEX_SCHEMA,
                    "entries": {}}
        if body.get("schema") != INDEX_SCHEMA:
            raise PersistError(
                f"serve index has unsupported schema {body.get('schema')!r}"
            )
        return body

    def entries_for_spec(self, spec_fingerprint: str) -> dict[str, dict]:
        """Index entries whose inputs include this spec fingerprint."""
        return {
            fp: entry
            for fp, entry in self.index()["entries"].items()
            if spec_fingerprint in entry.get("specs", ())
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

    def recoverable_jobs(self) -> list[dict]:
        """Records a restarted server must re-enqueue (oldest first)."""
        return [
            r for r in self.load_jobs()
            if r.get("state") in RECOVERABLE_STATES
        ]

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
        jobs, checkpoints, the index, and the ledger alike.
        """
        return self._docs.gc()
