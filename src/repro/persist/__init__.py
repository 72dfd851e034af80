"""Crash-safe checkpointing and exact resume for long-running solves.

The quotient's pair-set exploration is combinatorial (and for general
communicating FSMs unbounded), so production solves must survive
interruption: a budget trip, a SIGINT, a deadline, or a crashed worker.
This package provides the three layers that make that survivable:

* :mod:`repro.persist.checkpoint` — schema-versioned, content-fingerprinted
  serialization of partial phase state (:class:`Checkpoint`), precise
  enough that resuming reproduces the uninterrupted run **byte for byte**;
* :mod:`repro.persist.store` — atomic durable snapshots (tmp + fsync +
  rename) with corruption detection and fallback to the previous good
  snapshot; :mod:`repro.persist.lines` keeps the append-only JSON-lines
  files of the run ledger and the server's job journal;
* :mod:`repro.persist.interrupt` — the cooperative
  :class:`InterruptController` that turns SIGINT / deadlines /
  deterministic test points into
  :class:`~repro.errors.InterruptRequested` at charge boundaries.

See ``docs/robustness.md`` for the end-to-end story (CLI flags
``--checkpoint`` / ``--resume`` / ``--deadline``, exit code 4, the
``guarantees: partial`` anytime output).
"""

from ..errors import InterruptRequested, PersistError
from .checkpoint import (
    SCHEMA_VERSION,
    Checkpoint,
    anytime_summary,
    completed_safety_state,
    decode_quotient_payload,
    problem_fingerprint,
    quotient_checkpoint,
    render_anytime_text,
    resilience_fingerprint,
    spec_fingerprint,
)
from .interrupt import InterruptController
from .store import (
    Store,
    load_checkpoint,
    read_envelope,
    save_checkpoint,
    write_envelope,
)

__all__ = [
    "Checkpoint",
    "InterruptController",
    "InterruptRequested",
    "PersistError",
    "SCHEMA_VERSION",
    "Store",
    "anytime_summary",
    "completed_safety_state",
    "decode_quotient_payload",
    "load_checkpoint",
    "problem_fingerprint",
    "quotient_checkpoint",
    "read_envelope",
    "render_anytime_text",
    "resilience_fingerprint",
    "save_checkpoint",
    "spec_fingerprint",
    "write_envelope",
]
