"""repro.serve — quotient derivation as a crash-tolerant service.

The batch entry points (:func:`~repro.quotient.solve_quotient`,
:func:`~repro.faults.evaluate_resilience`, :mod:`repro.lint`) wrapped in
an asyncio HTTP/JSON server with content-addressed deduplication,
bounded admission, and supervised retry/resume execution on worker
threads.  Everything durable rides on :mod:`repro.persist` — atomic
envelope writes, ``.prev`` fallback, integrity-checked reads — so the
server inherits the same crash-consistency story (and ``REPRO_CHAOS``
fault schedule) as the checkpoint layer.

Layering (each module only imports downward):

``jobs``         what a job *is*: validated requests, content
                 fingerprints, the pure ``execute_job``
``store_index``  the durable state: results, job records, checkpoints,
                 the artifact-graph index, the run ledger
``queue``        bounded admission: priorities, shedding, backpressure
``workers``      supervision: retry, budgets, deadlines, drain
``app``          the asyncio HTTP server tying it together
``client``       a stdlib client (CLI ``submit``/``status``, CI smoke)

See ``docs/serving.md`` for the protocol and the robustness contract.
"""

from .app import TERMINAL_STATES, DerivationServer
from .client import ServeClient
from .jobs import JOB_KINDS, ExecutionOutcome, JobRequest, execute_job
from .queue import Admission, AdmissionQueue
from .store_index import ResultStore
from .workers import DEFAULT_JOB_RETRY, JobOutcome, WorkerSupervisor

__all__ = [
    "Admission",
    "AdmissionQueue",
    "DEFAULT_JOB_RETRY",
    "DerivationServer",
    "ExecutionOutcome",
    "JOB_KINDS",
    "JobOutcome",
    "JobRequest",
    "ResultStore",
    "ServeClient",
    "TERMINAL_STATES",
    "WorkerSupervisor",
    "execute_job",
]
