"""Supervised job execution: retry, budgets, deadlines, drain.

:func:`WorkerSupervisor.run_job` is the synchronous heart of the server
(the asyncio layer calls it on a worker thread).  It wraps the pure
:func:`~repro.serve.jobs.execute_job` in the server's robustness ladder:

1. **Transient failures** (a real :class:`OSError`, or an injected
   ``serve.job`` *raise* fault) are retried under a
   :class:`~repro.chaos.RetryPolicy` with deterministic seeded backoff —
   the same machinery the persist store uses.
2. **Budgets and deadlines** surface as ``partial-budget`` /
   ``partial-interrupt`` outcomes with a persisted checkpoint, so a
   resubmission (or a restarted server) picks up where the job stopped.
3. **Drain** (SIGTERM) stops a running job at its next charge boundary
   and parks it as ``interrupted`` with a checkpoint, so the next server
   life resumes it.

Workers are threads of one process, so a worker cannot die on its own:
a crash takes the whole server down, and the restarted server re-runs
every unfinished job from the durable store, resuming from a checkpoint
when the job left one (``docs/serving.md``, "Crash recovery").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from .. import chaos, obs
from ..chaos import RetryPolicy
from ..errors import BudgetExceeded, InterruptRequested, ReproError
from ..persist import InterruptController
from .jobs import JobRequest, execute_job
from .store_index import ResultStore

__all__ = [
    "DEFAULT_JOB_RETRY",
    "JobOutcome",
    "WorkerSupervisor",
]

#: Retry policy for transiently failing job attempts.
DEFAULT_JOB_RETRY = RetryPolicy(
    max_attempts=4, base_delay_s=0.01, max_delay_s=0.5, seed=17
)

#: The interrupt reason used for server drain (SIGTERM); recognized by
#: the supervisor to park the job as recoverable instead of failing it.
DRAIN_REASON = "server drain"


@dataclass
class JobOutcome:
    """Everything the app layer needs to finalize one job."""

    state: str                      # done | failed | interrupted
    outcome: str                    # complete | partial-* | failed
    body: dict | None = None
    verdict: str | None = None
    counters: dict = field(default_factory=dict)
    error: str | None = None
    attempts: int = 0               # tries the retry policy made
    resumed: bool = False
    checkpointed: bool = False


class WorkerSupervisor:
    """Shared supervision settings for all worker threads of one server.

    *retry* bounds the tries at a transiently failing job; *sleep* and
    *clock* are injectable so tests run without real waiting.
    """

    def __init__(
        self,
        *,
        retry: RetryPolicy = DEFAULT_JOB_RETRY,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.retry = retry
        self._sleep = sleep
        self._clock = clock

    def run_job(
        self,
        request: JobRequest,
        store: ResultStore,
        *,
        fingerprint: str | None = None,
        drain: InterruptController | None = None,
    ) -> JobOutcome:
        """Execute *request* to a terminal :class:`JobOutcome`.

        *drain* is an externally owned controller the server requests on
        SIGTERM.  It is the parent of the job's own controller, so a
        drain requested before the job starts or while it runs stops the
        job at its next charge boundary, and the outcome is
        ``interrupted`` (recoverable on restart) rather than ``failed``.
        """
        fp = fingerprint if fingerprint is not None else request.fingerprint()
        resume = (
            store.load_job_checkpoint(fp) if request.kind == "solve" else None
        )
        outcome = JobOutcome(
            state="failed", outcome="failed", resumed=resume is not None
        )
        controller = InterruptController(
            deadline_s=request.deadline_s, clock=self._clock, parent=drain
        )
        state = chaos.active()
        inject = state is not None and state.serve_job_fault()

        def attempt():
            outcome.attempts += 1
            if inject and outcome.attempts == 1:
                raise OSError("chaos: injected transient serve worker failure")
            return execute_job(
                request, interrupt=controller, resume_from=resume
            )

        try:
            result = self.retry.call(
                attempt,
                site=f"serve.job:{request.kind}",
                sleep=self._sleep,
                clock=self._clock,
            )
        except InterruptRequested as exc:
            outcome.checkpointed = _save_checkpoint(store, fp, exc)
            outcome.state = (
                "interrupted" if exc.reason == DRAIN_REASON else "failed"
            )
            outcome.outcome = "partial-interrupt"
            outcome.error = str(exc)
        except BudgetExceeded as exc:
            outcome.checkpointed = _save_checkpoint(store, fp, exc)
            outcome.outcome = "partial-budget"
            outcome.error = str(exc)
        except (ReproError, OSError) as exc:
            outcome.error = str(exc)
        else:
            store.drop_job_checkpoint(fp)
            outcome.state = "done"
            outcome.outcome = "complete"
            outcome.body = result.body
            outcome.verdict = result.verdict
            outcome.counters = dict(result.counters)
        if outcome.state == "done":
            obs.add("serve.jobs.completed", 1)
            if outcome.resumed:
                obs.add("serve.jobs.resumed", 1)
        elif outcome.state == "interrupted":
            obs.add("serve.jobs.interrupted", 1)
        else:
            obs.add("serve.jobs.failed", 1)
        return outcome


def _save_checkpoint(store: ResultStore, fp: str, exc: Exception) -> bool:
    """Persist the checkpoint a stopped solve handed back, if any."""
    ckpt = getattr(exc, "checkpoint", None)
    if ckpt is None:
        return False
    store.save_job_checkpoint(fp, ckpt)
    return True
