"""Supervised job execution: retry, resume, respawn budget, degradation.

:func:`WorkerSupervisor.run_job` is the synchronous heart of the server
(the asyncio layer calls it on a worker thread).  It wraps the pure
:func:`~repro.serve.jobs.execute_job` in the full robustness ladder:

1. **Transient failures** (a real :class:`OSError`, or an injected
   ``serve.job`` *raise* fault) are retried under a
   :class:`~repro.chaos.RetryPolicy` with deterministic seeded backoff —
   the same machinery the persist store uses.
2. **Worker death and wedging** (injected ``serve.job`` *kill* / *hang*
   faults, or a genuine crash between attempts) interrupt the solve at a
   deterministic charge boundary; the checkpoint the solver hands back is
   persisted under the job's fingerprint and the next attempt *resumes*
   instead of restarting.  Each death spends one unit of the shared
   respawn budget.
3. **Respawn-budget exhaustion** flips the supervisor into degraded
   mode: no further faults are consulted, jobs drain in-process
   sequentially, and every affected job carries a
   :class:`DegradedExecution` record — the answer is still exact, only
   the execution story changed.
4. **Budgets and deadlines** surface as ``partial-budget`` /
   ``partial-interrupt`` outcomes with a persisted checkpoint, so a
   resubmission (or a restarted server) picks up where the job stopped.

The chaos *kill* simulation deserves a note: a real killed worker leaves
its last durable checkpoint behind; here the kill is modeled as a
deterministic :class:`~repro.persist.InterruptController` ``at_charge``
interrupt — the checkpoint *is* the solver's charge-boundary snapshot,
and the resume differential machinery (``tests/test_resume_differential``)
guarantees the resumed run is byte-identical to an uninterrupted one.
That is exactly the contract ``tests/test_serve_differential.py`` pins
end to end.
"""

from __future__ import annotations

import os
import random
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
    "DegradedExecution",
    "JobOutcome",
    "WorkerSupervisor",
]

#: Retry policy for transiently failing job attempts.
DEFAULT_JOB_RETRY = RetryPolicy(
    max_attempts=4, base_delay_s=0.01, max_delay_s=0.5, seed=17
)

#: Upper bound on the charge at which a simulated kill/hang fires.  Small
#: enough that typical jobs have an interior kill point, large enough to
#: vary; a draw beyond the job's actual charge count simply "misses"
#: (the worker died after finishing — nothing to recover).  Overridable
#: with ``REPRO_KILL_CHARGE_SPAN`` (span 1 pins the kill to the first
#: charge boundary, so it always lands — the CI smoke uses this).
KILL_CHARGE_SPAN = 31


def _default_kill_charge_span() -> int:
    raw = os.environ.get("REPRO_KILL_CHARGE_SPAN")
    if not raw:
        return KILL_CHARGE_SPAN
    try:
        span = int(raw)
    except ValueError:
        raise ReproError(
            f"REPRO_KILL_CHARGE_SPAN must be an integer, got {raw!r}"
        ) from None
    if span < 1:
        raise ReproError(
            f"REPRO_KILL_CHARGE_SPAN must be >= 1, got {span}"
        )
    return span

#: The interrupt reason used for server drain (SIGTERM); recognized by
#: the supervisor to park the job as recoverable instead of failing it.
DRAIN_REASON = "server drain"


@dataclass(frozen=True)
class DegradedExecution:
    """A job that ran after the supervisor stopped injecting faults.

    Recorded, never raised: once the respawn budget is spent the
    supervisor drains jobs in-process, and each affected job's record
    carries one of these (and a ``serve.degraded`` event is emitted), so
    an operator can see that the answer is exact but the server was not
    healthy.
    """

    reason: str
    worker_deaths: int

    def to_json_dict(self) -> dict:
        return {"reason": self.reason, "worker_deaths": self.worker_deaths}


@dataclass
class JobOutcome:
    """Everything the app layer needs to finalize one job."""

    state: str                      # done | failed | interrupted
    outcome: str                    # complete | partial-* | failed
    body: dict | None = None
    verdict: str | None = None
    counters: dict = field(default_factory=dict)
    degradations: list = field(default_factory=list)
    error: str | None = None
    attempts: int = 0
    worker_deaths: int = 0
    resumed: bool = False
    checkpointed: bool = False


class WorkerSupervisor:
    """Shared supervision state for all worker threads of one server.

    *respawn_budget* bounds how many simulated worker deaths the server
    absorbs before degrading to sequential in-process draining
    (``serve --respawn-budget``).  *sleep* and *clock* are injectable so
    tests run without real waiting.
    """

    def __init__(
        self,
        *,
        respawn_budget: int = 16,
        retry: RetryPolicy = DEFAULT_JOB_RETRY,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        kill_charge_span: int | None = None,
    ) -> None:
        if kill_charge_span is None:
            kill_charge_span = _default_kill_charge_span()
        if kill_charge_span < 1:
            raise ValueError(
                f"kill_charge_span must be >= 1, got {kill_charge_span!r}"
            )
        self.respawn_budget = respawn_budget
        self.retry = retry
        self.kill_charge_span = kill_charge_span
        self.degraded = False
        self.worker_deaths = 0
        self._sleep = sleep
        self._clock = clock
        self._fault_seq = 0

    # ------------------------------------------------------------------
    def _kill_charge(self, plan: chaos.ChaosPlan) -> int:
        """The deterministic charge boundary a simulated kill fires at."""
        n = self._fault_seq
        self._fault_seq += 1
        return 1 + random.Random(
            f"{plan.seed}|serve.job.charge|{n}"
        ).randrange(self.kill_charge_span)

    def _degrade(self, reason: str, deaths: int) -> DegradedExecution:
        self.degraded = True
        record = DegradedExecution(reason=reason, worker_deaths=deaths)
        obs.event("serve.degraded", reason=reason)
        return record

    # ------------------------------------------------------------------
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
        SIGTERM; when its interrupt fires mid-job the outcome is
        ``interrupted`` (recoverable on restart) rather than ``failed``.
        The controller actually attached to the solve is always a fresh
        per-attempt one — *drain*'s pending request is forwarded into it
        so a drain requested between attempts still lands.
        """
        fp = fingerprint if fingerprint is not None else request.fingerprint()
        resume = (
            store.load_job_checkpoint(fp) if request.kind == "solve" else None
        )
        outcome = JobOutcome(state="failed", outcome="failed")
        outcome.resumed = resume is not None
        deaths = 0
        degradations: list[DegradedExecution] = []
        if self.degraded:
            degradations.append(
                DegradedExecution(
                    reason="serve worker pool degraded; draining in-process",
                    worker_deaths=self.worker_deaths,
                )
            )
        while True:
            outcome.attempts += 1
            fault = None
            if not self.degraded:
                state = chaos.active()
                fault = state.serve_job_fault() if state is not None else None
            at_charge = None
            if fault in ("kill", "hang"):
                at_charge = self._kill_charge(chaos.active().plan)
            controller = InterruptController(
                deadline_s=request.deadline_s,
                at_charge=at_charge,
                clock=self._clock,
            )
            if drain is not None and drain.requested:
                controller.request(DRAIN_REASON)
            first_call = [fault == "raise"]

            def attempt():
                if first_call[0]:
                    first_call[0] = False
                    raise OSError(
                        "chaos: injected transient serve worker failure"
                    )
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
                ckpt = getattr(exc, "checkpoint", None)
                if ckpt is not None:
                    store.save_job_checkpoint(fp, ckpt)
                    outcome.checkpointed = True
                    resume = ckpt
                    outcome.resumed = True
                if exc.reason.startswith("test interrupt"):
                    # the simulated worker death: spend respawn budget,
                    # then retry the job resuming from the checkpoint
                    deaths += 1
                    self.worker_deaths += 1
                    obs.add("serve.worker.deaths", 1)
                    if self.respawn_budget <= 0:
                        degradations.append(self._degrade(
                            "serve worker respawn budget exhausted; "
                            "draining in-process",
                            deaths,
                        ))
                    else:
                        self.respawn_budget -= 1
                        obs.add("serve.worker.respawns", 1)
                    continue
                outcome.state = (
                    "interrupted" if exc.reason == DRAIN_REASON else "failed"
                )
                outcome.outcome = "partial-interrupt"
                outcome.error = str(exc)
                break
            except BudgetExceeded as exc:
                ckpt = getattr(exc, "checkpoint", None)
                if ckpt is not None:
                    store.save_job_checkpoint(fp, ckpt)
                    outcome.checkpointed = True
                outcome.outcome = "partial-budget"
                outcome.error = str(exc)
                break
            except (ReproError, OSError) as exc:
                outcome.error = str(exc)
                break
            # success
            store.drop_job_checkpoint(fp)
            outcome.state = "done"
            outcome.outcome = "complete"
            outcome.body = result.body
            outcome.verdict = result.verdict
            outcome.counters = dict(result.counters)
            break
        outcome.worker_deaths = deaths
        outcome.degradations = [d.to_json_dict() for d in degradations]
        if outcome.state == "done":
            obs.add("serve.jobs.completed", 1)
            if outcome.resumed:
                obs.add("serve.jobs.resumed", 1)
        elif outcome.state == "interrupted":
            obs.add("serve.jobs.interrupted", 1)
        else:
            obs.add("serve.jobs.failed", 1)
        return outcome
