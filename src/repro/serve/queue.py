"""Bounded admission queue: priorities, backpressure, load shedding.

Admission policy (deterministic, so the overload tests can pin exact
outcomes):

* Space available → **accept** (``serve.queue.accepted``).
* Queue full and the newcomer's priority is strictly higher than the
  lowest priority currently queued → **shed** that lowest-priority job
  (the youngest among ties — it has waited least) and accept the
  newcomer (``serve.queue.shed``).  The shed job is returned to the
  caller, who owes its client a structured answer.
* Queue full otherwise → **reject** with a ``retry_after_s`` hint
  derived from the queue depth (``serve.queue.rejected``) — the
  429-style backpressure path.

The queue itself is synchronous and single-lock-free (the asyncio server
only touches it from the event-loop thread); ordering is by
``(-priority, seq)``, so equal priorities are FIFO and the whole
discipline is a pure function of the submission sequence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any

from .. import obs

__all__ = ["AdmissionQueue", "Admission"]

#: Seconds of retry-after hint per queued job (deterministic, depth-based).
RETRY_AFTER_PER_JOB_S = 0.05


@dataclass(frozen=True)
class Admission:
    """The outcome of one :meth:`AdmissionQueue.offer`.

    ``decision`` is ``"accepted"`` or ``"rejected"``; ``shed`` carries
    the job evicted to make room (only ever set on an acceptance);
    ``retry_after_s`` is the backpressure hint (only on a rejection).
    """

    decision: str
    shed: Any = None
    retry_after_s: float | None = None

    @property
    def accepted(self) -> bool:
        return self.decision == "accepted"


class AdmissionQueue:
    """A bounded priority queue with deterministic shedding."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._heap: list[tuple[int, int, Any]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def depth(self) -> int:
        return len(self._heap)

    def retry_after(self) -> float:
        """The deterministic backpressure hint at the current depth."""
        return round(RETRY_AFTER_PER_JOB_S * (len(self._heap) + 1), 3)

    def admits(self, priority: int = 0) -> bool:
        """Whether :meth:`offer` would accept a job at *priority*: the
        queue has room, or holds a strictly lower priority to shed.  The
        queue is left as it is."""
        # max of (-priority, seq): the lowest priority, youngest among ties
        return len(self._heap) < self.capacity or -max(self._heap)[0] < priority

    def offer(self, job: Any, *, priority: int = 0) -> Admission:
        """Admit, shed-and-admit, or reject *job* (see module docstring)."""
        if not self.admits(priority):
            obs.add("serve.queue.rejected", 1)
            return Admission("rejected", retry_after_s=self.retry_after())
        shed = None
        if len(self._heap) >= self.capacity:
            lowest = max(self._heap)
            self._heap.remove(lowest)
            heapq.heapify(self._heap)
            shed = lowest[2]
            obs.add("serve.queue.shed", 1)
        heapq.heappush(self._heap, (-priority, self._seq, job))
        self._seq += 1
        obs.add("serve.queue.accepted", 1)
        obs.gauge("serve.queue.depth", len(self._heap))
        return Admission("accepted", shed=shed)

    def push(self, job: Any, *, priority: int = 0) -> None:
        """Enqueue unconditionally, even past capacity.

        The restart-recovery path: these jobs were already admitted by a
        previous server life, so the admission bound must not apply to
        them a second time (an accepted job is never lost).
        """
        heapq.heappush(self._heap, (-priority, self._seq, job))
        self._seq += 1
        obs.gauge("serve.queue.depth", len(self._heap))

    def pop(self) -> Any | None:
        """The highest-priority (FIFO within priority) job, or ``None``."""
        if not self._heap:
            return None
        _, _, job = heapq.heappop(self._heap)
        obs.gauge("serve.queue.depth", len(self._heap))
        return job
