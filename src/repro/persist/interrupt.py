"""Cooperative interruption at deterministic work-counter boundaries.

An :class:`InterruptController` is shared by every
:class:`~repro.quotient.budget.BudgetMeter` of one run.  Each charge
calls :meth:`InterruptController.tick`; when an interrupt is pending the
tick returns its reason and the meter raises
:class:`~repro.errors.InterruptRequested` *at that charge boundary* —
after the current unit of work has been fully processed — so the captured
phase state is always consistent and resume is exact.

Three interrupt sources:

* :meth:`request` — called from a signal handler (see
  :meth:`install_sigint`) or any other thread; the run stops at the next
  boundary instead of unwinding mid-loop the way ``KeyboardInterrupt``
  would.  A request on the controller's ``parent`` counts too, whenever
  it arrives: the server's drain controller is the parent of every job's
  own controller, so one SIGTERM stops every running job.
* ``deadline_s`` — a soft wall-clock ceiling measured from construction,
  checked every :data:`DEADLINE_CHECK_INTERVAL` charges to keep the hot
  loop free of clock reads.
* ``at_charge`` — fire at the N-th charge exactly.  This is the
  deterministic test hook: because charge sites are mirrored between the
  kernel and reference paths, ``at_charge=n`` interrupts both at the same
  unit of work, which is what the differential resume tests exploit.

The controller also counts charges (``charges``), so a dry run with no
interrupt configured doubles as a work-counter probe.
"""

from __future__ import annotations

import contextlib
import signal
import time
from typing import Callable, Iterator

__all__ = ["DEADLINE_CHECK_INTERVAL", "InterruptController"]

#: Charges between deadline clock reads (same rationale as the budget
#: meter's TIME_CHECK_INTERVAL, but smaller: a deadline is usually set by
#: an operator who wants the overrun bounded tightly).
DEADLINE_CHECK_INTERVAL = 64


class InterruptController:
    """Turns external stop requests into charge-boundary interrupts."""

    __slots__ = (
        "deadline_s",
        "at_charge",
        "charges",
        "_clock",
        "_started",
        "_reason",
        "_ticks",
        "_parent",
    )

    def __init__(
        self,
        *,
        deadline_s: float | None = None,
        at_charge: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        parent: "InterruptController | None" = None,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s!r}")
        if at_charge is not None and at_charge < 1:
            raise ValueError(f"at_charge must be >= 1, got {at_charge!r}")
        self.deadline_s = deadline_s
        self.at_charge = at_charge
        self.charges = 0
        self._clock = clock
        self._started = clock()
        self._reason: str | None = None
        # one tick short of the interval, so very short runs still see
        # their deadline at the first charge
        self._ticks = DEADLINE_CHECK_INTERVAL - 1
        self._parent = parent

    # ------------------------------------------------------------------
    def request(self, reason: str = "interrupt requested") -> None:
        """Ask the run to stop at the next charge boundary (thread-safe:
        a single attribute store)."""
        self._reason = reason

    @property
    def requested(self) -> bool:
        return self._reason is not None

    def elapsed(self) -> float:
        return self._clock() - self._started

    def tick(self) -> str | None:
        """Count one charge; the pending interrupt reason, or ``None``."""
        self.charges += 1
        if self._reason is None and self._parent is not None:
            self._reason = self._parent._reason
        if self._reason is not None:
            return self._reason
        if self.at_charge is not None and self.charges >= self.at_charge:
            return f"test interrupt at charge {self.charges}"
        if self.deadline_s is not None:
            self._ticks += 1
            if self._ticks >= DEADLINE_CHECK_INTERVAL:
                self._ticks = 0
                if self.elapsed() > self.deadline_s:
                    return f"deadline of {self.deadline_s}s exceeded"
        return None

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def install_signals(
        self, signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM)
    ) -> Iterator["InterruptController"]:
        """Route *signals* to :meth:`request` while the context is active.

        Inside the context, Ctrl-C — and, by default, a polite ``kill`` /
        orchestrator ``SIGTERM`` (a draining container, a preempted batch
        slot) — stops the run *cooperatively*: the solve raises
        :class:`~repro.errors.InterruptRequested` at the next charge
        boundary with a consistent checkpoint, instead of
        ``KeyboardInterrupt`` (or summary death) tearing through the
        loop.  The previous handlers are restored on exit.  A second
        signal while one is already pending falls through to that
        signal's previous handler, so a stuck run can still be killed
        the hard way.
        """

        previous = {sig: signal.getsignal(sig) for sig in signals}

        def make_handler(sig: int):
            name = signal.Signals(sig).name

            def handler(signum: int, frame: object) -> None:
                before = previous[sig]
                if self._reason is not None and callable(before):
                    before(signum, frame)
                    return
                self.request(f"{name} received")

            return handler

        for sig in signals:
            signal.signal(sig, make_handler(sig))
        try:
            yield self
        finally:
            for sig, before in previous.items():
                signal.signal(sig, before)

    @contextlib.contextmanager
    def install_sigint(self) -> Iterator["InterruptController"]:
        """Route SIGINT only (see :meth:`install_signals`)."""
        with self.install_signals((signal.SIGINT,)):
            yield self
