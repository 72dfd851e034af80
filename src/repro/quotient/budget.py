"""Resource budgets for bounded solving (graceful degradation).

Fault-inflated composites can blow the quotient's pair-set lattice up by
orders of magnitude (see :mod:`repro.faults`): a severity-3 reordering
channel multiplies the product state space before the safety phase even
starts.  Rather than letting such a solve run away with unbounded memory
and time, callers pass a :class:`Budget` and the exploration loops charge
every unit of work against it.  When a limit trips, the loop raises a
structured :class:`~repro.errors.BudgetExceeded` carrying the partial
phase statistics and the frontier size at the moment of interruption —
the solve *degrades* into a report instead of degrading the host.

Design constraints:

* **Zero overhead when unbudgeted.**  Every budgeted loop takes
  ``budget: Budget | None = None`` and only instantiates a meter when a
  budget is present; the ``None`` path adds a single falsy check per call.
* **Determinism for count limits.**  ``max_pairs`` and ``max_states``
  trip at exactly the same unit of work on the kernel and reference
  paths (the two explorations mirror each other step for step), so a
  count-bounded run is reproducible and differential-testable.
  ``wall_time_s`` is inherently machine-dependent; it is checked every
  :data:`TIME_CHECK_INTERVAL` charges to keep the hot loop cheap.
* **Byte-identical results under the limit.**  A budget that is never
  hit must not change any output: the meter only observes counts that
  the loops already maintain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .. import obs
from ..errors import BudgetExceeded, InterruptRequested
from ..obs.progress import current_reporter

if TYPE_CHECKING:
    # type-only: the controller is duck-typed at runtime (``tick()``), so
    # the budget module never imports repro.persist
    from ..obs.progress import ProgressReporter
    from ..persist.interrupt import InterruptController

__all__ = [
    "Budget",
    "BudgetExceeded",
    "BudgetMeter",
    "InterruptRequested",
    "TIME_CHECK_INTERVAL",
    "make_meter",
]

#: How many count charges pass between wall-clock checks.  Chosen so the
#: ``time.monotonic`` call disappears from profiles while a runaway solve
#: is still interrupted within a few hundred microseconds of its deadline.
TIME_CHECK_INTERVAL = 256


@dataclass(frozen=True)
class Budget:
    """Resource limits for one solve / composition.

    ``max_pairs``
        Ceiling on pair(-set) evaluations in the quotient phases: safety
        counts candidate pair sets examined (the phase's ``explored``
        counter), progress counts ``(b, c)`` product pairs checked across
        rounds.
    ``max_states``
        Ceiling on distinct states materialized by an exploration: product
        states in ``compose``, surviving pair-set states in the safety
        phase.
    ``wall_time_s``
        Soft wall-clock ceiling in seconds, measured from the first charge
        against the meter.  Checked periodically (not per unit of work),
        so overruns are bounded by one check interval.

    ``None`` disables a limit; ``Budget()`` is the "unlimited" budget and
    behaves identically to passing no budget at all.
    """

    max_pairs: int | None = None
    max_states: int | None = None
    wall_time_s: float | None = None

    def __post_init__(self) -> None:
        for field_name in ("max_pairs", "max_states"):
            value = getattr(self, field_name)
            if value is not None and value < 1:
                raise ValueError(f"{field_name} must be >= 1, got {value!r}")
        if self.wall_time_s is not None and self.wall_time_s <= 0:
            raise ValueError(
                f"wall_time_s must be positive, got {self.wall_time_s!r}"
            )

    @property
    def unlimited(self) -> bool:
        return (
            self.max_pairs is None
            and self.max_states is None
            and self.wall_time_s is None
        )

    def meter(self, phase: str) -> "BudgetMeter":
        """A fresh meter charging against this budget for *phase*."""
        return BudgetMeter(self, phase)

    def to_json_dict(self) -> dict:
        return {
            "max_pairs": self.max_pairs,
            "max_states": self.max_states,
            "wall_time_s": self.wall_time_s,
        }


class BudgetMeter:
    """Charges units of work against a :class:`Budget` for one phase.

    A meter is cheap enough to sit inside the kernel's hot loops: the
    count checks are two comparisons, and the wall-clock read happens
    once per :data:`TIME_CHECK_INTERVAL` charges.  ``charge`` raises
    :class:`BudgetExceeded` with the partial statistics supplied by the
    caller at the moment the limit trips.

    *interrupt* (an :class:`~repro.persist.InterruptController`, or
    anything with its ``tick()`` protocol) hooks cooperative interruption
    into the same boundaries: every charge ticks the controller, and a
    pending SIGINT / deadline / deterministic test point raises
    :class:`~repro.errors.InterruptRequested`.  *progress* (a
    :class:`~repro.obs.progress.ProgressReporter`, duck-typed via
    ``tick(meter, frontier)``) receives one call per charge so live
    heartbeats stream from the same work-unit boundaries; the reporter
    only observes the meter's counters, so outputs stay byte-identical
    with progress on or off.  *clock* is injectable so wall-time
    behaviour is testable without real elapsed time.
    """

    __slots__ = (
        "budget",
        "phase",
        "pairs",
        "states",
        "interrupt",
        "progress",
        "_clock",
        "_started",
        "_ticks",
    )

    def __init__(
        self,
        budget: Budget,
        phase: str,
        *,
        interrupt: "InterruptController | None" = None,
        progress: "ProgressReporter | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.budget = budget
        self.phase = phase
        self.pairs = 0
        self.states = 0
        self.interrupt = interrupt
        self.progress = progress
        self._clock = clock
        self._started = clock()
        # start one tick short of the interval so the very first charge
        # performs a wall-clock check: short phases (fewer charges than
        # one interval) would otherwise never see their deadline at all
        self._ticks = TIME_CHECK_INTERVAL - 1

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return self._clock() - self._started

    def _partial(self, frontier: int) -> dict:
        return {
            "pairs": self.pairs,
            "states": self.states,
            "elapsed_s": round(self.elapsed(), 6),
            "frontier": frontier,
        }

    def _exceed(self, limit: str, *, frontier: int = 0) -> BudgetExceeded:
        stats = self._partial(frontier)
        limits = self.budget.to_json_dict()
        return BudgetExceeded(
            f"budget exceeded in {self.phase} phase: {limit} limit "
            f"({limits[limit]!r}) hit after {self.pairs} pair(s), "
            f"{self.states} state(s), {stats['elapsed_s']}s "
            f"(frontier {frontier})",
            phase=self.phase,
            limit=limit,
            partial=stats,
        )

    def _interrupted(self, reason: str, *, frontier: int) -> InterruptRequested:
        return InterruptRequested(
            f"interrupted in {self.phase} phase: {reason} "
            f"(after {self.pairs} pair(s), {self.states} state(s))",
            phase=self.phase,
            reason=reason,
            partial=self._partial(frontier),
        )

    def charge(
        self,
        *,
        pairs: int = 0,
        states: int = 0,
        frontier: int = 0,
        snapshot: Callable[[], dict] | None = None,
    ) -> None:
        """Record work; raise on a tripped limit or pending interrupt.

        *frontier* is informational: the size of the worklist at the
        charge site, reported in the error's partial stats so callers can
        see how much exploration was still pending.  *snapshot* is a
        zero-argument callable capturing the phase's loop state; it is
        invoked **only** when an exception is about to be raised, and its
        result is attached as ``phase_state`` so the solver can build an
        exact-resume checkpoint.  Charge sites place their charges *after*
        fully processing one unit of work, so the snapshot is always
        consistent.
        """
        budget = self.budget
        self.pairs += pairs
        self.states += states
        if self.progress is not None:
            self.progress.tick(self, frontier)
        err: BudgetExceeded | InterruptRequested | None = None
        if self.interrupt is not None:
            reason = self.interrupt.tick()
            if reason is not None:
                err = self._interrupted(reason, frontier=frontier)
        if err is None:
            if budget.max_pairs is not None and self.pairs > budget.max_pairs:
                err = self._exceed("max_pairs", frontier=frontier)
            elif (
                budget.max_states is not None
                and self.states > budget.max_states
            ):
                err = self._exceed("max_states", frontier=frontier)
            elif budget.wall_time_s is not None:
                self._ticks += 1
                if self._ticks >= TIME_CHECK_INTERVAL:
                    self._ticks = 0
                    if self.elapsed() > budget.wall_time_s:
                        err = self._exceed("wall_time_s", frontier=frontier)
        if err is not None:
            if snapshot is not None:
                err.phase_state = snapshot()
            if isinstance(err, InterruptRequested):
                obs.event("interrupt", phase=self.phase, reason=err.reason)
            else:
                obs.event("budget.exceeded", phase=self.phase, limit=err.limit)
            raise err


def make_meter(
    budget: Budget | None,
    phase: str,
    interrupt: "InterruptController | None" = None,
) -> BudgetMeter | None:
    """A meter for *phase* when anything needs charging, else ``None``.

    The phases call this instead of constructing meters directly: a
    meter is needed when a non-trivial budget is present, an interrupt
    controller is attached (interruption works without any budget), *or*
    a progress reporter is installed (heartbeats stream from the charge
    boundaries even on unbudgeted runs).  The ``None`` fast path keeps
    plain runs at a single falsy check per charge site.
    """
    progress = current_reporter()
    if (
        (budget is None or budget.unlimited)
        and interrupt is None
        and progress is None
    ):
        return None
    return BudgetMeter(budget if budget is not None else Budget(), phase,
                       interrupt=interrupt, progress=progress)
