"""One scoped pause of CPython's cyclic garbage collector.

Every stage of the derivation — composition, the Fig. 5 pair-set
exploration, the Fig. 6 ``τ*`` crawl and the independent check of
``B ‖ C`` against ``A`` — builds large tables of tuples, frozensets,
dicts and ints.  None of them can hold a reference cycle: a table only
ever points at values built before it (state labels, event names, id
tuples), never back at itself or at its owner.  Reference counting frees
all of it, yet the cyclic collector still walks it, and every full
collection also walks everything else the process holds.

:func:`gc_paused` switches automatic collection off for the duration of
such a computation.  Garbage that does form a cycle inside a pause (an
exception's traceback, say) is not lost: the first collection after the
pause frees it.  ``gc.disable()`` is process-wide while the server
solves on several threads, so the pause is counted: the first entry
disables the collector, the last exit restores the setting the first
entry found, on every exit path (``BudgetExceeded`` and
``InterruptRequested`` included).  Nested and concurrent pauses are one
pause.  A pause must not span persistence writes or user callbacks; the
library holds it only around :func:`~repro.quotient.solve.solve_quotient`,
:func:`~repro.compose.binary.compose`,
:func:`~repro.satisfy.verify.product_satisfies` and each cell of
:func:`~repro.faults.resilience.evaluate_resilience`, whose writes happen
after they return.  See ``docs/performance.md`` ("The cyclic
collector").
"""

from __future__ import annotations

import gc
import threading
from types import TracebackType

__all__ = ["gc_paused"]


class _Pause:
    """The process's one pause counter (the collector is process-wide)."""

    __slots__ = ("_lock", "_depth", "_was_enabled")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._was_enabled:
                gc.enable()


_PAUSE = _Pause()


def gc_paused() -> _Pause:
    """A context manager holding the collector pause while it is entered.

    Usage::

        with gc_paused():
            ...  # builds acyclic tables; no automatic collection runs
    """
    return _PAUSE
