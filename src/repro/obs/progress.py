"""Live progress streaming: rate-limited heartbeats from the charge path.

Long quotient solves (Pachl's reachability wall) can run for minutes;
this module turns the once-per-completed-work-unit charge points of
:class:`~repro.quotient.budget.BudgetMeter` into a low-overhead progress
stream.  Like the rest of :mod:`repro.obs` it is **zero-dependency and
standalone** — the meter is duck-typed (anything with ``phase``,
``pairs``, ``states``, ``elapsed()`` and a ``budget`` carrying
``to_json_dict()``), so this module imports nothing from the rest of
:mod:`repro`.

Design
------
A thread-local *current reporter* mirrors the current-collector design of
:mod:`repro.obs.core`: when a :class:`ProgressReporter` is installed
(usually via :func:`use_reporter`), ``make_meter`` creates a meter even
for unbudgeted runs and the meter calls :meth:`ProgressReporter.tick`
once per charge.  The hot path is one integer compare per charge; the
wall clock is read only every ``probe_every`` charges, and a heartbeat is
emitted only when ``interval_s`` has passed since the last one.  The
clock is injectable so tests drive emission deterministically.

Two sinks, both optional:

* ``jsonl`` — one JSON object per line (the schema below), for machines;
* ``human`` — a one-line status per heartbeat, for a terminal (stderr).

Neither sink is ever stdout, and the reporter only *observes* the meter's
counters — solver outputs are byte-identical with progress on or off
(pinned by a differential test).

Stream schema (``v`` 1), one object per line::

    {"v": 1, "event": "phase", "phase": "safety"}
    {"v": 1, "event": "heartbeat", "phase": "safety", "pairs": 120,
     "states": 64, "frontier": 7, "elapsed_s": 1.5, "pairs_per_s": 80.0,
     "states_per_s": 42.7, "budget_fraction": 0.12}
    {"v": 1, "event": "checkpoint", "path": "run.ckpt", "phase": "safety"}
    {"v": 1, "event": "note", ...}          # caller-provided context
    {"v": 1, "event": "done", "outcome": "complete"}

``elapsed_s`` and the rates are wall-clock derived and therefore
machine-dependent: they live only in this stream (and the ledger's
JSON-only fields), never in diffed solver output.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Protocol, TextIO

__all__ = [
    "PROGRESS_STREAM_VERSION",
    "ProgressReporter",
    "current_reporter",
    "set_reporter",
    "use_reporter",
]

#: Version of the JSON-lines stream schema.
PROGRESS_STREAM_VERSION = 1

#: Charges between wall-clock probes (same idea as TIME_CHECK_INTERVAL).
DEFAULT_PROBE_EVERY = 64


class MeterLike(Protocol):  # pragma: no cover - typing only
    phase: str
    pairs: int
    states: int

    def elapsed(self) -> float: ...


class ProgressReporter:
    """Streams rate-limited heartbeats from budget-charge boundaries.

    Parameters
    ----------
    jsonl:
        Text stream receiving one JSON object per line (or ``None``).
    human:
        Text stream receiving a one-line status per heartbeat (or
        ``None``).  Both sinks may be active at once.
    interval_s:
        Minimum seconds between heartbeats (0 emits on every probe).
    probe_every:
        Charges between clock reads; bounds the hot-path cost.
    clock:
        Injectable monotonic clock for deterministic tests.
    limits:
        The run's budget limits (``Budget.to_json_dict()`` shape) used to
        derive ``budget_fraction``; ``None`` when unbudgeted.
    """

    def __init__(
        self,
        *,
        jsonl: TextIO | None = None,
        human: TextIO | None = None,
        interval_s: float = 0.5,
        probe_every: int = DEFAULT_PROBE_EVERY,
        clock: Callable[[], float] = time.monotonic,
        limits: dict | None = None,
    ) -> None:
        if probe_every < 1:
            raise ValueError(f"probe_every must be >= 1, got {probe_every!r}")
        self._jsonl = jsonl
        self._human = human
        self.interval_s = interval_s
        self.probe_every = probe_every
        self._clock = clock
        self.limits = dict(limits) if limits else None
        self.heartbeats = 0
        self._charges = 0
        self._next_probe = 1
        self._started = clock()
        self._last_emit = self._started - max(interval_s, 0.0)
        self._last_pairs = 0
        self._last_states = 0
        self._phase: str | None = None
        self._context: dict[str, Any] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # emission plumbing
    # ------------------------------------------------------------------
    def _write(self, payload: dict, human_line: str | None) -> None:
        if self._jsonl is not None:
            self._jsonl.write(
                json.dumps(payload, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
            self._jsonl.flush()
        if self._human is not None and human_line is not None:
            self._human.write(human_line + "\n")
            self._human.flush()

    def _payload(self, event: str, **fields: Any) -> dict:
        payload: dict[str, Any] = {
            "v": PROGRESS_STREAM_VERSION,
            "event": event,
        }
        payload.update(self._context)
        payload.update(fields)
        return payload

    def budget_fraction(self, pairs: int, states: int) -> float | None:
        """The most-consumed budget dimension in [0, 1], or ``None``."""
        limits = self.limits
        if not limits:
            return None
        fractions = []
        if limits.get("max_pairs"):
            fractions.append(pairs / limits["max_pairs"])
        if limits.get("max_states"):
            fractions.append(states / limits["max_states"])
        if limits.get("wall_time_s"):
            fractions.append(
                (self._clock() - self._started) / limits["wall_time_s"]
            )
        if not fractions:
            return None
        return round(min(max(fractions), 1.0), 4)

    # ------------------------------------------------------------------
    # the hooks (called from the charge path and the persist layer)
    # ------------------------------------------------------------------
    def tick(self, meter: "MeterLike", frontier: int = 0) -> None:
        """One completed unit of work; emits when the interval elapsed.

        Called by :meth:`BudgetMeter.charge` after its counters are
        updated.  Phase transitions emit immediately (not rate-limited),
        so short phases are still visible in the stream.
        """
        if meter.phase != self._phase:
            self._phase = meter.phase
            self._write(
                self._payload("phase", phase=meter.phase),
                f"[{meter.phase}] phase started",
            )
        self._charges += 1
        if self._charges < self._next_probe:
            return
        self._next_probe = self._charges + self.probe_every
        now = self._clock()
        if now - self._last_emit < self.interval_s:
            return
        self._emit_heartbeat(meter, frontier, now)

    def _emit_heartbeat(
        self, meter: "MeterLike", frontier: int, now: float
    ) -> None:
        dt = now - self._last_emit
        pairs_per_s = (meter.pairs - self._last_pairs) / dt if dt > 0 else 0.0
        states_per_s = (meter.states - self._last_states) / dt if dt > 0 else 0.0
        self._last_emit = now
        self._last_pairs = meter.pairs
        self._last_states = meter.states
        self.heartbeats += 1
        fraction = self.budget_fraction(meter.pairs, meter.states)
        elapsed = round(now - self._started, 3)
        payload = self._payload(
            "heartbeat",
            phase=meter.phase,
            pairs=meter.pairs,
            states=meter.states,
            frontier=frontier,
            elapsed_s=elapsed,
            pairs_per_s=round(pairs_per_s, 1),
            states_per_s=round(states_per_s, 1),
        )
        if fraction is not None:
            payload["budget_fraction"] = fraction
        status = (
            f"[{meter.phase}] {meter.pairs} pairs, {meter.states} states, "
            f"frontier {frontier}, {states_per_s:.0f} states/s"
        )
        if fraction is not None:
            status += f", budget {fraction:.0%}"
        self._write(payload, status)

    def checkpoint_written(self, path: str) -> None:
        """A durable checkpoint landed at *path* (never rate-limited)."""
        self._write(
            self._payload("checkpoint", path=path, phase=self._phase),
            f"[{self._phase or '-'}] checkpoint written to {path}",
        )

    def note(self, **fields: Any) -> None:
        """Merge *fields* into subsequent events and emit a note now.

        Sweeps use this to label which cell the following heartbeats
        belong to (``note(cell="loss@2", cell_index=3, cells=10)``).
        """
        self._context.update(fields)
        detail = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
        self._write(self._payload("note"), f"[note] {detail}")

    def finish(self, outcome: str) -> None:
        """Terminal event: ``complete`` / ``partial-budget`` / ....

        Idempotent: only the first call emits, so a command can report a
        specific outcome on an early-exit path while its surrounding
        scope still calls ``finish("complete")`` unconditionally.
        """
        if self._finished:
            return
        self._finished = True
        elapsed = round(self._clock() - self._started, 3)
        self._write(
            self._payload("done", outcome=outcome, elapsed_s=elapsed),
            f"[done] {outcome} after {elapsed}s "
            f"({self.heartbeats} heartbeat(s))",
        )


# ----------------------------------------------------------------------
# the current reporter (mirrors core's current collector, but per-thread)
# ----------------------------------------------------------------------
# Thread-local rather than module-global: the serve layer
# (:mod:`repro.serve`) runs one job per worker thread, each with its own
# reporter streaming into that job's status buffer; a global would
# cross-wire heartbeats between concurrent jobs.  Single-threaded callers
# (the CLI, the test suite) see one reporter for the whole run.
_reporters = threading.local()


def current_reporter() -> ProgressReporter | None:
    """The reporter receiving progress on this thread (default ``None``)."""
    return getattr(_reporters, "value", None)


def set_reporter(reporter: ProgressReporter | None) -> ProgressReporter | None:
    """Install *reporter* for this thread; returns the previous one."""
    previous = getattr(_reporters, "value", None)
    _reporters.value = reporter
    return previous


@contextmanager
def use_reporter(reporter: ProgressReporter) -> Iterator[ProgressReporter]:
    """Scope a progress reporter: installed on entry, restored on exit."""
    previous = set_reporter(reporter)
    try:
        yield reporter
    finally:
        set_reporter(previous)
