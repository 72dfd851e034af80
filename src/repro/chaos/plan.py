"""Seeded, deterministic fault schedules for the execution substrate.

The paper derives converters that stay correct when the *modeled* medium
misbehaves (:mod:`repro.faults`); this module applies the same
philosophy to the solver's own runtime.  A :class:`ChaosPlan` describes
a hostile environment for one run — served job attempts that fail
transiently, store writes that hit ``ENOSPC`` or land torn — and the
supervised execution layers (:mod:`repro.serve.workers`,
:mod:`repro.persist.store`) consult it through test-only seams.

Two properties make the plans usable in differential tests:

* **Determinism.**  Every decision is a pure function of
  ``(seed, site, n)`` where *site* names the injection point
  (``"serve.job"``, ``"store.write"``, …) and *n* is that site's own
  occurrence counter.  The same plan therefore injects the same faults
  on every run regardless of scheduling — and entirely independent calls
  (a retry, a different job) draw independent decisions.
* **Zero hot-path cost when disabled.**  Mirroring the obs
  null-collector pattern, the seams cost one module-global read and a
  ``None`` check when no plan is active.  Activation is explicit:
  :func:`use_chaos` / :func:`set_chaos` in-process, or the
  ``REPRO_CHAOS`` environment variable (a ``key=value`` comma list, e.g.
  ``REPRO_CHAOS="seed=7,p_raise=0.05,p_write_enospc=0.2"``) for CLI and
  CI runs.

The injected faults are *transient by construction*: each consultation
advances the site counter, so a retried operation draws a fresh decision
— exactly the failure model the retry/supervision layers are built to
survive.  Outputs must remain byte-identical to fault-free runs under
any plan; ``tests/test_serve_differential.py`` (job faults) and
``tests/test_chaos_differential.py`` (store faults) pin that contract.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator

from .. import obs
from ..errors import ReproError

__all__ = [
    "ChaosPlan",
    "ChaosSpecError",
    "ChaosState",
    "active",
    "plan_from_env",
    "set_chaos",
    "use_chaos",
]

#: Sites a plan can inject at, for validation and documentation.
SITES = (
    "store.write",      # persist.store envelope writes
    "store.read",       # persist.store envelope reads
    "serve.job",        # serve-layer job execution (raise)
)


class ChaosSpecError(ReproError):
    """A ``REPRO_CHAOS`` spec (or plan) names something that does not exist.

    Raised for unknown spec keys and for unknown site names in the
    ``sites=`` filter — a typo must fail loudly, never silently disable
    the fault it meant to inject.  ``unknown`` holds the offending names,
    ``valid`` the accepted ones, so tools can render a suggestion without
    parsing the message.
    """

    def __init__(
        self, message: str, *, unknown: tuple[str, ...], valid: tuple[str, ...]
    ) -> None:
        self.unknown = tuple(unknown)
        self.valid = tuple(valid)
        super().__init__(message)


def _probability(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        raise ReproError(f"{name} must be a probability in [0, 1], got {value!r}")


def _indices(name: str, value: tuple) -> None:
    if not all(isinstance(v, int) and v >= 0 for v in value):
        raise ReproError(f"{name} must hold non-negative ints, got {value!r}")


@dataclass(frozen=True)
class ChaosPlan:
    """One run's fault schedule; immutable, picklable, fully seeded.

    Every fault has two knobs: an explicit index tuple (``raise_at=(3,)``
    fires at exactly the 4th served job — targeted tests) and a
    probability (``p_raise=0.05`` fires at ~5% of jobs, decided by the
    seeded hash of ``(seed, site, n)`` — randomized sweeps).  Either
    firing injects the fault.

    Job faults (site ``serve.job``, counted per served job; see
    :meth:`ChaosState.serve_job_fault`):

    * ``raise_at`` / ``p_raise`` — the job's first attempt raises
      :class:`OSError`, simulating a transient failure the retry policy
      absorbs.

    Store faults (sites ``store.write`` / ``store.read``, counted per
    process across all paths):

    * ``write_error_at`` / ``p_write_error`` — the write raises
      ``OSError(EIO)`` before touching the filesystem.
    * ``write_enospc_at`` / ``p_write_enospc`` — the write raises
      ``OSError(ENOSPC)``.
    * ``write_partial_at`` / ``p_write_partial`` — the write *appears*
      to succeed but leaves a torn (truncated) primary file, after
      rotating the previous good snapshot to ``.prev`` — the crash mode
      the store's fallback machinery exists for.  A run-ledger append
      has no ``.prev``: its torn line fails the attempt instead.
    * ``read_error_at`` / ``p_read_error`` — the read raises
      ``OSError(EIO)``.
    """

    seed: int = 0
    # job faults
    raise_at: tuple[int, ...] = ()
    p_raise: float = 0.0
    # store faults
    write_error_at: tuple[int, ...] = ()
    p_write_error: float = 0.0
    write_enospc_at: tuple[int, ...] = ()
    p_write_enospc: float = 0.0
    write_partial_at: tuple[int, ...] = ()
    p_write_partial: float = 0.0
    read_error_at: tuple[int, ...] = ()
    p_read_error: float = 0.0
    #: Restrict injection to these sites (:data:`SITES` names); empty
    #: means "all sites".  A name outside :data:`SITES` raises
    #: :class:`ChaosSpecError` — never a silent no-op.
    sites: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.startswith("p_"):
                _probability(f.name, value)
            elif f.name.endswith("_at"):
                if isinstance(value, list):
                    object.__setattr__(self, f.name, tuple(value))
                    value = getattr(self, f.name)
                _indices(f.name, value)
        if isinstance(self.sites, list):
            object.__setattr__(self, "sites", tuple(self.sites))
        unknown = tuple(s for s in self.sites if s not in SITES)
        if unknown:
            raise ChaosSpecError(
                f"unknown chaos site name(s) {sorted(unknown)} in sites= "
                f"(valid sites: {', '.join(SITES)})",
                unknown=unknown,
                valid=SITES,
            )

    def site_enabled(self, site: str) -> bool:
        """Whether injection may fire at *site* under this plan's filter."""
        return not self.sites or site in self.sites

    # ------------------------------------------------------------------
    # the decision function: pure in (seed, site, n)
    # ------------------------------------------------------------------
    def _fires(self, site: str, n: int, at: tuple[int, ...], p: float) -> bool:
        if n in at:
            return True
        if p <= 0.0:
            return False
        return random.Random(f"{self.seed}|{site}|{n}").random() < p

    # the job-fault hash site is named "worker.raise": renaming it would
    # change the decisions of every seeded schedule
    def raise_in_worker(self, n: int) -> bool:
        return self._fires("worker.raise", n, self.raise_at, self.p_raise)

    def store_write_fault(self, n: int) -> str | None:
        """``"partial"`` / ``"enospc"`` / ``"error"`` for write *n*, or None."""
        if self._fires("store.write.partial", n, self.write_partial_at,
                       self.p_write_partial):
            return "partial"
        if self._fires("store.write.enospc", n, self.write_enospc_at,
                       self.p_write_enospc):
            return "enospc"
        if self._fires("store.write.error", n, self.write_error_at,
                       self.p_write_error):
            return "error"
        return None

    def store_read_fault(self, n: int) -> bool:
        return self._fires("store.read", n, self.read_error_at, self.p_read_error)

    # ------------------------------------------------------------------
    # REPRO_CHAOS spec strings
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "ChaosPlan":
        """Parse a ``key=value`` comma list into a plan.

        Ints and floats parse naturally; index tuples are colon-separated
        (``raise_at=2:5``), as is the site filter
        (``sites=serve.job:store.write``).  Unknown keys and unknown
        site names are rejected with a structured
        :class:`ChaosSpecError` so a typo cannot silently disable the
        fault it meant to inject.
        """
        known = {f.name: f for f in fields(cls)}
        kwargs: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ReproError(
                    f"chaos spec entry {part!r} is not key=value "
                    f"(full spec: {spec!r})"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in known:
                raise ChaosSpecError(
                    f"unknown chaos spec key {key!r} "
                    f"(known: {', '.join(sorted(known))})",
                    unknown=(key,),
                    valid=tuple(sorted(known)),
                )
            try:
                if key == "sites":
                    kwargs[key] = tuple(
                        v for v in raw.split(":") if v != ""
                    )
                elif key.endswith("_at"):
                    kwargs[key] = tuple(
                        int(v) for v in raw.split(":") if v != ""
                    )
                elif key == "seed":
                    kwargs[key] = int(raw)
                else:
                    kwargs[key] = float(raw)
            except ValueError as exc:
                raise ReproError(
                    f"cannot parse chaos spec value {raw!r} for {key!r}: {exc}"
                ) from exc
        return cls(**kwargs)


class ChaosState:
    """A plan plus its per-site occurrence counters (one per process).

    The counters make repeated consultations of one site draw distinct
    decisions — fault *n*, then fault *n+1* — which is what turns every
    schedule into a transient-fault model.  :meth:`consult` also counts
    each injected fault into obs (``chaos.injected`` and
    ``chaos.injected.<site>``), so a chaotic run's recovery counters can
    be read next to what was thrown at it.
    """

    __slots__ = ("plan", "_counts")

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan
        self._counts: dict[str, int] = {}

    def next_index(self, site: str) -> int:
        """This site's occurrence number (0-based), advancing the counter."""
        n = self._counts.get(site, 0)
        self._counts[site] = n + 1
        return n

    def injected(self, site: str) -> None:
        """Record one injected fault at *site* in the obs counters."""
        obs.add("chaos.injected", 1)
        obs.add(f"chaos.injected.{site}", 1)

    # convenience consultations used by the seams ----------------------
    # A site outside the plan's ``sites=`` filter neither fires nor
    # advances its counter, so filtered-out seams are exact no-ops and
    # the enabled sites' schedules are unchanged by the filtering.
    def store_write_fault(self) -> str | None:
        if not self.plan.site_enabled("store.write"):
            return None
        fault = self.plan.store_write_fault(self.next_index("store.write"))
        if fault is not None:
            self.injected(f"store.write.{fault}")
        return fault

    def store_read_fault(self) -> bool:
        if not self.plan.site_enabled("store.read"):
            return False
        if self.plan.store_read_fault(self.next_index("store.read")):
            self.injected("store.read")
            return True
        return False

    def serve_job_fault(self) -> bool:
        """Whether the next served job's first attempt raises.

        The serve layer (:mod:`repro.serve.workers`) consults this once
        per job; the injected transient failure is recovered by the
        job's :class:`~repro.chaos.RetryPolicy`.
        """
        if not self.plan.site_enabled("serve.job"):
            return False
        if self.plan.raise_in_worker(self.next_index("serve.job")):
            self.injected("serve.job.raise")
            return True
        return False


# ----------------------------------------------------------------------
# activation (mirrors the obs current-collector pattern)
# ----------------------------------------------------------------------
def plan_from_env() -> ChaosPlan | None:
    """The plan described by ``REPRO_CHAOS``, or ``None`` when unset."""
    spec = os.environ.get("REPRO_CHAOS")
    if not spec:
        return None
    return ChaosPlan.from_spec(spec)


_STATE: ChaosState | None = None
_env_plan = plan_from_env()
if _env_plan is not None:
    _STATE = ChaosState(_env_plan)
del _env_plan


def active() -> ChaosState | None:
    """The chaos state faults are drawn from right now (default ``None``).

    This is the seam the runtime consults; the disabled path is one
    global read and a ``None`` check.
    """
    return _STATE


def set_chaos(plan: ChaosPlan | None) -> ChaosState | None:
    """Install *plan* (fresh counters) globally; returns the previous state."""
    global _STATE
    previous = _STATE
    _STATE = None if plan is None else ChaosState(plan)
    return previous


@contextmanager
def use_chaos(plan: ChaosPlan | None) -> Iterator[ChaosState | None]:
    """Scope a chaos plan: installed on entry, previous state restored."""
    global _STATE
    previous = set_chaos(plan)
    try:
        yield _STATE
    finally:
        _STATE = previous
