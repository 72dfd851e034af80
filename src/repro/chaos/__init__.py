"""repro.chaos — an injectable fault plane for the execution substrate.

Where :mod:`repro.faults` models a hostile *medium* (the channels the
derived converter must survive), this package models a hostile
*machine*: served jobs that fail transiently and disks that fail or run
out of space mid-checkpoint.  The supervised runtime —
:class:`~repro.serve.workers.WorkerSupervisor`'s job supervision and
:mod:`repro.persist.store`'s retrying I/O — must keep every output
byte-identical to a fault-free run under any :class:`ChaosPlan`;
``tests/test_serve_differential.py`` and
``tests/test_chaos_differential.py`` pin that contract.

Nothing here runs unless activated (:func:`use_chaos`, ``REPRO_CHAOS``);
the disabled seams cost one global read.  See
``docs/robustness.md#runtime-chaos--supervision``.
"""

from .plan import (
    SITES,
    ChaosPlan,
    ChaosSpecError,
    ChaosState,
    active,
    plan_from_env,
    set_chaos,
    use_chaos,
)
from .retry import DEFAULT_STORE_RETRY, RetryPolicy

__all__ = [
    "SITES",
    "ChaosPlan",
    "ChaosSpecError",
    "ChaosState",
    "DEFAULT_STORE_RETRY",
    "RetryPolicy",
    "active",
    "plan_from_env",
    "set_chaos",
    "use_chaos",
]
