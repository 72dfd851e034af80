"""The quotient algorithm (Section 4) — the paper's primary contribution."""

from .budget import (
    Budget,
    BudgetExceeded,
    BudgetMeter,
    InterruptRequested,
    make_meter,
)
from .diagnose import (
    BlockingPair,
    FrontierState,
    NonexistenceDiagnosis,
    diagnose_nonexistence,
    safety_failure_diagnostic,
)
from .hmap import ext_closure, extend_pairs, initial_pairs, ok
from .progress_phase import progress_phase
from .prune import (
    drop_vacuous_states,
    merge_equivalent_states,
    minimize_converter,
    prune_converter,
)
from .safety_phase import safety_phase
from .solve import solve_quotient, verify_converter
from .types import (
    Pair,
    PairSet,
    ProgressPhaseResult,
    ProgressRound,
    QuotientProblem,
    QuotientResult,
    SafetyPhaseResult,
)

__all__ = [
    "BlockingPair",
    "Budget",
    "BudgetExceeded",
    "BudgetMeter",
    "FrontierState",
    "InterruptRequested",
    "NonexistenceDiagnosis",
    "Pair",
    "PairSet",
    "ProgressPhaseResult",
    "ProgressRound",
    "QuotientProblem",
    "QuotientResult",
    "SafetyPhaseResult",
    "drop_vacuous_states",
    "ext_closure",
    "extend_pairs",
    "initial_pairs",
    "make_meter",
    "merge_equivalent_states",
    "minimize_converter",
    "ok",
    "progress_phase",
    "prune_converter",
    "safety_phase",
    "diagnose_nonexistence",
    "safety_failure_diagnostic",
    "solve_quotient",
    "verify_converter",
]
