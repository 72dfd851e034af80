"""Satisfaction relations: safety, progress, and the combined verdict."""

from .progress import (
    ProgressResult,
    ProgressViolation,
    prog,
    satisfies_progress,
)
from .safety import (
    SafetyResult,
    satisfies_safety,
    trace_inclusion_counterexample,
)
from .verify import SatisfactionReport, product_satisfies, satisfies

__all__ = [
    "ProgressResult",
    "ProgressViolation",
    "SafetyResult",
    "SatisfactionReport",
    "prog",
    "product_satisfies",
    "satisfies",
    "satisfies_progress",
    "satisfies_safety",
    "trace_inclusion_counterexample",
]
