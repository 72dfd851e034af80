"""Combined satisfaction: ``B satisfies A`` ≡ safety ∧ progress.

Every converter the quotient solver produces is re-checked here, by a
different algorithm from the solver's: the composite ``B ‖ C`` is
explored and walked against the service, where the solver saturated pair
sets.  :func:`product_satisfies` is that check.  On the compiled kernel
it walks a compiled view of the reachable product built from pair codes
(:func:`repro.compose.binary.compiled_product`), so it shares
:class:`~repro.spec.compiled.CompiledSpec` with the solver's own kernel.
The independent oracle for both is the labelled reference path,
``satisfies(compose(...))`` under :func:`~repro.spec.compiled.use_kernel`
``(False)``, which the differential tests compare against, together with
the end-to-end benchmark's expected answers, which that path computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .. import obs
from ..compose.binary import compiled_product, compose, composite_name_of
from ..events import composition_alphabet
from ..spec.compiled import compiled, kernel_enabled
from ..spec.normal_form import assert_normal_form
from ..spec.spec import Specification
from .progress import ProgressResult, progress_walk, satisfies_progress
from .safety import (
    SafetyResult,
    _check_same_interface,
    safety_walk,
    satisfies_safety,
)

if TYPE_CHECKING:
    from ..persist.interrupt import InterruptController
    from ..quotient.budget import Budget


@dataclass(frozen=True)
class SatisfactionReport:
    """Full verdict of ``impl satisfies service``.

    Progress is only meaningful once safety holds (safety satisfaction is a
    necessary condition for progress satisfaction, Section 3); when safety
    fails, ``progress`` is ``None`` and the report is negative.
    """

    impl_name: str
    service_name: str
    safety: SafetyResult
    progress: ProgressResult | None

    @property
    def holds(self) -> bool:
        return bool(self.safety) and self.progress is not None and bool(self.progress)

    def __bool__(self) -> bool:
        return self.holds

    def describe(self) -> str:
        lines = [f"{self.impl_name} satisfies {self.service_name}: "
                 + ("YES" if self.holds else "NO")]
        lines.append("  " + self.safety.describe())
        if self.progress is not None:
            lines.append("  " + self.progress.describe())
        else:
            lines.append("  progress: not evaluated (safety failed)")
        return "\n".join(lines)


def satisfies(impl: Specification, service: Specification) -> SatisfactionReport:
    """Check full satisfaction of *service* by *impl*.

    The service must be in normal form (checked by the progress phase) and
    share the implementation's interface.  Safety is checked first; progress
    only if safety holds.
    """
    return _report(
        impl.name,
        service,
        lambda: satisfies_safety(impl, service),
        lambda: satisfies_progress(impl, service),
    )


def product_satisfies(
    left: Specification,
    right: Specification,
    service: Specification,
    *,
    budget: "Budget | None" = None,
    interrupt: "InterruptController | None" = None,
) -> SatisfactionReport:
    """``satisfies(compose(left, right), service)``, same report.

    On the kernel the composite is never built as a labelled
    :class:`Specification`: the safety and progress walks run on
    :func:`~repro.compose.binary.compiled_product`, whose ids follow the
    composite's canonical order, so verdicts, counterexamples, violations
    and ``pairs_explored`` are the ones the labelled composite gives.  The
    exploration charges *budget* and *interrupt* exactly as
    :func:`~repro.compose.binary.compose` does, and the same errors
    (:class:`~repro.errors.AlphabetError`,
    :class:`~repro.errors.NormalFormError`) are raised after it.  Under
    ``use_kernel(False)`` this is literally the labelled composition and
    check.
    """
    if not kernel_enabled():
        composite = compose(left, right, budget=budget, interrupt=interrupt)
        return satisfies(composite, service)
    view = compiled_product(left, right, budget=budget, interrupt=interrupt)
    impl_name = composite_name_of(left, right)
    alphabet = composition_alphabet(left.alphabet, right.alphabet)

    def safety() -> SafetyResult:
        _check_same_interface(impl_name, alphabet, service)
        return safety_walk(view, compiled(service))

    def progress() -> ProgressResult:
        assert_normal_form(service)
        return progress_walk(view, compiled(service))

    return _report(impl_name, service, safety, progress)


def _report(
    impl_name: str,
    service: Specification,
    safety: Callable[[], SafetyResult],
    progress: Callable[[], ProgressResult],
) -> SatisfactionReport:
    """Run *safety*, then *progress* if it holds, under the check's spans."""
    with obs.span("satisfies", impl=impl_name, service=service.name) as sp:
        with obs.span("satisfy.safety"):
            safety_result = safety()
        progress_result = None
        if safety_result.holds:
            with obs.span("satisfy.progress"):
                progress_result = progress()
        report = SatisfactionReport(
            impl_name=impl_name,
            service_name=service.name,
            safety=safety_result,
            progress=progress_result,
        )
        sp.set(holds=report.holds)
        obs.add("satisfy.checks", 1)
    return report
