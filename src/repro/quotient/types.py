"""Problem and result types for the quotient algorithm (Section 4).

A quotient problem is: given a service ``A`` over ``Ext`` and a composite of
existing protocol components ``B`` over ``Int ∪ Ext`` (Int, Ext disjoint),
find ``C`` over ``Int`` such that ``B ‖ C`` satisfies ``A`` — or show none
exists.

The converter states computed by the algorithm *are* the paper's ``f``/``h``
encoding: canonical frozensets of ``(a, b)`` pairs, where ``a`` is the
service hub state ``ψ_A.(o.t)`` and ``b`` a possible current state of ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..errors import QuotientError
from ..events import Interface
from ..spec.normal_form import assert_normal_form
from ..spec.spec import Specification, State

Pair = tuple[State, State]
"""An ``(a, b)`` pair: service hub state × component state."""

PairSet = frozenset[Pair]
"""A converter state in the paper's encoding: the value ``f.c = h.r``."""


@dataclass(frozen=True)
class QuotientProblem:
    """A validated quotient-problem instance.

    Construction checks the paper's preconditions:

    * ``Σ_A = Ext`` exactly;
    * ``Σ_B = Int ∪ Ext`` exactly, with Int and Ext disjoint (enforced by
      :class:`~repro.events.Interface`);
    * ``A`` in normal form.
    """

    service: Specification
    component: Specification
    interface: Interface

    def __post_init__(self) -> None:
        if frozenset(self.service.alphabet) != frozenset(self.interface.ext_events):
            raise QuotientError(
                f"service alphabet {self.service.alphabet.sorted()} must equal "
                f"Ext {self.interface.ext_events.sorted()}"
            )
        if frozenset(self.component.alphabet) != frozenset(self.interface.full):
            raise QuotientError(
                f"component alphabet {self.component.alphabet.sorted()} must "
                f"equal Int ∪ Ext {self.interface.full.sorted()}"
            )
        assert_normal_form(self.service)

    @classmethod
    def build(
        cls,
        service: Specification,
        component: Specification,
        int_events: Iterable[str] | None = None,
    ) -> "QuotientProblem":
        """Infer the interface: ``Ext = Σ_A``, ``Int = Σ_B − Σ_A``.

        Pass *int_events* to validate the inferred Int against expectation.
        """
        ext = service.alphabet
        inferred_int = component.alphabet - ext
        if int_events is not None and frozenset(int_events) != frozenset(inferred_int):
            raise QuotientError(
                f"declared Int {sorted(int_events)} does not match inferred "
                f"Σ_B − Σ_A = {inferred_int.sorted()}"
            )
        return cls(service, component, Interface(inferred_int, ext))


@dataclass(frozen=True)
class SafetyPhaseResult:
    """Output of the Fig. 5 safety phase.

    ``spec`` is ``C0`` — the converter with the largest trace set consistent
    with safety of ``B ‖ C`` — with pair-set states; ``None`` when even the
    empty trace is unsafe (``¬ok.(h.ε)``), i.e. no quotient exists with
    respect to safety.  ``f`` maps each state to its pair set (the identity
    on our encoding, kept explicit for reporting and for the progress
    phase).  ``explored`` counts pair sets examined, including rejected
    ones.
    """

    spec: Specification | None
    f: dict[State, PairSet]
    explored: int
    rejected: int

    @property
    def exists(self) -> bool:
        return self.spec is not None


@dataclass(frozen=True)
class ProgressRound:
    """One iteration of the Fig. 6 loop: which states were marked bad."""

    round_index: int
    bad_states: frozenset[State]
    remaining: int


@dataclass(frozen=True)
class ProgressPhaseResult:
    """Output of the Fig. 6 progress phase.

    ``spec`` is the final converter (``None`` when the initial state was
    removed — no quotient exists); ``rounds`` records each iteration for
    diagnostics and for the complexity benchmarks.
    """

    spec: Specification | None
    rounds: tuple[ProgressRound, ...]

    @property
    def exists(self) -> bool:
        return self.spec is not None


@dataclass(frozen=True)
class QuotientResult:
    """Full outcome of a quotient computation.

    * ``exists`` — whether a converter exists for the inputs;
    * ``converter`` — the final converter with compact integer states
      (``None`` when no converter exists);
    * ``f`` — the paper's ``f`` function: converter state → pair set;
    * ``c0`` — the safety-phase machine (before progress pruning), also
      with integer states, or ``None`` if even safety was unsolvable;
    * ``c0_f`` — pair sets of the safety-phase machine;
    * ``safety`` / ``progress`` — per-phase records;
    * ``verification`` — the independent satisfaction report of
      ``B ‖ converter`` against the service (populated when the solver was
      asked to verify and a converter exists).

    Telemetry is not part of the result: whoever installs an
    :mod:`repro.obs` collector reads its own snapshot.
    """

    problem: QuotientProblem
    exists: bool
    converter: Specification | None
    f: dict[State, PairSet] = field(default_factory=dict)
    c0: Specification | None = None
    c0_f: dict[State, PairSet] = field(default_factory=dict)
    safety: SafetyPhaseResult | None = None
    progress: ProgressPhaseResult | None = None
    verification: object | None = None

    def __bool__(self) -> bool:
        return self.exists

    def phase_counters(self) -> dict:
        """Phase-level counters as a JSON-ready dict.

        Always available (derived from the per-phase records the solver
        keeps), independent of whether an obs collector was recording.
        ``emptied_by`` names the phase that proved nonexistence
        (``"safety"`` / ``"progress"``), or is ``None`` when a converter
        exists.
        """
        emptied_by = None
        if not self.exists:
            emptied_by = (
                "safety"
                if self.safety is None or not self.safety.exists
                else "progress"
            )
        counters: dict = {"emptied_by": emptied_by}
        if self.safety is not None:
            counters["safety"] = {
                "exists": self.safety.exists,
                "pairs_explored": self.safety.explored,
                "pairs_rejected": self.safety.rejected,
                "states_surviving": (
                    len(self.c0.states) if self.c0 is not None else 0
                ),
                "transitions": (
                    len(self.c0.external) if self.c0 is not None else 0
                ),
            }
        if self.progress is not None:
            counters["progress"] = {
                "exists": self.progress.exists,
                "rounds": [
                    {
                        "round": r.round_index,
                        "removed": len(r.bad_states),
                        "remaining": r.remaining,
                    }
                    for r in self.progress.rounds
                ],
                "states_removed": sum(
                    len(r.bad_states) for r in self.progress.rounds
                ),
            }
        return counters

    def to_json_dict(self) -> dict:
        """The machine-readable outcome (the CLI's ``solve --format json``).

        Contains the verdict, the phase counters (so an empty result says
        *which* phase emptied the machine and how many pairs survived
        safety), the converter shape, and the verification verdict.
        """
        payload: dict = {
            "version": 1,
            "service": self.problem.service.name,
            "component": self.problem.component.name,
            "int_events": self.problem.interface.int_events.sorted(),
            "exists": self.exists,
            "phases": self.phase_counters(),
        }
        if self.converter is not None:
            payload["converter"] = {
                "name": self.converter.name,
                "states": len(self.converter.states),
                "transitions": len(self.converter.external),
                "alphabet": self.converter.alphabet.sorted(),
            }
        else:
            payload["converter"] = None
        if self.verification is not None:
            payload["verified"] = bool(getattr(self.verification, "holds", False))
        return payload

    def summary(self) -> str:
        lines = [
            f"quotient of {self.problem.service.name} by "
            f"{self.problem.component.name}:"
        ]
        if self.safety is None or not self.safety.exists:
            lines.append("  no quotient exists even with respect to safety "
                         "(¬ok.(h.ε))")
            return "\n".join(lines)
        assert self.c0 is not None
        lines.append(
            f"  safety phase: {len(self.c0.states)} states, "
            f"{len(self.c0.external)} transitions "
            f"({self.safety.explored} pair sets explored, "
            f"{self.safety.rejected} rejected)"
        )
        if self.progress is not None:
            removed = sum(len(r.bad_states) for r in self.progress.rounds)
            lines.append(
                f"  progress phase: {len(self.progress.rounds)} round(s), "
                f"{removed} state(s) removed"
            )
        if self.exists:
            assert self.converter is not None
            lines.append(
                f"  converter: {len(self.converter.states)} states, "
                f"{len(self.converter.external)} transitions"
            )
        else:
            lines.append("  NO converter exists: progress requirements "
                         "emptied the safety-phase machine")
        return "\n".join(lines)
