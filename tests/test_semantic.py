"""Tests for the semantic analyzer (``repro.lint.semantic``, SEM2xx).

Each rule gets a purpose-built broken system that triggers exactly it;
the paper scenarios double as the clean corpus (zero errors).  Reports
are byte-identical across runs, and budget trips must carry the partial
report.
"""

import json

import pytest

from repro.errors import BudgetExceeded, LintError
from repro.io.dsl import parse_dsl
from repro.lint import (
    LintReport,
    analyze_composition,
    analyze_converter,
    analyze_problem,
    analyze_result,
    analyze_spec,
)
from repro.protocols import (
    ab_end_to_end,
    colocated_scenario,
    handshake_scenario,
    lossy_handshake_scenario,
    ns_end_to_end,
    symmetric_scenario,
    weakened_symmetric_scenario,
)
from repro.quotient.budget import Budget
from repro.quotient.solve import solve_quotient


def specs_of(text):
    return parse_dsl(text)


def codes(report):
    return {d.code for d in report.diagnostics}


SCENARIOS = [
    symmetric_scenario,
    colocated_scenario,
    weakened_symmetric_scenario,
    ns_end_to_end,
    ab_end_to_end,
    handshake_scenario,
    lossy_handshake_scenario,
]


# ----------------------------------------------------------------------
# one purpose-built broken system per rule
# ----------------------------------------------------------------------
class TestSem201DeadState:
    def test_solo_event_keeps_state_live(self):
        # 'solo' is owned by b alone, so it fires freely: state 1 is live
        specs = specs_of(
            """
spec a
    initial 0
    0 -> 0 : ping
end

spec b
    initial 0
    0 -> 0 : ping
    0 -> 1 : solo
    1 -> 1 : ping
end
"""
        )
        report = analyze_composition([specs["a"], specs["b"]])
        assert "SEM201" not in codes(report)

    def test_blocked_sync_makes_state_dead(self):
        # same shape, but 'gate' is shared (a declares it refused): the
        # sync can never happen, so b's state 1 is dead in the product
        # even though it is locally reachable
        specs = specs_of(
            """
spec a
    initial 0
    event gate
    0 -> 0 : ping
end

spec b
    initial 0
    0 -> 0 : ping
    0 -> 1 : gate
    1 -> 1 : ping
end
"""
        )
        report = analyze_composition([specs["a"], specs["b"]])
        found = [d for d in report if d.code == "SEM201"]
        assert [d.state for d in found] == [1]
        assert found[0].spec_name == "b"
        assert found[0].severity == "warning"


class TestSem202NonExecutable:
    def test_blocked_sync_transition(self):
        specs = specs_of(
            """
spec a
    initial 0
    event gate
    0 -> 0 : ping
end

spec b
    initial 0
    0 -> 0 : ping
    0 -> 1 : gate
end
"""
        )
        report = analyze_composition([specs["a"], specs["b"]])
        found = [d for d in report if d.code == "SEM202"]
        assert len(found) == 1
        assert found[0].event == "gate"
        assert found[0].witness == {"source": 0, "event": "gate", "target": 1}

    def test_transitions_from_dead_states_not_double_reported(self):
        specs = specs_of(
            """
spec a
    initial 0
    event gate
    0 -> 0 : ping
end

spec b
    initial 0
    0 -> 0 : ping
    0 -> 1 : gate
    1 -> 0 : ping
end
"""
        )
        report = analyze_composition([specs["a"], specs["b"]])
        # b's 1 -> 0 : ping starts at a SEM201-dead state: only the
        # entering transition (0 --gate--> 1) is reported by SEM202
        sem202 = [d for d in report if d.code == "SEM202"]
        assert [d.witness["source"] for d in sem202] == [0]


class TestSem203UnspecifiedReception:
    def test_forever_refused_receive(self):
        specs = specs_of(
            """
spec chan
    initial 0
    0 -> 1 : -msg
    1 -> 0 : +msg
end

spec peer
    initial 0
    event +msg
    0 -> 0 : -msg
end
"""
        )
        report = analyze_composition([specs["chan"], specs["peer"]])
        found = [d for d in report if d.code == "SEM203"]
        assert found and found[0].severity == "error"
        assert found[0].event == "+msg"
        assert found[0].witness["refusing_part"] == "peer"
        assert found[0].witness["offering_part"] == "chan"
        assert "trace" in found[0].witness

    def test_deferred_reception_is_not_flagged(self):
        # the receiver can't take +msg *now* but can after an external
        # move — the forward-cone rule must stay silent (the AB protocol
        # receiver works exactly like this)
        specs = specs_of(
            """
spec chan
    initial 0
    0 -> 1 : -msg
    1 -> 0 : +msg
end

spec peer
    initial 0
    0 -> 1 : -msg
    1 -> 2 : deliver
    2 -> 0 : +msg
end
"""
        )
        report = analyze_composition([specs["chan"], specs["peer"]])
        assert "SEM203" not in codes(report)

    def test_ab_protocol_end_to_end_has_no_false_positives(self):
        scenario = ab_end_to_end()
        report = analyze_composition(list(scenario.components))
        assert "SEM203" not in codes(report)


class TestSem204Deadlock:
    def test_reachable_deadlock_with_witness_trace(self):
        # after the 'go' sync both machines offer only an event the other
        # co-owns but never enables: the product blocks at (1, 1)
        specs = specs_of(
            """
spec a
    initial 0
    event other
    0 -> 1 : go
    1 -> 2 : stop
end

spec b
    initial 0
    event stop
    0 -> 1 : go
    1 -> 0 : other
end
"""
        )
        report = analyze_composition([specs["a"], specs["b"]])
        found = [d for d in report if d.code == "SEM204"]
        assert len(found) == 1
        assert found[0].severity == "error"
        assert found[0].witness["product_state"] == (1, 1)
        assert found[0].witness["trace"] == ["go"]

    def test_single_spec_terminal_state(self):
        specs = specs_of(
            """
spec s
    initial 0
    0 -> 1 : fin
end
"""
        )
        report = analyze_spec(specs["s"])
        assert "SEM204" in codes(report)


class TestSem205Livelock:
    def test_internal_cycle_with_no_exit(self):
        specs = specs_of(
            """
spec s
    initial 0
    0 -> 1 : start
    1 ~> 2
    2 ~> 1
end
"""
        )
        report = analyze_spec(specs["s"])
        found = [d for d in report if d.code == "SEM205"]
        assert len(found) == 1
        assert found[0].severity == "error"
        assert len(found[0].witness["scc"]) == 2

    def test_cycle_with_exit_is_not_livelock(self):
        specs = specs_of(
            """
spec s
    initial 0
    0 -> 1 : start
    1 ~> 2
    2 ~> 1
    2 -> 0 : escape
end
"""
        )
        report = analyze_spec(specs["s"])
        assert "SEM205" not in codes(report)

    def test_internal_self_loop_is_a_stutter_not_a_livelock(self):
        # the spec layer drops s ~> s (a λ self-loop is a no-op), so the
        # state is simply terminal: SEM204, not SEM205
        specs = specs_of(
            """
spec s
    initial 0
    0 -> 1 : start
    1 ~> 1
end
"""
        )
        report = analyze_spec(specs["s"])
        assert "SEM204" in codes(report)
        assert "SEM205" not in codes(report)


class TestSem206Doomed:
    def test_state_doomed_to_deadlock(self):
        specs = specs_of(
            """
spec s
    initial 0
    0 -> 1 : start
    1 ~> 2
end
"""
        )
        # 2 is the deadlock (SEM204); 1 only moves internally into it
        report = analyze_spec(specs["s"])
        sem206 = [d for d in report if d.code == "SEM206"]
        assert [d.witness["product_state"] for d in sem206] == [(1,)]
        assert sem206[0].severity == "warning"


class TestSem207ConverterCoverage:
    def test_unengaged_state_and_transition(self):
        specs = specs_of(
            """
spec comp
    initial 0
    event x
    0 -> 1 : a
    1 -> 0 : b
end

spec conv
    initial 0
    0 -> 1 : b
    1 -> 0 : a
    0 -> 2 : x
    2 -> 0 : a
end
"""
        )
        report = analyze_converter(specs["comp"], specs["conv"])
        found = [d for d in report if d.code == "SEM207"]
        assert found and all(d.severity == "info" for d in found)
        assert any(d.state == 2 and d.event is None for d in found)
        assert any(d.event == "x" for d in found)

    def test_fully_exercised_converter_is_silent(self):
        # conv moves in lockstep with comp: both syncs fire, every conv
        # state and transition is exercised
        specs = specs_of(
            """
spec comp
    initial 0
    0 -> 1 : a
    1 -> 0 : b
end

spec conv
    initial 0
    0 -> 1 : a
    1 -> 0 : b
end
"""
        )
        report = analyze_converter(specs["comp"], specs["conv"])
        assert "SEM207" not in codes(report)


class TestSem208QuotientMaximality:
    def test_progress_removed_states_reported(self):
        scenario = colocated_scenario()
        result = solve_quotient(
            scenario.service,
            scenario.composite,
            int_events=scenario.interface.int_events,
        )
        assert result.exists
        report = analyze_result(result)
        sem208 = [d for d in report if d.code == "SEM208"]
        assert sem208 and all(d.severity == "info" for d in sem208)
        # the colocated progress phase removes safety-quotient states;
        # each removal is attributed to its round
        assert any("progress round" in d.message for d in sem208)
        assert all(
            d.witness["reason"] for d in sem208
        )

    def test_no_converter_means_no_findings(self):
        scenario = lossy_handshake_scenario()
        result = solve_quotient(
            scenario.service,
            scenario.composite,
            int_events=scenario.interface.int_events,
        )
        assert not result.exists
        report = analyze_result(result)
        assert len(report) == 0


# ----------------------------------------------------------------------
# the seeded broken example (examples/broken_semantic.dsl)
# ----------------------------------------------------------------------
class TestBrokenSemanticExample:
    @pytest.fixture(scope="class")
    def report(self):
        with open("examples/broken_semantic.dsl", encoding="utf-8") as fh:
            specs = parse_dsl(fh.read())
        return analyze_composition([specs["left"], specs["right"]])

    def test_all_product_rules_fire(self, report):
        assert {
            "SEM201", "SEM202", "SEM203", "SEM204", "SEM205", "SEM206"
        } <= codes(report)

    def test_matches_golden(self, report):
        # regenerate (after a deliberate change) with:
        #   PYTHONPATH=src python - <<'EOF'
        #   from repro.io.dsl import parse_dsl
        #   from repro.lint import analyze_composition
        #   specs = parse_dsl(open("examples/broken_semantic.dsl").read())
        #   report = analyze_composition([specs["left"], specs["right"]])
        #   with open("tests/golden/analyze_broken.json", "w") as fh:
        #       fh.write(report.to_json(indent=2) + "\n")
        #   EOF
        with open("tests/golden/analyze_broken.json", encoding="utf-8") as fh:
            golden = fh.read()
        assert report.to_json(indent=2) + "\n" == golden


# ----------------------------------------------------------------------
# clean corpus: the paper scenarios report zero errors
# ----------------------------------------------------------------------
class TestScenariosAreClean:
    @pytest.mark.parametrize("build", SCENARIOS, ids=lambda b: b.__name__)
    def test_component_composition_has_no_errors(self, build):
        scenario = build()
        report = analyze_composition(list(scenario.components))
        assert report.errors == (), report.describe()

    @pytest.mark.parametrize("build", SCENARIOS, ids=lambda b: b.__name__)
    def test_service_is_clean(self, build):
        scenario = build()
        report = analyze_spec(scenario.service)
        assert report.errors == (), report.describe()

    def test_solved_problem_has_no_errors(self):
        scenario = handshake_scenario()
        report = analyze_problem(
            scenario.service,
            scenario.composite,
            scenario.interface.int_events,
        )
        assert report.errors == (), report.describe()


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminismAndKernel:
    def test_repeated_runs_byte_identical(self):
        parts = list(ab_end_to_end().components)
        first = analyze_composition(parts).to_json()
        second = analyze_composition(parts).to_json()
        assert first == second

    def test_json_rendering_is_loadable_and_sorted(self):
        with open("examples/broken_semantic.dsl", encoding="utf-8") as fh:
            specs = parse_dsl(fh.read())
        report = analyze_composition(list(specs.values()))
        payload = json.loads(report.to_json())
        assert payload["summary"]["errors"] == len(report.errors)


# ----------------------------------------------------------------------
# budget discipline
# ----------------------------------------------------------------------
class TestBudget:
    def test_budget_trip_carries_partial_report(self):
        parts = list(weakened_symmetric_scenario().components)
        with pytest.raises(BudgetExceeded) as exc_info:
            analyze_composition(parts, budget=Budget(max_pairs=3))
        partial = exc_info.value.partial_report
        assert isinstance(partial, LintReport)

    def test_untripped_budget_is_byte_identical(self):
        parts = list(ab_end_to_end().components)
        unbudgeted = analyze_composition(parts)
        budgeted = analyze_composition(parts, budget=Budget(max_pairs=10**9))
        assert unbudgeted.to_json() == budgeted.to_json()

    def test_analyze_problem_attaches_earlier_reports(self):
        scenario = handshake_scenario()
        with pytest.raises(BudgetExceeded) as exc_info:
            analyze_problem(
                scenario.service,
                scenario.composite,
                scenario.interface.int_events,
                budget=Budget(max_pairs=2),
            )
        assert isinstance(exc_info.value.partial_report, LintReport)


# ----------------------------------------------------------------------
# the solve_quotient(deep_preflight=True) hook
# ----------------------------------------------------------------------
class TestDeepPreflight:
    def test_clean_problem_solves_normally(self):
        scenario = handshake_scenario()
        result = solve_quotient(
            scenario.service,
            scenario.composite,
            int_events=scenario.interface.int_events,
            deep_preflight=True,
        )
        assert result.exists

    def test_livelocked_component_is_rejected_with_witness(self):
        specs = specs_of(
            """
spec service
    initial 0
    0 -> 1 : acc
    1 -> 0 : del
end

spec component
    initial 0
    0 -> 1 : acc
    1 -> 2 : fwd
    2 -> 0 : del
    2 ~> 3
    3 ~> 4
    4 ~> 3
end
"""
        )
        with pytest.raises(LintError) as exc_info:
            solve_quotient(
                specs["service"], specs["component"], deep_preflight=True
            )
        assert "SEM205" in str(exc_info.value)

    def test_default_solve_does_not_run_semantic_pass(self):
        # the same livelocked component passes without deep_preflight
        specs = specs_of(
            """
spec service
    initial 0
    0 -> 1 : acc
    1 -> 0 : del
end

spec component
    initial 0
    0 -> 1 : acc
    1 -> 2 : fwd
    2 -> 0 : del
    2 ~> 3
    3 ~> 4
    4 ~> 3
end
"""
        )
        result = solve_quotient(specs["service"], specs["component"])
        assert result is not None
