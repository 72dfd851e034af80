"""End-to-end tests for the CLI observability flags.

Exercises --profile / --trace / --metrics on the instrumented commands,
solve --format json (phase counters in the machine-readable result), and
the stats block in diagnose --format json.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs import NullCollector

DSL = """
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
end

spec badcomponent
    initial 0
    0 -> 1 : acc
    1 -> 1 : fwd
    event del
end
"""


@pytest.fixture
def dsl_file(tmp_path):
    path = tmp_path / "specs.dsl"
    path.write_text(DSL)
    return str(path)


class TestProfileFlag:
    def test_solve_profile_prints_span_tree(self, dsl_file, capsys):
        assert main(["solve", dsl_file, "service", "component", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out
        assert "solve_quotient" in out
        assert "safety_phase" in out
        assert "progress_phase" in out
        assert "counters:" in out

    def test_compose_profile(self, dsl_file, capsys):
        assert main(["compose", dsl_file, "service", "component", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "compose_many" in out and "compose.calls" in out

    def test_check_profile(self, dsl_file, capsys):
        assert main(["check", dsl_file, "service", "service", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "satisfies" in out and "satisfy.checks" in out

    def test_simulate_profile(self, dsl_file, capsys):
        assert main(
            ["simulate", dsl_file, "component", "--steps", "10", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "simulate.run" in out and "sim.steps" in out

    def test_collector_restored_after_command(self, dsl_file, capsys):
        main(["solve", dsl_file, "service", "component", "--profile"])
        assert isinstance(obs.current_collector(), NullCollector)


class TestMetricsFlag:
    def test_metrics_text(self, dsl_file, capsys):
        assert main(
            ["solve", dsl_file, "service", "component", "--metrics", "text"]
        ) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "quotient.safety.pairs_explored" in out

    def test_metrics_json_parses(self, dsl_file, capsys):
        assert main(
            ["solve", dsl_file, "service", "component", "--metrics", "json"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["version"] == 1
        assert payload["counters"]["quotient.safety.pairs_explored"] > 0
        assert any(s["name"] == "solve_quotient" for s in payload["spans"])

    def test_no_flags_means_no_extra_output(self, dsl_file, capsys):
        assert main(["solve", dsl_file, "service", "component"]) == 0
        out = capsys.readouterr().out
        assert "counters:" not in out and "spans:" not in out


class TestTraceFlag:
    def test_trace_writes_valid_trace_event_file(self, dsl_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(
            ["solve", dsl_file, "service", "component", "--trace", str(trace)]
        ) == 0
        assert f"trace written to {trace}" in capsys.readouterr().err
        doc = json.loads(trace.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} <= {"M", "X", "C"}
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"solve_quotient", "safety_phase", "progress_phase"} <= names

    def test_trace_unwritable_path_is_an_error(self, dsl_file, capsys):
        code = main(
            ["solve", dsl_file, "service", "component",
             "--trace", "/nonexistent-dir/trace.json"]
        )
        assert code == 2
        assert "cannot write trace" in capsys.readouterr().err


class TestSolveJsonFormat:
    def test_exists_payload(self, dsl_file, capsys):
        assert main(
            ["solve", dsl_file, "service", "component", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["exists"] is True
        assert payload["phases"]["emptied_by"] is None
        assert payload["phases"]["safety"]["pairs_explored"] > 0
        assert payload["converter"]["states"] > 0
        assert payload["verified"] is True
        assert "stats" not in payload  # no collector unless an obs flag is set

    def test_nonexistence_payload_names_emptying_phase(self, dsl_file, capsys):
        assert main(
            ["solve", dsl_file, "service", "badcomponent", "--format", "json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exists"] is False
        assert payload["converter"] is None
        assert payload["phases"]["emptied_by"] in ("safety", "progress")
        assert payload["phases"]["safety"]["states_surviving"] >= 0

    def test_json_with_profile_includes_stats(self, dsl_file, capsys):
        assert main(
            ["solve", dsl_file, "service", "component",
             "--format", "json", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.index("\nspans:")])
        assert payload["stats"]["counters"]["quotient.safety.pairs_explored"] > 0


class TestDiagnoseJson:
    def test_diagnose_json_carries_phases_and_stats(self, tmp_path, capsys):
        path = tmp_path / "d.dsl"
        path.write_text(
            "spec svc\n initial 0\n 0 -> 1 : x\n 1 -> 0 : y\nend\n"
            "spec comp\n initial 0\n 0 -> 1 : x\n 1 -> 1 : m\n event y\nend\n"
        )
        assert main(["diagnose", str(path), "svc", "comp", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["phases"]["emptied_by"] in ("safety", "progress")
        assert payload["stats"]["version"] == 1
        assert any(
            s["name"] == "solve_quotient" for s in payload["stats"]["spans"]
        )


class TestExportsOnPartialExit:
    """--trace/--metrics must still export when a run ends partially.

    The budget/interrupt exits are exactly the runs whose telemetry is
    worth inspecting, so the exporters run on the exception paths too.
    """

    def test_analyze_budget_exit_3_still_writes_trace(
        self, dsl_file, tmp_path, capsys
    ):
        trace = tmp_path / "partial.trace"
        code = main(
            ["analyze", dsl_file, "service", "component", "--compose",
             "--budget-pairs", "1", "--trace", str(trace),
             "--metrics", "text"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert f"trace written to {trace}" in captured.err
        doc = json.loads(trace.read_text())
        phs = {e["ph"] for e in doc["traceEvents"]}
        assert "i" in phs  # the budget.exceeded instant event landed
        assert "counters:" in captured.out
        assert "guarantees: partial" in captured.out

    def test_partial_semantic_run_reports_its_product_work(
        self, dsl_file, capsys
    ):
        code = main(
            ["analyze", dsl_file, "service", "component", "--compose",
             "--budget-pairs", "1", "--metrics", "json"]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "3 state(s)" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["counters"]["lint.sem.product_states"] == 3

    def test_solve_interrupt_exit_4_still_writes_trace(
        self, dsl_file, tmp_path, capsys
    ):
        trace = tmp_path / "partial.trace"
        ckpt = tmp_path / "run.ckpt"
        code = main(
            ["solve", dsl_file, "service", "component",
             "--budget-pairs", "1", "--checkpoint", str(ckpt),
             "--trace", str(trace), "--metrics", "json"]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert f"trace written to {trace}" in captured.err
        assert ckpt.exists()
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "i"}
        assert "budget.exceeded" in names
        assert "checkpoint.write" in names


class TestExportOrderOnPartialExit:
    """Exports follow the command's own output on the partial exits too."""

    @pytest.mark.parametrize("command", ["analyze", "lint"])
    def test_metrics_follow_the_partial_report(self, command, dsl_file, capsys):
        argv = [command, dsl_file, "service", "component", "--compose",
                "--budget-pairs", "1", "--metrics", "text"]
        if command == "lint":
            argv.append("--semantic")
        assert main(argv) == 3
        out = capsys.readouterr().out
        assert out.index("guarantees: partial") < out.index("counters:")

    def test_partial_ledger_append_is_in_the_metrics(
        self, dsl_file, tmp_path, capsys
    ):
        ledger = tmp_path / "runs.json"
        code = main(
            ["analyze", dsl_file, "service", "component", "--compose",
             "--budget-pairs", "1", "--metrics", "text",
             "--ledger", str(ledger)]
        )
        assert code == 3
        counters = capsys.readouterr().out.split("counters:", 1)[1]
        assert "ledger.appends" in counters
