"""End-to-end tests for ``--ledger`` recording and the ``history`` CLI.

Two real solves land in a ledger, ``history list/show/diff/gc`` operate
on it, and — the regression-gate acceptance path — an artificially
inflated work counter makes ``history diff`` exit non-zero.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.ledger import Ledger

from .test_ledger import legacy_records, write_legacy_ledger

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
"""

STUCK_COMPONENT = """
spec stuck
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


@pytest.fixture
def ledger_path(tmp_path):
    return str(tmp_path / "ledger.json")


def _solve(dsl_file, ledger_path, *extra):
    return main(
        ["solve", dsl_file, "service", "component", "--ledger", ledger_path]
        + list(extra)
    )


class TestLedgerRecording:
    def test_solve_records_fingerprint_work_and_verdict(
        self, dsl_file, ledger_path, capsys
    ):
        assert _solve(dsl_file, ledger_path) == 0
        assert "ledger: recorded run 1" in capsys.readouterr().err
        (record,) = Ledger(ledger_path).read()
        assert record.kind == "solve"
        assert record.outcome == "complete"
        assert record.verdict == "converter"
        assert record.label == "service/component"
        assert len(record.fingerprint) == 64
        assert record.work["safety.pairs_explored"] == 3
        assert record.wall_time_s is not None
        # wall times never leak into the diffable work map
        assert all(not k.endswith(("_s", "_ms")) for k in record.work)

    def test_two_runs_share_a_fingerprint(self, dsl_file, ledger_path):
        assert _solve(dsl_file, ledger_path) == 0
        assert _solve(dsl_file, ledger_path) == 0
        first, second = Ledger(ledger_path).read()
        assert first.fingerprint == second.fingerprint
        assert first.work == second.work

    def test_partial_budget_solve_recorded(self, dsl_file, ledger_path):
        code = _solve(dsl_file, ledger_path, "--budget-pairs", "1")
        assert code == 3
        (record,) = Ledger(ledger_path).read()
        assert record.outcome == "partial-budget"
        assert record.verdict is None
        # the meter trips on the charge that exceeds the limit of 1
        assert record.work["safety.pairs"] == 2
        # the partial run is keyed like the complete one would be
        assert len(record.fingerprint) == 64

    def test_partial_with_checkpoint_records_artifact(
        self, dsl_file, ledger_path, tmp_path
    ):
        ckpt = str(tmp_path / "run.ckpt")
        code = _solve(
            dsl_file, ledger_path, "--budget-pairs", "1", "--checkpoint", ckpt
        )
        assert code == 4
        (record,) = Ledger(ledger_path).read()
        assert record.artifacts["checkpoint"] == ckpt

    def test_resilience_records_cell_counters(self, ledger_path):
        assert main(
            ["resilience", "--scenario", "colocated", "--severities", "1",
             "--faults", "loss", "--ledger", ledger_path]
        ) == 0
        (record,) = Ledger(ledger_path).read()
        assert record.kind == "resilience"
        assert record.work["cells.total"] == 1
        assert record.verdict in (
            "tolerated", "re-derivable", "safety-broken",
            "progress-broken", "no-converter",
        )

    def test_analyze_records_findings(self, dsl_file, ledger_path):
        assert main(
            ["analyze", dsl_file, "--ledger", ledger_path]
        ) == 0
        (record,) = Ledger(ledger_path).read()
        assert record.kind == "analyze"
        assert record.verdict == "clean"
        assert "findings.total" in record.work

    def test_resilience_without_baseline_converter_recorded(
        self, tmp_path, ledger_path, capsys
    ):
        path = tmp_path / "stuck.dsl"
        path.write_text(DSL + STUCK_COMPONENT)
        code = main(
            ["resilience", str(path), "service", "stuck",
             "--ledger", ledger_path]
        )
        assert code == 1
        assert "ledger: recorded run 1" in capsys.readouterr().err
        assert main(
            ["solve", str(path), "service", "stuck", "--ledger", ledger_path]
        ) == 1
        sweep, solve = Ledger(ledger_path).read()
        assert sweep.kind == "resilience"
        assert sweep.outcome == "complete"
        assert sweep.verdict == "no-converter"
        assert sweep.label == "service/stuck"
        # keyed and counted like a solve of the baseline problem
        assert sweep.fingerprint == solve.fingerprint
        assert sweep.work == solve.work
        assert sweep.work["safety.pairs_explored"] > 0

    def test_no_ledger_flag_writes_nothing(self, dsl_file, tmp_path, capsys):
        assert main(["solve", dsl_file, "service", "component"]) == 0
        assert "ledger:" not in capsys.readouterr().err
        assert not list(tmp_path.glob("ledger*"))


class TestHistoryCli:
    @pytest.fixture
    def two_runs(self, dsl_file, ledger_path, capsys):
        assert _solve(dsl_file, ledger_path) == 0
        assert _solve(dsl_file, ledger_path) == 0
        capsys.readouterr()
        return ledger_path

    def test_list(self, two_runs, capsys):
        assert main(["history", "list", "--ledger", two_runs]) == 0
        out = capsys.readouterr().out
        assert "service/component" in out
        assert out.count("solve") == 2

    def test_list_json(self, two_runs, capsys):
        assert main(
            ["history", "list", "--ledger", two_runs, "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["run_id"] for r in payload] == [1, 2]

    def test_list_kind_filter(self, two_runs, dsl_file, capsys):
        assert main(["analyze", dsl_file, "--ledger", two_runs]) == 0
        capsys.readouterr()
        assert main(
            ["history", "list", "--ledger", two_runs, "--kind", "analyze"]
        ) == 0
        out = capsys.readouterr().out
        assert "analyze" in out and "solve" not in out

    def test_show(self, two_runs, capsys):
        assert main(["history", "show", "--ledger", two_runs, "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_id"] == 2
        assert payload["work"]

    def test_schema1_ledger_is_refused_untouched(self, ledger_path, capsys):
        write_legacy_ledger(ledger_path, legacy_records())
        before = Path(ledger_path).read_bytes()
        assert main(["history", "list", "--ledger", ledger_path]) == 2
        assert "does not start with" in capsys.readouterr().err
        assert Path(ledger_path).read_bytes() == before

    def test_show_missing_run_exits_2(self, two_runs, capsys):
        assert main(["history", "show", "--ledger", two_runs, "9"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diff_defaults_to_latest_pair_and_passes(self, two_runs, capsys):
        assert main(["history", "diff", "--ledger", two_runs]) == 0
        out = capsys.readouterr().out
        assert "run 1 -> run 2" in out
        assert "no work regression" in out

    def test_diff_detects_injected_regression(self, two_runs, capsys):
        ledger = Ledger(two_runs)
        latest = ledger.get(2)
        inflated = dict(latest.work)
        inflated["safety.pairs_explored"] += 100
        ledger.append(dataclasses.replace(latest, work=inflated, run_id=0))
        assert main(["history", "diff", "--ledger", two_runs]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "regressed counter" in out

    def test_diff_threshold_forgives_small_increase(self, two_runs, capsys):
        ledger = Ledger(two_runs)
        latest = ledger.get(2)
        inflated = dict(latest.work)
        inflated["safety.pairs_explored"] += 100
        ledger.append(dataclasses.replace(latest, work=inflated, run_id=0))
        assert main(
            ["history", "diff", "--ledger", two_runs, "--threshold", "50"]
        ) == 0
        capsys.readouterr()

    def test_diff_explicit_ids_and_json(self, two_runs, capsys):
        assert main(
            ["history", "diff", "--ledger", two_runs, "1", "2",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["base_run"] == 1 and payload["new_run"] == 2
        assert payload["regressed"] is False

    def test_diff_single_run_is_an_error(self, dsl_file, ledger_path, capsys):
        assert _solve(dsl_file, ledger_path) == 0
        capsys.readouterr()
        assert main(["history", "diff", "--ledger", ledger_path]) == 2
        assert "need two to diff" in capsys.readouterr().err

    def test_diff_one_explicit_id_is_usage_error(self, two_runs, capsys):
        assert main(["history", "diff", "--ledger", two_runs, "1"]) == 2
        assert "zero or two run ids" in capsys.readouterr().err

    def test_diff_across_kinds_exits_2(self, two_runs, dsl_file, capsys):
        assert main(["analyze", dsl_file, "--ledger", two_runs]) == 0
        capsys.readouterr()
        assert main(
            ["history", "diff", "--ledger", two_runs, "2", "3"]
        ) == 2
        assert "different" in capsys.readouterr().err

    def test_gc(self, dsl_file, ledger_path, capsys):
        for _ in range(4):
            assert _solve(dsl_file, ledger_path) == 0
        capsys.readouterr()
        assert main(
            ["history", "gc", "--ledger", ledger_path, "--keep", "2"]
        ) == 0
        assert "removed 2 record(s)" in capsys.readouterr().out
        assert [r.run_id for r in Ledger(ledger_path).read()] == [3, 4]

    def test_gc_bad_keep_exits_2(self, two_runs, capsys):
        assert main(
            ["history", "gc", "--ledger", two_runs, "--keep", "0"]
        ) == 2
        capsys.readouterr()

    def test_missing_ledger_file(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")
        assert main(["history", "list", "--ledger", absent]) == 0
        assert "(ledger is empty)" in capsys.readouterr().out


class TestBenchLedger:
    def test_bench_record_and_history_diff(self, ledger_path, capsys):
        import importlib.util
        import pathlib
        import sys

        root = pathlib.Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "bench_paper", root / "benchmarks" / "paper.py"
        )
        paper = importlib.util.module_from_spec(spec)
        sys.modules.setdefault("bench_paper", paper)
        spec.loader.exec_module(paper)

        first = paper.record_bench_run(ledger_path)
        second = paper.record_bench_run(ledger_path)
        assert (first, second) == (1, 2)
        capsys.readouterr()
        assert main(["history", "diff", "--ledger", ledger_path]) == 0
        assert "no work regression" in capsys.readouterr().out
        # and the perf gate accepts the ledger as its baseline
        assert paper.perf_gate(ledger_path) == []
