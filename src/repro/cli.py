"""Command-line interface: ``repro-converter``.

Subcommands
-----------
``show``
    Parse a spec file (DSL or JSON) and render its machines.
``lint``
    Statically analyze specs, compositions, or a quotient problem without
    solving; emit structured diagnostics (text, JSON, or SARIF).  With
    ``--semantic`` the reachability-based ``SEM2xx`` pass runs too.
``analyze``
    The semantic analyzer on its own: build the reachable product graph
    of specs, a composition, a quotient problem, or a built-in scenario
    (optionally under a fault model) and report the ``SEM2xx`` findings.
``compose``
    Compose named specs from a file and render/export the composite.
``check``
    Check one spec satisfies another (safety + progress).
``solve``
    Run the quotient algorithm: derive a converter or prove none exists.
``resilience``
    Sweep a grid of fault models over a conversion system and report,
    per cell, whether the derived converter survives (see
    ``docs/robustness.md``).
``history``
    Inspect the run ledger written by ``--ledger``: list/show recorded
    runs, diff the deterministic work counters of two runs of the same
    problem (non-zero exit on regression), and garbage-collect old
    records.  Server-executed jobs appear with ``--kind served``.
``serve``
    Run the derivation server: solve/resilience/analyze jobs over
    HTTP/JSON with content-addressed dedup and crash recovery (see
    ``docs/serving.md``).
``submit``
    Submit a job to a running server (optionally ``--wait`` for the
    result; a cached fingerprint returns instantly).
``status``
    Show a server job's record, progress tail, and result.
``demo``
    Run the paper's Section 5 scenarios end to end.

Files ending in ``.json`` are read with the JSON codec; anything else is
parsed as the spec DSL (see :mod:`repro.io.dsl`).

Exit codes are uniform across subcommands (see ``docs/CLI.md``): 0
success, 1 negative verdict, 2 usage/input error, 3 budget exceeded
without a checkpoint, 4 interrupted or budget exceeded *with* a
checkpoint written (resume with ``--resume``), 5 backpressure (the
server's admission queue is full; honor ``retry_after_s``).  ``lint`` and ``analyze``
exit 0 when no finding reaches the ``--fail-on`` threshold (warnings-only
runs pass by default) and 2 when one does.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import sys
import time
from typing import Callable, Iterator

from . import obs
from .analysis.explain import explain_converter
from .errors import BudgetExceeded, InterruptRequested, ReproError
from .io.dot import to_dot
from .io.dsl import parse_dsl
from .io.json_codec import load as load_json
from .io.render import render_spec
from .quotient.solve import solve_quotient
from .satisfy.verify import satisfies
from .spec.spec import Specification


def _load_specs(path: str) -> dict[str, Specification]:
    try:
        if path.endswith(".json"):
            spec = load_json(path)
            return {spec.name: spec}
        with open(path, "r", encoding="utf-8") as fh:
            return parse_dsl(fh.read())
    except OSError as exc:
        raise ReproError(f"cannot read {path!r}: {exc}") from exc


def _pick(specs: dict[str, Specification], name: str) -> Specification:
    if name not in specs:
        raise ReproError(
            f"no spec named {name!r} in file (available: {sorted(specs)})"
        )
    return specs[name]


# ----------------------------------------------------------------------
# flag parsers and the flags several subcommands share
# ----------------------------------------------------------------------
def _names(text: str) -> list[str] | None:
    """A comma-separated flag value (``--int``, ``--select``, ``--ignore``)."""
    return text.split(",") if text else None


def _target(text: str) -> int | str:
    """``--target``: a component index when numeric, else a component name."""
    try:
        return int(text)
    except ValueError:
        return text


def _severities(args: argparse.Namespace) -> tuple[int, ...]:
    try:
        levels = tuple(
            int(s) for s in args.severities.split(",") if s.strip()
        )
    except ValueError as exc:
        raise ReproError(f"bad --severities: {exc}") from exc
    if not levels:
        raise ReproError("--severities must name at least one level")
    return levels


def _add_int_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--int", dest="int_events", type=_names, default=None,
        metavar="EV,EV,...",
        help="declared Int events (the converter-facing interface)",
    )


def _add_report_arguments(parser: argparse.ArgumentParser) -> None:
    """The diagnostics output flags of ``lint`` and ``analyze``."""
    parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--select", type=_names, default=None, metavar="CODES",
        help="comma-separated rule codes/prefixes to run (e.g. SPEC,SEM204)",
    )
    parser.add_argument(
        "--ignore", type=_names, default=None, metavar="CODES",
        help="comma-separated rule codes/prefixes to skip",
    )
    parser.add_argument(
        "--fail-on", choices=["error", "warning"], default="error",
        help="lowest severity that makes the exit code 2 (default error: "
        "warnings-only runs exit 0)",
    )


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """The fault-sweep flags of ``resilience`` and ``submit``."""
    parser.add_argument(
        "--target", type=_target, default=None, metavar="NAME|IDX",
        help="component to fault, by name or index (default: the first "
        "channel-shaped one)",
    )
    parser.add_argument(
        "--severities", default="1,2", metavar="N,N,...",
        help="severity levels to sweep (default 1,2)",
    )
    parser.add_argument(
        "--timeout", default="timeout", metavar="EVENT",
        help="timeout event the loss model adds (default 'timeout')",
    )


def _add_server_arguments(parser: argparse.ArgumentParser) -> None:
    """Where ``submit``/``status`` reach the server, and how long they wait."""
    group = parser.add_argument_group("server")
    group.add_argument("--host", default="127.0.0.1")
    group.add_argument("--port", type=int, required=True)
    group.add_argument(
        "--timeout-s", type=float, default=120.0, metavar="SECONDS",
        help="ceiling for --wait (default 120)",
    )


# ----------------------------------------------------------------------
# observability flags (solve / resilience / analyze / lint / compose /
# check / simulate; see docs/observability.md)
# ----------------------------------------------------------------------
def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--profile", action="store_true",
        help="after the command, print the span tree (per-phase wall "
        "times) and all counters/gauges",
    )
    group.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome trace_event file loadable in "
        "chrome://tracing or https://ui.perfetto.dev",
    )
    group.add_argument(
        "--metrics", choices=["text", "json"], default=None,
        help="after the command, print the metrics snapshot (text: "
        "counters/gauges; json: full snapshot including spans)",
    )


# ----------------------------------------------------------------------
# budget flags (solve / resilience / analyze / lint; docs/robustness.md)
# ----------------------------------------------------------------------
def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("budget")
    group.add_argument(
        "--budget-pairs", type=int, default=None, metavar="N",
        help="abort any single phase after exploring N pairs "
        "(exit code 3, with partial statistics)",
    )
    group.add_argument(
        "--budget-states", type=int, default=None, metavar="N",
        help="abort any single phase after materializing N states",
    )
    group.add_argument(
        "--budget-time", type=float, default=None, metavar="SECONDS",
        help="abort any single phase after SECONDS of wall time "
        "(checked periodically, so slightly approximate)",
    )


def _budget_from_args(args: argparse.Namespace):
    from .quotient.budget import Budget

    if (
        args.budget_pairs is None
        and args.budget_states is None
        and args.budget_time is None
    ):
        return None
    return Budget(
        max_pairs=args.budget_pairs,
        max_states=args.budget_states,
        wall_time_s=args.budget_time,
    )


# ----------------------------------------------------------------------
# fault injection (solve / resilience / analyze; see docs/robustness.md)
# ----------------------------------------------------------------------
def _add_chaos_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("fault injection")
    group.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="inject a seeded fault schedule into this run's own runtime "
        "(key=value comma list, e.g. 'seed=7,p_write_enospc=0.2'; default: "
        "REPRO_CHAOS); the supervised runtime must keep the output "
        "byte-identical — see docs/robustness.md",
    )


# ----------------------------------------------------------------------
# checkpoint / resume / deadline flags (solve, resilience; docs/CLI.md)
# ----------------------------------------------------------------------
def _add_persist_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("checkpointing")
    group.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="write a durable, resumable snapshot here when the run is "
        "interrupted or runs out of budget (exit code 4); resilience "
        "sweeps also snapshot after every completed cell",
    )
    group.add_argument(
        "--resume", action="store_true",
        help="load --checkpoint FILE and continue exactly where the "
        "interrupted run stopped (a checkpoint for a different problem "
        "is rejected by lint rule QUOT104)",
    )
    group.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="stop cooperatively after SECONDS of wall time with a "
        "consistent checkpoint, unlike the hard per-phase --budget-time",
    )


# ----------------------------------------------------------------------
# flight recorder: live progress streaming + the run ledger (solve /
# resilience / analyze; see docs/observability.md)
# ----------------------------------------------------------------------
def _add_recorder_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("flight recorder")
    group.add_argument(
        "--progress", action="store_true",
        help="stream a one-line live status to stderr while phases run "
        "(heartbeats from the budget-charge boundaries; solver output is "
        "byte-identical with or without this flag)",
    )
    group.add_argument(
        "--progress-json", metavar="FILE", default=None,
        help="stream heartbeat events as JSON lines to FILE ('-' for "
        "stderr); schema in docs/observability.md",
    )
    group.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="append one run record (problem fingerprint, deterministic "
        "work counters, verdict, outcome) to this ledger file; inspect "
        "and regression-diff with the 'history' subcommand",
    )


# ----------------------------------------------------------------------
# the run scaffold (every subcommand that derives, checks or analyzes)
# ----------------------------------------------------------------------
def _partial_outcome(exc: BudgetExceeded | InterruptRequested) -> str:
    return (
        "partial-interrupt"
        if isinstance(exc, InterruptRequested)
        else "partial-budget"
    )


class _Run:
    """The scaffolding one subcommand's body runs inside.

    :meth:`execute` runs the body under a recording collector when an
    observability flag is set, renders a budget trip or interrupt that
    ends the body, and exports the telemetry last: after the command's
    own output on every exit, partial ones included.  The body wraps its
    work in :meth:`scope` (and, where the run can stop gracefully,
    :meth:`interruptible`) and reports how it ended with :meth:`record`;
    ``collector`` is the collector an observability flag installed
    (``None`` without one).

    ``fingerprint`` and ``label`` identify the run in the ledger; a
    partial run files its counters under ``stage`` (default: the phase
    that tripped).  With *report* (``lint``, ``analyze``) a partial exit
    prints the findings collected so far; otherwise (``solve``,
    ``resilience``) it prints the anytime summary and writes the
    ``--checkpoint``.
    """

    def __init__(
        self, args: argparse.Namespace, label: str = "", *, report: bool = False
    ) -> None:
        self.args = args
        self.label = label
        self.report = report
        self.fingerprint = ""
        self.stage: str | None = None
        self.budget = (
            _budget_from_args(args) if hasattr(args, "budget_pairs") else None
        )
        self.reporter: obs.ProgressReporter | None = None
        self.interrupt = None
        self.started = time.monotonic()
        self.collector: obs.MetricsCollector | None = None

    def execute(self, body: Callable[[], int]) -> int:
        args = self.args
        if args.profile or args.trace or args.metrics:
            self.collector = obs.MetricsCollector()
        collector = self.collector
        try:
            with (
                obs.use_collector(collector)
                if collector is not None
                else contextlib.nullcontext()
            ):
                if getattr(args, "resume", False) and args.checkpoint is None:
                    raise ReproError("--resume requires --checkpoint FILE")
                try:
                    return body()
                except (BudgetExceeded, InterruptRequested) as exc:
                    return self._partial_exit(exc)
        finally:
            if collector is not None:
                self._export(
                    collector.snapshot(),
                    in_flight=sys.exc_info()[0] is not None,
                )

    def _export(self, snapshot, *, in_flight: bool) -> None:
        args = self.args
        if args.trace:
            try:
                obs.write_chrome_trace(snapshot, args.trace)
            except OSError as exc:
                message = f"cannot write trace {args.trace!r}: {exc}"
                if not in_flight:
                    raise ReproError(message) from exc
                # don't mask the error already on its way out; the trace
                # is best-effort here
                print(f"warning: {message}", file=sys.stderr)
            else:
                print(f"trace written to {args.trace}", file=sys.stderr)
        if args.profile:
            print()
            print(snapshot.render_text())
        if args.metrics == "text":
            print()
            print(snapshot.render_metrics_text())
        elif args.metrics == "json":
            print(snapshot.to_json())

    @contextlib.contextmanager
    def scope(self) -> Iterator[None]:
        """Install the ``--chaos`` plan and the progress reporter.

        The reporter's terminal ``done`` event says ``complete`` when the
        scope exits cleanly and ``partial-budget``/``partial-interrupt``
        when a trip propagates out, unless :meth:`record` reported first.
        """
        args = self.args
        with contextlib.ExitStack() as stack:
            if args.chaos is not None:
                from . import chaos

                stack.enter_context(
                    chaos.use_chaos(chaos.ChaosPlan.from_spec(args.chaos))
                )
            if args.progress or args.progress_json is not None:
                jsonl = sys.stderr if args.progress_json == "-" else None
                if args.progress_json not in (None, "-"):
                    try:
                        jsonl = stack.enter_context(
                            open(args.progress_json, "w", encoding="utf-8")
                        )
                    except OSError as exc:
                        raise ReproError(
                            "cannot open progress stream "
                            f"{args.progress_json!r}: {exc}"
                        ) from exc
                self.reporter = obs.ProgressReporter(
                    jsonl=jsonl,
                    human=sys.stderr if args.progress else None,
                    limits=(
                        self.budget.to_json_dict()
                        if self.budget is not None
                        else None
                    ),
                )
                stack.enter_context(obs.use_reporter(self.reporter))
            try:
                yield
            except (BudgetExceeded, InterruptRequested) as exc:
                self._finish(_partial_outcome(exc))
                raise
            self._finish("complete")

    def _finish(self, outcome: str) -> None:
        if self.reporter is not None:
            self.reporter.finish(outcome)

    def interruptible(self):
        """Install an interrupt controller when ``--deadline`` or
        ``--checkpoint`` is given, else nothing.

        A checkpoint path alone is enough: Ctrl-C then stops at a charge
        boundary and the snapshot is written.  SIGTERM gets the same
        treatment, so an orchestrator draining the run still leaves a
        consistent checkpoint.
        """
        args = self.args
        if args.deadline is None and args.checkpoint is None:
            return contextlib.nullcontext()
        from .persist import InterruptController

        self.interrupt = InterruptController(deadline_s=args.deadline)
        return self.interrupt.install_signals()

    def record(
        self,
        *,
        outcome: str = "complete",
        verdict: str | None = None,
        counters: dict | None = None,
        checkpoint: str | None = None,
    ) -> None:
        """Report how the run ended: to the progress stream, unless its
        scope already did, and as one ``--ledger`` record.

        *counters* is the run's nested deterministic counter structure;
        it is flattened into the diffable ``work`` map (wall times
        dropped) and also stored verbatim as ``phases``.
        """
        self._finish(outcome)
        path = getattr(self.args, "ledger", None)
        if path is None:
            return
        from .obs.ledger import append_run, flatten_work

        artifacts = {"checkpoint": checkpoint, "trace": self.args.trace}
        record = append_run(
            path,
            kind=self.args.command,
            fingerprint=self.fingerprint,
            label=self.label,
            outcome=outcome,
            verdict=verdict,
            work=flatten_work(counters or {}),
            phases=counters or {},
            wall_time_s=round(time.monotonic() - self.started, 6),
            artifacts={k: v for k, v in artifacts.items() if v},
        )
        print(f"ledger: recorded run {record.run_id} in {path}", file=sys.stderr)

    def _partial_exit(self, exc: BudgetExceeded | InterruptRequested) -> int:
        """Report and record a run that a budget trip or interrupt ended.

        ``lint``/``analyze`` print the findings of the sub-analyses that
        completed; ``solve``/``resilience`` the anytime summary, writing
        the checkpoint to ``--checkpoint``.  The output always carries
        the explicit ``guarantees: partial`` marker.  Exit code is 4 when
        a checkpoint was written (or the stop was a cooperative
        interrupt), 3 for a plain budget trip.
        """
        from .lint import LintReport
        from .persist import anytime_summary, render_anytime_text, save_checkpoint

        args = self.args
        interrupted = isinstance(exc, InterruptRequested)
        partial = getattr(exc, "partial_report", None)
        if self.report and partial is None:
            partial = LintReport.collect((), target="(semantic, partial)")
        ckpt = None if self.report else getattr(exc, "checkpoint", None)
        written = None
        if ckpt is not None and args.checkpoint is not None:
            written = save_checkpoint(args.checkpoint, ckpt)
        if args.format == "json":
            if self.report:
                payload = partial.to_json_dict()
                payload["interrupted"] = exc.to_json_dict()
            else:
                payload = exc.to_json_dict()
                if ckpt is not None:
                    payload["anytime"] = anytime_summary(ckpt)
                payload["checkpoint"] = written
            payload["guarantees"] = "partial"
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif args.format == "sarif":
            print(partial.to_sarif())
            print(f"guarantees: partial ({exc})", file=sys.stderr)
        else:
            if self.report:
                print(partial.describe())
            print(f"{'interrupted' if interrupted else 'budget exceeded'}: {exc}")
            if ckpt is not None:
                print(render_anytime_text(anytime_summary(ckpt)))
            else:
                print("guarantees: partial")
            if written is not None:
                print(f"checkpoint written to {written} (continue with --resume)")
        if not self.fingerprint and ckpt is not None:
            self.fingerprint = ckpt.fingerprint
        self.record(
            outcome=_partial_outcome(exc),
            counters={self.stage or exc.phase: exc.partial},
            checkpoint=written,
        )
        return 4 if written is not None or interrupted else 3


def _identify(run: _Run, specs, label: str) -> None:
    """Key an ``analyze`` run in the ledger: its input specs, order-free."""
    run.label = label
    if not run.args.ledger:
        return
    from .persist import spec_fingerprint

    digest = hashlib.sha256()
    for fp in sorted(spec_fingerprint(s) for s in specs):
        digest.update(fp.encode("ascii"))
    run.fingerprint = digest.hexdigest()


def _cmd_show(args: argparse.Namespace) -> int:
    specs = _load_specs(args.file)
    names = args.names or sorted(specs)
    for name in names:
        spec = _pick(specs, name)
        if args.dot:
            print(to_dot(spec))
        else:
            print(render_spec(spec))
            print()
    return 0


def _fail_on(args: argparse.Namespace) -> str:
    if getattr(args, "strict", False):
        return "warning"
    return args.fail_on


def _print_report(args: argparse.Namespace, report) -> None:
    if args.format == "json":
        print(report.to_json())
    elif args.format == "sarif":
        print(report.to_sarif())
    else:
        print(report.describe())


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import (
        LintReport,
        analyze_composition,
        analyze_problem,
        analyze_spec,
        lint_composition,
        lint_problem,
        lint_spec,
    )

    specs = _load_specs(args.file)
    if (args.service is None) != (args.component is None):
        raise ReproError("--service and --component must be given together")
    run = _Run(args, report=True)
    rules = {"select": args.select, "ignore": args.ignore}
    semantic = {**rules, "budget": run.budget}

    def lint_one(part: Specification) -> LintReport:
        report = lint_spec(part, role=args.role, **rules)
        if args.semantic:
            report = report.merged_with(analyze_spec(part, **semantic))
        return report

    def body() -> int:
        if args.service is not None:
            service = _pick(specs, args.service)
            component = _pick(specs, args.component)
            report = lint_problem(service, component, args.int_events, **rules)
            if args.semantic:
                report = report.merged_with(
                    analyze_problem(
                        service, component, args.int_events, solve=False,
                        **semantic,
                    )
                )
        else:
            parts = [_pick(specs, name) for name in args.names or sorted(specs)]
            if args.compose:
                report = lint_composition(parts, include_parts=True, **rules)
                if args.semantic:
                    report = report.merged_with(
                        analyze_composition(parts, **semantic)
                    )
            else:
                report = functools.reduce(
                    LintReport.merged_with, map(lint_one, parts)
                )

        _print_report(args, report)
        return report.exit_code(fail_on=_fail_on(args))

    return run.execute(body)


def _report_counters(report) -> dict:
    """Deterministic findings counters for the ledger (analyze runs)."""
    by_code: dict[str, int] = {}
    for diag in report:
        by_code[diag.code] = by_code.get(diag.code, 0) + 1
    return {
        "findings": {
            "total": len(report),
            "error": len(report.errors),
            "warning": len(report.warnings),
            "info": len(report.infos),
        },
        "codes": dict(sorted(by_code.items())),
    }


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .lint import (
        LintReport,
        analyze_composition,
        analyze_problem,
        analyze_spec,
    )

    if args.scenario is None and args.file is None:
        raise ReproError("give a spec FILE or --scenario NAME")
    if (args.service is None) != (args.component is None):
        raise ReproError("--service and --component must be given together")
    run = _Run(args, report=True)
    opts = {"budget": run.budget, "select": args.select, "ignore": args.ignore}

    def body() -> int:
        with run.scope():
            if args.scenario is not None:
                scenario = _scenario(args.scenario)
                _identify(
                    run,
                    [scenario.service, *scenario.components],
                    f"scenario:{args.scenario}",
                )
                report = analyze_composition(scenario.components, **opts)
                if not args.no_solve:
                    report = report.merged_with(
                        analyze_problem(
                            scenario.service,
                            scenario.composite,
                            scenario.interface.int_events,
                            **opts,
                        )
                    )
            else:
                specs = _apply_analyze_faults(args, _load_specs(args.file))
                if args.service is not None:
                    service = _pick(specs, args.service)
                    component = _pick(specs, args.component)
                    _identify(
                        run,
                        [service, component],
                        f"{service.name}/{component.name}",
                    )
                    report = analyze_problem(
                        service,
                        component,
                        args.int_events,
                        solve=not args.no_solve,
                        **opts,
                    )
                else:
                    names = args.names or sorted(specs)
                    parts = [_pick(specs, name) for name in names]
                    _identify(run, parts, "+".join(p.name for p in parts))
                    if args.compose and len(parts) >= 2:
                        report = analyze_composition(parts, **opts)
                    else:
                        report = functools.reduce(
                            LintReport.merged_with,
                            (analyze_spec(part, **opts) for part in parts),
                        )

        _print_report(args, report)
        code = report.exit_code(fail_on=_fail_on(args))
        run.record(
            verdict="clean" if code == 0 else "findings",
            counters=_report_counters(report),
        )
        return code

    return run.execute(body)


#: The built-in conversion scenarios: CLI name -> factory in
#: :mod:`repro.protocols` (imported on first use).  ``analyze`` accepts
#: them all, ``resilience`` and ``demo`` the paper's Section 5 subset.
_SCENARIOS = {
    "symmetric": "symmetric_scenario",
    "colocated": "colocated_scenario",
    "weakened": "weakened_symmetric_scenario",
    "ns-e2e": "ns_end_to_end",
    "ab-e2e": "ab_end_to_end",
    "handshake": "handshake_scenario",
    "lossy-handshake": "lossy_handshake_scenario",
}


def _scenario(name: str):
    from . import protocols

    return getattr(protocols, _SCENARIOS[name])()


def _apply_analyze_faults(
    args: argparse.Namespace, specs: dict[str, Specification]
) -> dict[str, Specification]:
    """Apply ``--fault`` transformers to the targeted spec before analysis."""
    if not getattr(args, "fault", None):
        return specs
    from .faults import apply_faults, fault_model

    models = [
        fault_model(kind, args.fault_severity)
        for kind in args.fault.split(",")
    ]
    target = args.fault_target
    if target is None:
        candidates = args.names or sorted(specs)
        if len(candidates) != 1:
            raise ReproError(
                "--fault needs --fault-target NAME when more than one "
                "spec is analyzed"
            )
        target = candidates[0]
    faulted = apply_faults(_pick(specs, target), models)
    return {**specs, target: faulted.renamed(_pick(specs, target).name)}


def _cmd_compose(args: argparse.Namespace) -> int:
    from .compose.nary import compose_many

    specs = _load_specs(args.file)
    parts = [_pick(specs, name) for name in args.names]

    def body() -> int:
        composite = compose_many(parts)
        if args.dot:
            print(to_dot(composite))
        else:
            print(render_spec(composite, max_rows=args.max_rows))
        return 0

    return _Run(args).execute(body)


def _cmd_check(args: argparse.Namespace) -> int:
    specs = _load_specs(args.file)
    impl = _pick(specs, args.impl)
    service = _pick(specs, args.service)

    def body() -> int:
        report = satisfies(impl, service)
        print(report.describe())
        return 0 if report.holds else 1

    return _Run(args).execute(body)


def _cmd_solve(args: argparse.Namespace) -> int:
    from .persist import load_checkpoint, problem_fingerprint

    specs = _load_specs(args.file)
    service = _pick(specs, args.service)
    component = _pick(specs, args.component)
    run = _Run(args, f"{service.name}/{component.name}")

    def body() -> int:
        resume_from = load_checkpoint(args.checkpoint) if args.resume else None
        with run.interruptible(), run.scope():
            result = solve_quotient(
                service,
                component,
                preflight=not args.no_preflight,
                deep_preflight=args.deep_preflight,
                budget=run.budget,
                interrupt=run.interrupt,
                resume_from=resume_from,
            )
        if args.format == "json":
            # phase counters are always included, so an empty result still
            # says which phase emptied the machine and what survived safety
            payload = result.to_json_dict()
            if run.collector is not None:
                payload["stats"] = run.collector.snapshot().to_dict()
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(explain_converter(result, show_pairs=args.pairs))
            if result.exists and args.dot:
                assert result.converter is not None
                print()
                print(to_dot(result.converter))
        run.fingerprint = problem_fingerprint(result.problem)
        run.record(
            verdict="converter" if result.exists else "no-converter",
            counters=result.phase_counters(),
        )
        return 0 if result.exists else 1

    return run.execute(body)


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from .quotient.diagnose import diagnose_nonexistence

    specs = _load_specs(args.file)
    service = _pick(specs, args.service)
    component = _pick(specs, args.component)

    # diagnose always records, so the JSON report can carry its stats
    # (the "why is this slow" half of the shared diagnostics surface)
    collector = obs.MetricsCollector()
    with obs.use_collector(collector):
        result = solve_quotient(service, component)
    if result.exists:
        print("a converter exists — nothing to diagnose:")
        print(result.summary())
        return 0
    try:
        diagnosis = diagnose_nonexistence(result, max_frontier=args.frontier)
    except ValueError as exc:
        print(f"no converter exists; {exc}")
        return 1
    if args.format == "json":
        target = f"{service.name}/{component.name}"
        payload = diagnosis.to_report(target=target).to_json_dict()
        payload["phases"] = result.phase_counters()
        payload["stats"] = collector.snapshot().to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(diagnosis.describe())
    return 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulate import FairRandomPolicy, ServiceMonitor, Simulator, render_msc

    specs = _load_specs(args.file)
    components = [_pick(specs, name) for name in args.components]
    service = _pick(specs, args.service) if args.service else None

    def body() -> int:
        simulator = Simulator(components, FairRandomPolicy(args.seed))
        monitor = ServiceMonitor(service) if service is not None else None
        with obs.span("simulate.run", max_steps=args.steps) as sp:
            for _ in range(args.steps):
                move = simulator.step()
                if move is None:
                    break
                if (
                    monitor is not None
                    and move.kind == "external"
                    and move.event in service.alphabet
                ):
                    # only service-interface events are the monitored
                    # behaviour; other externals are open converter-side ports
                    monitor.observe(move.event)
            sp.set(
                steps=len(simulator.log.steps),
                deadlocked=simulator.log.deadlocked,
            )

        log = simulator.log
        if args.msc:
            print(render_msc(log, components, max_steps=args.msc))
            print()
        print(
            f"ran {len(log.steps)} steps (seed {args.seed})"
            + ("; DEADLOCKED" if log.deadlocked else "")
        )
        if log.deadlocked:
            vector = ", ".join(
                f"{c.name}={s!r}"
                for c, s in zip(components, simulator.states)
            )
            print(f"  deadlock at step {len(log.steps)} in state ({vector})")
        for label, count in log.histogram().items():
            print(f"  {label:16s} ×{count}")
        if monitor is not None:
            print(monitor.verdict().describe())
            return 0 if monitor.verdict().ok else 1
        return 0

    return _Run(args).execute(body)


def _cmd_resilience(args: argparse.Namespace) -> int:
    from .compose.nary import compose_many
    from .faults import (
        FAULT_KINDS,
        default_grid,
        evaluate_resilience,
        sweep_fingerprint,
    )
    from .faults.resilience import VERDICTS
    from .persist import problem_fingerprint

    if args.scenario is not None:
        if args.file is not None:
            raise ReproError(
                "--scenario and FILE are mutually exclusive"
            )
        scenario = _scenario(args.scenario)
        service = scenario.service
        components = list(scenario.components)
        int_events = scenario.interface.int_events
    else:
        if args.file is None or args.service is None or not args.components:
            raise ReproError(
                "resilience needs FILE SERVICE COMPONENT [COMPONENT ...] "
                "or --scenario"
            )
        specs = _load_specs(args.file)
        service = _pick(specs, args.service)
        components = [_pick(specs, name) for name in args.components]
        int_events = args.int_events

    grid = default_grid(_severities(args), timeout=args.timeout)
    if args.faults:
        kinds = [k for k in args.faults.split(",") if k]
        unknown = sorted(set(kinds) - set(FAULT_KINDS))
        if unknown:
            raise ReproError(
                f"unknown fault kinds {unknown} "
                f"(available: {list(FAULT_KINDS)})"
            )
        grid = [m for m in grid if m.kind in set(kinds)]

    run = _Run(args, f"{service.name}/{'+'.join(c.name for c in components)}")

    def body() -> int:
        with run.scope():
            try:
                # the baseline derivation is not checkpointed here (a
                # sweep's unit of resume is the cell), so its budget trips
                # stay exit 3
                composite = compose_many(components, budget=run.budget)
                result = solve_quotient(
                    service, composite, int_events=int_events, budget=run.budget
                )
            except BudgetExceeded as exc:
                if args.format == "json":
                    print(
                        json.dumps(exc.to_json_dict(), indent=2, sort_keys=True)
                    )
                else:
                    print(f"budget exceeded deriving baseline converter: {exc}")
                run.record(
                    outcome="partial-budget",
                    counters={f"baseline.{exc.phase}": exc.partial},
                )
                return 3
            if not result.exists:
                print(
                    "no baseline converter exists for this system; "
                    "nothing to evaluate"
                )
                run.fingerprint = problem_fingerprint(result.problem)
                run.record(
                    verdict="no-converter", counters=result.phase_counters()
                )
                return 1
            assert result.converter is not None
            run.fingerprint = sweep_fingerprint(
                service,
                components,
                result.converter,
                grid=grid,
                target=args.target,
                timeout=args.timeout,
            )
            run.stage = "sweep"
            with run.interruptible():
                matrix = evaluate_resilience(
                    service,
                    components,
                    result.converter,
                    int_events=int_events,
                    target=args.target,
                    grid=grid,
                    rederive=not args.no_rederive,
                    budget=run.budget,
                    timeout=args.timeout,
                    interrupt=run.interrupt,
                    checkpoint=args.checkpoint,
                    resume=args.resume,
                )
        if args.format == "json":
            print(json.dumps(matrix.to_json_dict(), indent=2, sort_keys=True))
        else:
            print(matrix.render_text())
        counts = matrix.counts()
        run.record(
            verdict=next((v for v in reversed(VERDICTS) if counts.get(v)), None),
            counters={"cells": {"total": len(matrix.cells), **counts}},
            checkpoint=args.checkpoint,
        )
        return 0

    return run.execute(body)


def _cmd_demo(args: argparse.Namespace) -> int:
    scenario = _scenario(args.scenario)
    print(scenario.describe())
    print()
    result = solve_quotient(
        scenario.service,
        scenario.composite,
        int_events=scenario.interface.int_events,
    )
    print(explain_converter(result))
    return 0 if result.exists else 1


def _history_diff_pair(ledger, args: argparse.Namespace):
    """Resolve the (base, new) records for ``history diff``.

    Explicit run ids win; otherwise the two most recent runs of the
    newest run's (fingerprint, kind) group are compared — the common
    "did my last run regress?" question needs no arguments at all.
    """
    from .errors import PersistError

    if (args.base is None) != (args.new is None):
        raise ReproError("history diff takes zero or two run ids")
    if args.base is not None:
        return ledger.get(args.base), ledger.get(args.new)
    records = ledger.read()
    if args.fingerprint:
        records = tuple(
            r for r in records if r.fingerprint.startswith(args.fingerprint)
        )
    if not records:
        raise PersistError(
            f"ledger {ledger.path!r} has no matching runs to diff"
        )
    newest = records[-1]
    group = [
        r
        for r in records
        if r.fingerprint == newest.fingerprint and r.kind == newest.kind
    ]
    if len(group) < 2:
        raise PersistError(
            f"ledger {ledger.path!r} has only {len(group)} run(s) of "
            f"{newest.kind} {newest.fingerprint[:12]}...; need two to diff "
            "(pass explicit run ids?)"
        )
    return group[-2], group[-1]


def _cmd_history(args: argparse.Namespace) -> int:
    from .obs.ledger import Ledger, diff_records, render_history_list

    ledger = Ledger(args.ledger)
    if args.history_cmd == "list":
        records = ledger.read()
        if args.kind:
            records = tuple(r for r in records if r.kind == args.kind)
        if args.fingerprint:
            records = tuple(
                r
                for r in records
                if r.fingerprint.startswith(args.fingerprint)
            )
        if args.format == "json":
            print(
                json.dumps(
                    [r.to_json_dict() for r in records],
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(render_history_list(records))
        return 0
    if args.history_cmd == "show":
        record = ledger.get(args.run)
        print(json.dumps(record.to_json_dict(), indent=2, sort_keys=True))
        return 0
    if args.history_cmd == "diff":
        if args.threshold < 0:
            raise ReproError(
                f"--threshold must be >= 0, got {args.threshold!r}"
            )
        base, new = _history_diff_pair(ledger, args)
        diff = diff_records(base, new, threshold=args.threshold)
        if args.format == "json":
            print(json.dumps(diff.to_json_dict(), indent=2, sort_keys=True))
        else:
            print(diff.render_text())
        return 1 if diff.regressed else 0
    assert args.history_cmd == "gc"
    if args.keep < 1:
        raise ReproError(f"--keep must be >= 1, got {args.keep!r}")
    removed = ledger.gc(keep=args.keep)
    print(
        f"removed {removed} record(s) from {args.ledger} "
        f"(kept the newest {args.keep} per problem)"
    )
    return 0



# ----------------------------------------------------------------------
# serve / submit / status (the derivation server; docs/serving.md)
# ----------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import DerivationServer

    # before DerivationServer touches the store
    if args.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {args.workers!r}")
    if args.capacity < 1:
        raise ReproError(f"--capacity must be >= 1, got {args.capacity!r}")
    server = DerivationServer(
        args.store,
        host=args.host,
        port=args.port,
        capacity=args.capacity,
        workers=args.workers,
    )

    def ready(s: DerivationServer) -> None:
        # one machine-readable line so scripts (and the CI smoke) can
        # pick up the bound port without racing the log
        print(
            json.dumps(
                {"serving": {"host": s.host, "port": s.port,
                             "store": args.store}},
                sort_keys=True,
            ),
            flush=True,
        )

    asyncio.run(server.run(ready=ready))
    print(json.dumps({"drained": True}, sort_keys=True), flush=True)
    return 0


def _submit_payload(args: argparse.Namespace) -> dict:
    from .io.json_codec import spec_to_dict

    specs = _load_specs(args.file)
    if args.kind == "solve":
        if not (args.service and args.component):
            raise ReproError("kind=solve needs --service and --component")
        payload: dict = {
            "service": spec_to_dict(_pick(specs, args.service)),
            "component": spec_to_dict(_pick(specs, args.component)),
        }
        if args.int_events:
            payload["int_events"] = sorted(e for e in args.int_events if e)
        return payload
    if args.kind == "analyze":
        names = (
            [n for n in args.specs.split(",") if n]
            if args.specs
            else sorted(specs)
        )
        return {"specs": [spec_to_dict(_pick(specs, n)) for n in names]}
    assert args.kind == "resilience"
    if not (args.service and args.components and args.converter):
        raise ReproError(
            "kind=resilience needs --service, --components, and --converter"
        )
    return {
        "service": spec_to_dict(_pick(specs, args.service)),
        "components": [
            spec_to_dict(_pick(specs, n))
            for n in args.components.split(",")
            if n
        ],
        "converter": spec_to_dict(_pick(specs, args.converter)),
        "target": args.target,
        "severities": list(_severities(args)),
        "timeout": args.timeout,
    }


#: Job verdicts that mean "positive answer" (CLI exit 0); everything
#: else on a completed job exits 1, mirroring the batch subcommands.
_POSITIVE_VERDICTS = ("converter", "resilient", "clean")


def _served_exit(record: dict) -> int:
    state = record.get("state")
    outcome = record.get("outcome")
    if state == "done":
        return 0 if record.get("verdict") in _POSITIVE_VERDICTS else 1
    if outcome == "partial-budget":
        return 3
    if outcome == "partial-interrupt" or state == "interrupted":
        return 4
    return 2


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve import ServeClient

    doc: dict = {
        "kind": args.kind,
        "payload": _submit_payload(args),
        "priority": args.priority,
        "label": args.label,
    }
    if args.deadline is not None:
        doc["deadline_s"] = args.deadline
    budget = _budget_from_args(args)
    if budget is not None:
        doc["budget"] = budget.to_json_dict()
    client = ServeClient(args.host, args.port)
    status, response = client.submit(doc)
    if status == 429:
        hint = response.get("retry_after_s")
        if args.format == "json":
            print(json.dumps(response, indent=2, sort_keys=True))
        else:
            print(f"queue full; retry in {hint}s", file=sys.stderr)
        return 5
    job = response["job"]
    if not args.wait:
        if args.format == "json":
            print(json.dumps({"job": job}, indent=2, sort_keys=True))
        else:
            print(
                f"job {job['job_id']} {job['state']} "
                f"(cache {job['cache']}, fingerprint "
                f"{job['fingerprint'][:12]}...)"
            )
        return 0
    final = client.wait(job["job_id"], timeout_s=args.timeout_s)
    record = final["job"]
    if args.format == "json":
        if record["state"] == "done" and "result" in final:
            # the canonical body: byte-identical to the batch command's
            # --format json output for the same inputs
            print(json.dumps(final["result"], indent=2, sort_keys=True))
        else:
            print(json.dumps({"job": record}, indent=2, sort_keys=True))
    else:
        line = (
            f"job {record['job_id']} {record['state']}"
            f" outcome={record['outcome']} verdict={record['verdict']}"
            f" attempts={record['attempts']}"
        )
        if record.get("error"):
            line += f" error={record['error']!r}"
        print(line)
    return _served_exit(record)


def _cmd_status(args: argparse.Namespace) -> int:
    from .serve import ServeClient

    if args.tail < 0:
        raise ReproError(f"--tail must be >= 0, got {args.tail!r}")
    client = ServeClient(args.host, args.port)
    if args.wait:
        doc = client.wait(args.job_id, timeout_s=args.timeout_s)
    else:
        doc = client.job(args.job_id)
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    record = doc["job"]
    print(
        f"job {record['job_id']} [{record['kind']}] {record['state']}"
        f" cache={record.get('cache')} outcome={record.get('outcome')}"
        f" verdict={record.get('verdict')}"
    )
    progress = doc.get("progress", [])
    for event in progress[max(len(progress) - args.tail, 0):]:
        print(f"  {json.dumps(event, sort_keys=True)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-converter",
        description=(
            "Protocol converter synthesis by quotient "
            "(Calvert & Lam, SIGCOMM 1989)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_show = sub.add_parser("show", help="render specs from a file")
    p_show.add_argument("file")
    p_show.add_argument("names", nargs="*", help="spec names (default: all)")
    p_show.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p_show.set_defaults(func=_cmd_show)

    p_lint = sub.add_parser(
        "lint",
        help="statically analyze specs without solving",
        description=(
            "Run the rule-based static analyzer (repro.lint) over specs, a "
            "composition, or a full quotient problem, without executing the "
            "quotient.  Rule codes are stable (SPEC0xx structure, NORM0xx "
            "normal form, COMP0xx/CONV0xx composition and channel "
            "conventions, CHAN1xx fault-model conventions, "
            "SPEC1xx/QUOT0xx quotient preflight); with --semantic the "
            "reachability-based SEM2xx rules run too.  See docs/lint.md "
            "for the catalogue.  Exit code 0 means no finding reached the "
            "--fail-on threshold (warnings-only runs pass by default), 2 "
            "means threshold findings or an unloadable input, 3 means a "
            "--budget-* limit interrupted the semantic pass (partial "
            "report printed)."
        ),
    )
    p_lint.add_argument("file")
    p_lint.add_argument(
        "names", nargs="*", help="spec names to lint (default: all in file)"
    )
    p_lint.add_argument(
        "--service", default=None,
        help="lint the quotient problem SERVICE / COMPONENT",
    )
    p_lint.add_argument(
        "--component", default=None,
        help="component (composite B) of the quotient problem",
    )
    _add_int_argument(p_lint)
    p_lint.add_argument(
        "--compose", action="store_true",
        help="treat the named specs as parts of one || composition",
    )
    p_lint.add_argument(
        "--role", choices=["component", "service"], default="component",
        help="role of the linted specs (service adds NORM0xx rules)",
    )
    _add_report_arguments(p_lint)
    p_lint.add_argument(
        "--strict", action="store_true",
        help="legacy alias for --fail-on warning",
    )
    p_lint.add_argument(
        "--semantic", action="store_true",
        help="additionally run the reachability-based SEM2xx semantic "
        "pass (explores the product graph; honors --budget-*)",
    )
    _add_budget_arguments(p_lint)
    _add_obs_arguments(p_lint)
    p_lint.set_defaults(func=_cmd_lint)

    p_an = sub.add_parser(
        "analyze",
        help="semantic analysis on the reachable product graph",
        description=(
            "Run the semantic analyzer (repro.lint.semantic): build the "
            "reachable product graph over labelled states and report "
            "the SEM2xx findings — dead states (SEM201), non-executable "
            "transitions (SEM202), unspecified receptions (SEM203), "
            "reachable deadlocks (SEM204), livelock SCCs (SEM205), "
            "sink-unreachable acceptance (SEM206) and, when a quotient "
            "problem is solved, converter-coverage gaps (SEM207) and "
            "quotient-maximality diagnostics (SEM208).  Witnesses are "
            "shortest product-state traces.  Exit code 0 means no finding "
            "reached the --fail-on threshold, 2 means threshold findings "
            "or an unloadable input, 3 means a --budget-* limit "
            "interrupted the exploration (partial report printed)."
        ),
    )
    p_an.add_argument(
        "file", nargs="?", default=None,
        help="spec file (omit when using --scenario)",
    )
    p_an.add_argument(
        "names", nargs="*",
        help="spec names to analyze (default: all in file)",
    )
    p_an.add_argument(
        "--scenario", choices=list(_SCENARIOS), default=None,
        help="analyze a built-in conversion scenario instead of FILE "
        "specs (components composition plus the solved quotient problem)",
    )
    p_an.add_argument(
        "--service", default=None,
        help="analyze the quotient problem SERVICE / COMPONENT "
        "(solves it and checks the derived converter unless --no-solve)",
    )
    p_an.add_argument(
        "--component", default=None,
        help="component (composite B) of the quotient problem",
    )
    _add_int_argument(p_an)
    p_an.add_argument(
        "--compose", action="store_true",
        help="analyze the named specs as one || composition (enables "
        "the cross-part rules SEM203/SEM204/SEM205)",
    )
    p_an.add_argument(
        "--no-solve", action="store_true",
        help="skip solving the quotient (drops SEM207/SEM208)",
    )
    p_an.add_argument(
        "--fault", default=None, metavar="KIND,KIND,...",
        help="apply these fault models (loss, duplication, reorder, "
        "corruption, crash_restart) to one spec before analyzing",
    )
    p_an.add_argument(
        "--fault-severity", type=int, default=1, metavar="N",
        help="severity level of the applied fault models (default 1)",
    )
    p_an.add_argument(
        "--fault-target", default=None, metavar="NAME",
        help="spec the fault models transform (default: the only spec "
        "analyzed; required when several are)",
    )
    _add_report_arguments(p_an)
    _add_budget_arguments(p_an)
    _add_chaos_arguments(p_an)
    _add_obs_arguments(p_an)
    _add_recorder_arguments(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_compose = sub.add_parser("compose", help="compose specs with ||")
    p_compose.add_argument("file")
    p_compose.add_argument("names", nargs="+")
    p_compose.add_argument("--dot", action="store_true")
    p_compose.add_argument("--max-rows", type=int, default=None)
    _add_obs_arguments(p_compose)
    p_compose.set_defaults(func=_cmd_compose)

    p_check = sub.add_parser("check", help="check impl satisfies service")
    p_check.add_argument("file")
    p_check.add_argument("impl")
    p_check.add_argument("service")
    _add_obs_arguments(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_solve = sub.add_parser("solve", help="derive a converter (quotient)")
    p_solve.add_argument("file")
    p_solve.add_argument("service")
    p_solve.add_argument("component")
    p_solve.add_argument("--pairs", action="store_true",
                         help="show pair-set state annotations")
    p_solve.add_argument("--dot", action="store_true")
    p_solve.add_argument(
        "--no-preflight", action="store_true",
        help="skip the static-analysis preflight (repro.lint) before solving",
    )
    p_solve.add_argument(
        "--deep-preflight", action="store_true",
        help="additionally run the semantic SEM2xx analyzer on the inputs "
        "and refuse to solve if it finds errors (deadlocks, livelocks, "
        "unspecified receptions)",
    )
    p_solve.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format; json always includes the phase-level counters "
        "(which phase emptied the machine, pairs surviving safety)",
    )
    _add_budget_arguments(p_solve)
    _add_chaos_arguments(p_solve)
    _add_persist_arguments(p_solve)
    _add_obs_arguments(p_solve)
    _add_recorder_arguments(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_res = sub.add_parser(
        "resilience",
        help="evaluate converter resilience under a grid of fault models",
        description=(
            "Derive the baseline converter for a conversion system, then "
            "sweep severity-parameterized fault models (loss, duplication, "
            "reorder, corruption, crash_restart) over one component — by "
            "default the channel — and report per cell whether the fixed "
            "converter still satisfies the service, and if not whether a "
            "converter can be re-derived for the faultier world.  See "
            "docs/robustness.md for the verdict taxonomy and JSON schema.  "
            "Exit code 0 on a completed matrix, 1 when no baseline "
            "converter exists, 3 when a budget interrupts the baseline "
            "derivation."
        ),
    )
    p_res.add_argument("file", nargs="?", default=None)
    p_res.add_argument("service", nargs="?", default=None)
    p_res.add_argument("components", nargs="*")
    p_res.add_argument(
        "--scenario", choices=["colocated", "weakened"], default=None,
        help="evaluate a built-in paper scenario instead of FILE specs",
    )
    _add_int_argument(p_res)
    _add_sweep_arguments(p_res)
    p_res.add_argument(
        "--faults", default=None, metavar="KIND,KIND,...",
        help="restrict the grid to these fault kinds (default: all)",
    )
    p_res.add_argument(
        "--no-rederive", action="store_true",
        help="skip re-derivation attempts for broken cells (faster; "
        "verdicts stay safety-broken/progress-broken)",
    )
    p_res.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (default text)",
    )
    _add_budget_arguments(p_res)
    _add_chaos_arguments(p_res)
    _add_persist_arguments(p_res)
    _add_obs_arguments(p_res)
    _add_recorder_arguments(p_res)
    p_res.set_defaults(func=_cmd_resilience)

    p_hist = sub.add_parser(
        "history",
        help="inspect and regression-diff the run ledger",
        description=(
            "Read a ledger written with --ledger FILE: list recorded runs, "
            "show one run's full record, diff the deterministic work "
            "counters of two runs of the same problem (exit 1 when a "
            "counter regressed beyond --threshold), and garbage-collect "
            "old records.  Wall times are never diffed.  See "
            "docs/observability.md for the record schema."
        ),
    )
    hsub = p_hist.add_subparsers(dest="history_cmd", required=True)

    def _ledger_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ledger", metavar="FILE", required=True,
            help="the ledger file to read (written by --ledger on "
            "solve/resilience/analyze)",
        )

    h_list = hsub.add_parser("list", help="list recorded runs")
    _ledger_arg(h_list)
    h_list.add_argument(
        "--kind", default=None,
        choices=["solve", "resilience", "analyze", "bench", "served"],
        help="only runs of this kind",
    )
    h_list.add_argument(
        "--fingerprint", default=None, metavar="PREFIX",
        help="only runs whose problem fingerprint starts with PREFIX",
    )
    h_list.add_argument(
        "--format", choices=["text", "json"], default="text",
    )
    h_list.set_defaults(func=_cmd_history)

    h_show = hsub.add_parser("show", help="show one run record as JSON")
    _ledger_arg(h_show)
    h_show.add_argument("run", type=int, help="run id (see 'history list')")
    h_show.set_defaults(func=_cmd_history)

    h_diff = hsub.add_parser(
        "diff",
        help="compare work counters of two runs (exit 1 on regression)",
    )
    _ledger_arg(h_diff)
    h_diff.add_argument(
        "base", nargs="?", type=int, default=None,
        help="baseline run id (default: second-newest run of the newest "
        "run's problem)",
    )
    h_diff.add_argument(
        "new", nargs="?", type=int, default=None,
        help="run id to compare against the baseline (default: newest)",
    )
    h_diff.add_argument(
        "--threshold", type=float, default=0.0, metavar="FRACTION",
        help="relative increase a counter may show before it counts as a "
        "regression (0 = any increase regresses; 0.05 = 5%% headroom)",
    )
    h_diff.add_argument(
        "--fingerprint", default=None, metavar="PREFIX",
        help="with no run ids: pick the newest runs matching this "
        "fingerprint prefix",
    )
    h_diff.add_argument(
        "--format", choices=["text", "json"], default="text",
    )
    h_diff.set_defaults(func=_cmd_history)

    h_gc = hsub.add_parser(
        "gc", help="drop all but the newest records per problem"
    )
    _ledger_arg(h_gc)
    h_gc.add_argument(
        "--keep", type=int, default=5, metavar="N",
        help="records to keep per (fingerprint, kind) group (default 5)",
    )
    h_gc.set_defaults(func=_cmd_history)

    p_diag = sub.add_parser(
        "diagnose", help="explain why no converter exists"
    )
    p_diag.add_argument("file")
    p_diag.add_argument("service")
    p_diag.add_argument("component")
    p_diag.add_argument("--frontier", type=int, default=5,
                        help="max points-of-no-return to report")
    p_diag.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="render the diagnosis as text or structured JSON diagnostics "
        "(json includes the phase counters and the metrics snapshot)",
    )
    p_diag.set_defaults(func=_cmd_diagnose)

    p_sim = sub.add_parser(
        "simulate", help="execute components with a fair random policy"
    )
    p_sim.add_argument("file")
    p_sim.add_argument("components", nargs="+")
    p_sim.add_argument("--service", default=None,
                       help="monitor the run against this service spec")
    p_sim.add_argument("--steps", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--msc", type=int, default=None, metavar="N",
                       help="render the first N steps as a sequence chart")
    _add_obs_arguments(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_serve = sub.add_parser(
        "serve",
        help="run the derivation server (HTTP/JSON, content-addressed)",
        description=(
            "Serve solve/resilience/analyze jobs over HTTP/JSON with "
            "content-addressed deduplication, bounded admission, and "
            "crash-recovering supervised execution.  Runs until "
            "SIGTERM/SIGINT (or POST /shutdown), then drains: running "
            "jobs stop at their next charge boundary and are checkpointed, "
            "queued jobs persist, and a restarted server resumes or runs "
            "them.  REPRO_CHAOS fault schedules apply to the "
            "server's own execution (site serve.job) and its store I/O.  "
            "See docs/serving.md."
        ),
    )
    p_serve.add_argument(
        "--store", required=True, metavar="DIR",
        help="durable state directory (results, jobs, checkpoints, "
        "index, ledger)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="port to bind (default 0: an ephemeral port, printed on "
        "the 'serving' line)",
    )
    p_serve.add_argument(
        "--capacity", type=int, default=16,
        help="admission queue bound; beyond it, submissions are shed "
        "(lower priority) or rejected with retry_after_s (default 16)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent job executors (default 2)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit a job to a running derivation server",
        description=(
            "Build a job from a spec file and submit it.  The server "
            "dedups by content fingerprint: a repeated submission "
            "returns the cached result (or joins the in-flight job) "
            "instead of recomputing.  With --wait and --format json, a "
            "completed solve prints the same bytes 'repro-converter "
            "solve --format json' would.  Exit codes: 0/1 verdict, 2 "
            "failed job, 3 budget, 4 interrupted, 5 backpressure."
        ),
    )
    p_submit.add_argument("file", help="spec file (DSL or JSON)")
    p_submit.add_argument(
        "--kind", choices=["solve", "resilience", "analyze"],
        default="solve",
    )
    p_submit.add_argument("--service", default=None, metavar="NAME")
    p_submit.add_argument("--component", default=None, metavar="NAME")
    p_submit.add_argument(
        "--components", default=None, metavar="NAME,NAME,...",
        help="resilience: the conversion system's components",
    )
    p_submit.add_argument("--converter", default=None, metavar="NAME")
    p_submit.add_argument(
        "--specs", default=None, metavar="NAME,NAME,...",
        help="analyze: specs to analyze (default: all in FILE)",
    )
    _add_int_argument(p_submit)
    _add_sweep_arguments(p_submit)
    _add_server_arguments(p_submit)
    p_submit.add_argument(
        "--priority", type=int, default=0,
        help="admission priority (higher first; lowest shed under load)",
    )
    p_submit.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock deadline (cooperative; the job "
        "checkpoints when it trips)",
    )
    p_submit.add_argument("--label", default="")
    p_submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its result",
    )
    p_submit.add_argument(
        "--format", choices=["text", "json"], default="text",
    )
    _add_budget_arguments(p_submit)
    p_submit.set_defaults(func=_cmd_submit)

    p_status = sub.add_parser(
        "status",
        help="show a server job's record, progress, and result",
    )
    p_status.add_argument("job_id")
    _add_server_arguments(p_status)
    p_status.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a terminal state",
    )
    p_status.add_argument(
        "--tail", type=int, default=10,
        help="progress events to show in text mode (default 10)",
    )
    p_status.add_argument(
        "--format", choices=["text", "json"], default="text",
    )
    p_status.set_defaults(func=_cmd_status)

    p_demo = sub.add_parser("demo", help="run a paper scenario")
    p_demo.add_argument(
        "scenario", choices=["symmetric", "colocated", "weakened"]
    )
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
