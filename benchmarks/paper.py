"""Shared helpers for the benchmark harness, plus its command-line driver.

Every benchmark regenerates one artifact of the paper's evaluation (a
figure's machine, or a prose claim about it), asserts the qualitative
result the paper states, and *emits* a report twice:

* human-readable text — printed and written under ``benchmarks/out/``
  (committed, referenced by EXPERIMENTS.md);
* machine-readable metrics — a per-experiment dict passed to
  :func:`emit`, aggregated by the pytest session (see ``conftest.py``)
  into the repo-root ``BENCH_quotient.json``, the file that carries the
  repo's perf trajectory across PRs.

Output-hygiene policy (see also docs/observability.md): the committed
``benchmarks/out/*.txt`` files and ``BENCH_quotient.json`` are regenerated
by running the full suite (``python benchmarks/paper.py``); CI runs a fast
subset and validates the JSON schema; ``python benchmarks/paper.py
--check`` regenerates into a scratch directory and fails if any committed
text report went stale.  Timing fields (``*_ms``) are machine-dependent
and therefore live only in the JSON, never in the diffed text reports.

Run ``python benchmarks/paper.py --help`` for the driver's modes.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)

#: Text reports directory; override with REPRO_BENCH_OUT (used by --check).
OUT_DIR = os.environ.get("REPRO_BENCH_OUT", os.path.join(HERE, "out"))

#: Aggregated metrics file; override with REPRO_BENCH_JSON.
BENCH_JSON = os.environ.get(
    "REPRO_BENCH_JSON", os.path.join(REPO_ROOT, "BENCH_quotient.json")
)

#: The CI smoke subset: fast, covers solve + satisfy + simulate pipelines.
SMOKE_BENCHES = [
    "bench_fig07_abp.py",
    "bench_fig14_colocated.py",
    "bench_sec5_weakened.py",
    "bench_simulation.py",
]

_METRICS: dict[str, dict] = {}


def emit(exp_id: str, text: str, metrics: dict | None = None) -> str:
    """Print an experiment report, persist it, and register its metrics.

    *metrics* is the machine-readable side of the report: a flat-ish dict
    of numbers/strings/bools destined for ``BENCH_quotient.json``.  Every
    experiment must provide at least one metric (the aggregator validates
    this), so a bench cannot silently drop out of the perf trajectory.
    """
    banner = f"[{exp_id}]"
    body = f"{banner}\n{text.rstrip()}\n"
    print("\n" + body)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{exp_id}.txt"), "w", encoding="utf-8") as fh:
        fh.write(body)
    _METRICS[exp_id] = dict(metrics or {})
    return body


def table(headers: list[str], rows: list[list[object]]) -> str:
    """Aligned text table (thin wrapper over the library renderer)."""
    from repro.io import render_table

    return render_table(headers, rows)


def bench_ms(benchmark) -> float | None:
    """Mean wall time of a pytest-benchmark fixture in ms (None when the
    run used ``--benchmark-disable`` and no stats exist)."""
    try:
        return round(benchmark.stats.stats.mean * 1000.0, 3)
    except Exception:
        return None


def metrics_registry() -> dict[str, dict]:
    """The experiments emitted so far in this process (exp_id → metrics)."""
    return _METRICS


# ----------------------------------------------------------------------
# BENCH_quotient.json: aggregation and validation
# ----------------------------------------------------------------------
def write_bench_json(path: str | None = None) -> str:
    """Merge this session's metrics into the aggregate file.

    Merging (rather than overwriting) keeps subset runs — the CI smoke
    job, a single re-run module — from erasing experiments they did not
    execute.  The write is crash-safe: the merged payload goes to a
    temporary file in the same directory and is renamed over the target,
    so a crash mid-write can never leave a truncated aggregate behind.
    """
    target = path or BENCH_JSON
    experiments: dict[str, dict] = {}
    if os.path.exists(target):
        try:
            with open(target, "r", encoding="utf-8") as fh:
                previous = json.load(fh)
            experiments = dict(previous.get("experiments", {}))
        except (OSError, ValueError):
            experiments = {}
    for exp_id, metrics in _METRICS.items():
        experiments[exp_id] = {"metrics": metrics}
    payload = {
        "version": 1,
        "suite": "quotient",
        "source": "benchmarks/ (see benchmarks/paper.py)",
        "experiments": {k: experiments[k] for k in sorted(experiments)},
    }
    directory = os.path.dirname(os.path.abspath(target))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return target


def validate_bench_json(path: str) -> list[str]:
    """Schema problems of a BENCH file ([] when valid).

    Checks: top-level shape, at least one experiment, every experiment
    has a non-empty ``metrics`` dict of scalar values.
    """
    problems: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        return [f"cannot read {path!r}: {exc}"]
    except ValueError as exc:
        return [f"{path!r} is not valid JSON: {exc}"]
    if not isinstance(payload, dict):
        return [f"{path!r}: top level must be an object"]
    if payload.get("version") != 1:
        problems.append(f"version must be 1, got {payload.get('version')!r}")
    if payload.get("suite") != "quotient":
        problems.append(f"suite must be 'quotient', got {payload.get('suite')!r}")
    experiments = payload.get("experiments")
    if not isinstance(experiments, dict) or not experiments:
        problems.append("experiments must be a non-empty object")
        return problems
    for exp_id, entry in sorted(experiments.items()):
        if not isinstance(entry, dict) or not isinstance(
            entry.get("metrics"), dict
        ):
            problems.append(f"{exp_id}: entry must be an object with 'metrics'")
            continue
        metrics = entry["metrics"]
        if not metrics:
            problems.append(f"{exp_id}: metrics must not be empty")
        for key, value in sorted(metrics.items()):
            if not isinstance(value, (int, float, str, bool)) and value is not None:
                problems.append(
                    f"{exp_id}: metric {key!r} has non-scalar value {value!r}"
                )
    return problems


# ----------------------------------------------------------------------
# perf gate: deterministic work counters vs the committed baseline
# ----------------------------------------------------------------------
def _ensure_import_paths() -> None:
    src = os.path.join(REPO_ROOT, "src")
    for entry in (src, HERE):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _sec7_work_counters() -> dict[str, dict[str, float]]:
    """Recompute the SEC7 *work* counters in-process (kernel on, cheap).

    These are deterministic exploration counts — pair sets examined by the
    safety phase, pairs checked by the progress phase — not wall times, so
    they are stable across machines and suitable for a CI regression gate.
    """
    _ensure_import_paths()
    from bench_sec7_complexity import _relay_problem

    from repro import obs
    from repro.protocols import colocated_scenario, symmetric_scenario
    from repro.quotient import QuotientProblem, progress_phase, safety_phase

    fresh: dict[str, dict[str, float]] = {
        "SEC7-safety": {},
        "SEC7-progress": {},
        "SEC7-kernel": {},
    }
    instances = []
    for k in (1, 2, 3):
        service, component = _relay_problem(k)
        instances.append((f"relay^{k}", service, component))
    for scen, label in (
        (colocated_scenario(), "Fig13"),
        (symmetric_scenario(), "Fig9"),
    ):
        instances.append((label, scen.service, scen.composite))
    for label, service, component in instances:
        problem = QuotientProblem.build(service, component)
        sp = safety_phase(problem)
        with obs.use_collector(obs.MetricsCollector()) as collector:
            progress_phase(problem, sp.spec, sp.f)
        checked = collector.counters.get("quotient.progress.pairs_checked", 0)
        if label.startswith("relay^"):
            k = int(label.split("^")[1])
            fresh["SEC7-safety"][f"explored_k{k}"] = sp.explored
        fresh["SEC7-progress"][f"pairs_checked_{label}"] = checked
    service, component = _relay_problem(5)
    problem = QuotientProblem.build(service, component)
    sp = safety_phase(problem)
    pp = progress_phase(problem, sp.spec, sp.f)
    fresh["SEC7-kernel"]["explored_k5"] = sp.explored
    fresh["SEC7-kernel"]["c0_states"] = len(sp.spec.states)
    fresh["SEC7-kernel"]["rounds"] = len(pp.rounds)
    return fresh


#: Stable ledger fingerprint of the SEC7 work-counter suite (the bench
#: "problem" never varies, so its identity is a constant digest).
BENCH_FINGERPRINT_SEED = b"repro-bench:SEC7"


def bench_fingerprint() -> str:
    import hashlib

    return hashlib.sha256(BENCH_FINGERPRINT_SEED).hexdigest()


def record_bench_run(path: str) -> int:
    """Append one ``bench`` run record with the SEC7 work counters.

    The record lands in the same run ledger the CLI's ``--ledger`` flag
    writes, so ``repro-converter history diff`` (and :func:`perf_gate`
    pointed at the ledger) can compare bench runs across sessions.
    """
    _ensure_import_paths()
    from repro.obs.ledger import append_run, flatten_work

    counters = _sec7_work_counters()
    record = append_run(
        path,
        kind="bench",
        fingerprint=bench_fingerprint(),
        label="SEC7 work counters",
        work=flatten_work(counters),
        phases=counters,
    )
    print(f"ledger: recorded bench run {record.run_id} in {path}")
    return record.run_id


def _ledger_baseline(path: str) -> tuple[dict | None, list[str]]:
    """The newest bench record's counters, nested exp → counter → value."""
    _ensure_import_paths()
    from repro.obs.ledger import Ledger

    records = [r for r in Ledger(path).read() if r.kind == "bench"]
    if not records:
        return None, [f"ledger {path!r} has no bench records to gate against"]
    nested: dict[str, dict[str, float]] = {}
    for key, value in records[-1].work.items():
        exp_id, _, counter = key.partition(".")
        nested.setdefault(exp_id, {})[counter] = value
    return nested, []


def _is_ledger_file(path: str) -> bool:
    """Whether *path* reads as a run ledger (JSON lines or envelope)."""
    _ensure_import_paths()
    from repro.errors import PersistError
    from repro.obs.ledger import Ledger

    if not os.path.exists(path):
        return False
    try:
        Ledger(path).read()
    except PersistError:
        return False
    return True


def perf_gate(path: str) -> list[str]:
    """Regressions of the deterministic SEC7 work counters ([] when clean).

    *path* is either a committed ``BENCH_quotient.json`` or a run ledger
    (auto-detected); with a ledger, the newest ``bench`` record is the
    baseline.  Fails when a fresh counter *exceeds* its baseline (the
    algorithm started doing more work); a fresh counter below the
    baseline is an improvement and only asks for a refresh.
    """
    problems: list[str] = []
    if _is_ledger_file(path):
        baseline_by_exp, problems = _ledger_baseline(path)
        if baseline_by_exp is None:
            return problems
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"cannot read baseline {path!r}: {exc}"]
        committed = payload.get("experiments", {})
        baseline_by_exp = {
            exp_id: entry.get("metrics")
            for exp_id, entry in committed.items()
            if isinstance(entry, dict)
        }
    for exp_id, counters in sorted(_sec7_work_counters().items()):
        base = baseline_by_exp.get(exp_id)
        if not isinstance(base, dict):
            problems.append(f"{exp_id}: no committed baseline in {path}")
            continue
        for key, value in sorted(counters.items()):
            baseline = base.get(key)
            if baseline is None:
                problems.append(f"{exp_id}: baseline lacks counter {key!r}")
            elif value > baseline:
                problems.append(
                    f"{exp_id}.{key}: work regressed ({baseline} -> {value})"
                )
            elif value < baseline:
                print(
                    f"note: {exp_id}.{key} improved ({baseline} -> {value}); "
                    "refresh the baseline with: python benchmarks/paper.py"
                )
    return problems


# ----------------------------------------------------------------------
# the driver: regenerate / check / validate
# ----------------------------------------------------------------------
def _run_suite(out_dir: str, bench_json: str, *, smoke: bool = False) -> int:
    """Run the benchmark suite with redirected outputs; returns exit code."""
    targets = (
        [os.path.join(HERE, name) for name in SMOKE_BENCHES] if smoke else [HERE]
    )
    env = dict(os.environ)
    env["REPRO_BENCH_OUT"] = out_dir
    env["REPRO_BENCH_JSON"] = bench_json
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *targets]
    return subprocess.call(cmd, env=env, cwd=REPO_ROOT)


def _diff_reports(committed_dir: str, fresh_dir: str) -> list[str]:
    """Stale/missing/extra report files, with short unified diffs."""
    problems: list[str] = []
    committed = {
        name for name in os.listdir(committed_dir) if name.endswith(".txt")
    } if os.path.isdir(committed_dir) else set()
    fresh = {name for name in os.listdir(fresh_dir) if name.endswith(".txt")}
    for name in sorted(committed - fresh):
        problems.append(f"{name}: committed but no benchmark regenerates it")
    for name in sorted(fresh - committed):
        problems.append(f"{name}: generated but not committed")
    for name in sorted(committed & fresh):
        with open(os.path.join(committed_dir, name), encoding="utf-8") as fh:
            old = fh.readlines()
        with open(os.path.join(fresh_dir, name), encoding="utf-8") as fh:
            new = fh.readlines()
        if old != new:
            diff = list(
                difflib.unified_diff(
                    old, new, fromfile=f"committed/{name}", tofile=f"fresh/{name}"
                )
            )[:30]
            problems.append(f"{name}: STALE\n" + "".join(diff))
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="paper.py",
        description=(
            "Benchmark harness driver: regenerate the committed text "
            "reports and BENCH_quotient.json, check them for staleness, "
            "or validate the metrics file schema."
        ),
    )
    parser.add_argument(
        "--check", action="store_true",
        help="regenerate reports into a scratch directory and fail if any "
        "committed benchmarks/out/*.txt differs (the output-hygiene gate)",
    )
    parser.add_argument(
        "--validate", metavar="FILE", default=None,
        help="validate a BENCH_quotient.json against the schema and exit",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run only the fast CI subset of benchmarks",
    )
    parser.add_argument(
        "--perf-gate", nargs="?", const=BENCH_JSON, default=None,
        metavar="FILE",
        help="recompute the deterministic SEC7 work counters and fail if "
        "any exceeds its baseline in FILE — a committed "
        "BENCH_quotient.json or a run ledger (newest bench record); "
        "wall times are never compared",
    )
    parser.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="append the SEC7 work counters as one 'bench' record to this "
        "run ledger (inspect with: repro-converter history)",
    )
    args = parser.parse_args(argv)

    if args.ledger is not None:
        record_bench_run(args.ledger)
        if not (args.check or args.smoke or args.validate or args.perf_gate):
            return 0

    if args.perf_gate is not None:
        problems = perf_gate(args.perf_gate)
        if problems:
            print("perf gate FAILED (deterministic work counters regressed):")
            for p in problems:
                print(f"  {p}")
            return 1
        print(f"perf gate passed against {args.perf_gate}")
        return 0

    if args.validate is not None:
        problems = validate_bench_json(args.validate)
        if problems:
            for p in problems:
                print(f"INVALID: {p}")
            return 1
        print(f"{args.validate}: valid ({len(json.load(open(args.validate))['experiments'])} experiments)")
        return 0

    if args.check:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
            fresh_out = os.path.join(scratch, "out")
            fresh_json = os.path.join(scratch, "BENCH_quotient.json")
            code = _run_suite(fresh_out, fresh_json, smoke=args.smoke)
            if code != 0:
                print(f"benchmark suite failed (exit {code})")
                return code
            problems = _diff_reports(os.path.join(HERE, "out"), fresh_out)
            if args.smoke:
                # a subset run regenerates only some reports; ignore the rest
                problems = [p for p in problems if "STALE" in p]
            if problems:
                print("committed benchmark output is stale:\n")
                for p in problems:
                    print(p)
                print(
                    "\nregenerate with: python benchmarks/paper.py "
                    "(and commit benchmarks/out/ + BENCH_quotient.json)"
                )
                return 1
            print("benchmarks/out/ is up to date")
            return 0

    code = _run_suite(OUT_DIR, BENCH_JSON, smoke=args.smoke)
    if code == 0:
        print(f"\nreports: {OUT_DIR}\nmetrics: {BENCH_JSON}")
    return code


if __name__ == "__main__":
    sys.exit(main())
