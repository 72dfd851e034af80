"""End-to-end benchmark of the protocol-converter derivation library.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--runs N] [--out FILE] [--quick]
    python3 benchmarks/e2e/run.py --regen-expected [--workload NAME ...] [--seed N]
    python3 benchmarks/e2e/run.py --regen-pool

Each workload runs in a fresh process (cold caches, its own peak memory);
set-up is timed in two more fresh processes and reported as a median.
Every output is checked against expected answers from the labelled
reference path.  Untraced runs print the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace`` runs print the per-layer ones.  The last
line of standard output is one JSON object.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from stats import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected")

WORKLOADS = ("relay-k6", "paper-corpus", "resilience-sweep", "serve-mix")

#: the percentile ``latency_tail_ms`` reports per workload: the highest
#: with at least ten samples beyond it in a full-length run.  A run of
#: ``relay-k6`` or ``resilience-sweep`` completes three items, too few for
#: any tail, so theirs is the median: their maximum was the one item a
#: burst of load on a shared host happened to hit.
TAIL_PERCENTILE = {
    "relay-k6": 50,
    "paper-corpus": 99,
    "resilience-sweep": 50,
    "serve-mix": 95,
}

#: set-ups timed per untraced run (the measuring process is one of them)
SETUP_SAMPLES = 5

#: per-layer metrics of the server; the batch workloads never reach it
SERVE_ONLY = (
    "serve.app.admit_share",
    "serve.queue.wait_share",
    "serve.queue.wait_p95_share",
    "serve.workers.busy_ratio",
    "serve.store_index.busy_ratio",
    "serve.store_index.writes",
    "obs.ledger.busy_ratio",
    "serve.cache.hit_ratio",
    "serve.dedup.joined",
    "persist.store.io_attempts",
)


class BenchError(Exception):
    """A run that cannot produce a result."""


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def child_env(seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    # the seed fixes hash order too, so one seed is one exact run
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def run_child(spec: dict, timeout: float) -> dict:
    """Run ``child.py`` with *spec*; return its JSON line."""
    os.makedirs(OUT, exist_ok=True)
    spec = dict(spec, scratch=OUT)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=child_env(spec["seed"]),
            stdout=subprocess.PIPE,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(
            f"{spec['workload']} {spec['role']} exceeded {timeout:.0f}s"
        ) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{spec['workload']} {spec['role']} exited {proc.returncode}"
        )
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# expected answers
# ----------------------------------------------------------------------
def source_digest() -> str:
    """SHA-256 of the library source, naming the reference-cache file."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _read_digests(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["digests"]
    except (OSError, ValueError, KeyError):
        return {}


def check_outputs(workload: str, seed: int, quick: bool,
                  outputs: dict[str, list[str]], timeout: float) -> int:
    """Number of outputs whose digest differs from the expected answer.

    Expected answers come from ``expected/<workload>-seed*.json`` (keyed
    by input, so any seed's file serves every seed with the same item);
    items no file covers are computed on the reference path in a fresh
    process and cached under ``out/`` for this source tree.
    """
    expected: dict[str, str] = {}
    for path in sorted(glob.glob(os.path.join(EXPECTED, f"{workload}-seed*.json"))):
        expected.update(_read_digests(path))
    cache = os.path.join(OUT, "refcache", f"{workload}-{source_digest()}.json")
    expected.update(_read_digests(cache))
    missing = sorted(k for k in outputs if k not in expected)
    if missing:
        ref = run_child(
            {"role": "reference", "workload": workload, "seed": seed,
             "quick": quick, "keys": missing},
            timeout,
        )["digests"]
        if set(missing) - set(ref):
            raise BenchError(f"{workload}: reference run missed some items")
        cached = _read_digests(cache)
        cached.update(ref)
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        tmp = cache + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"digests": cached}, fh)
        os.replace(tmp, cache)
        expected.update(ref)
    return sum(
        1 for key, digests in outputs.items() for d in digests
        if d != expected[key]
    )


def regen_pool() -> str:
    problems = run_child({"role": "pool", "workload": "", "seed": 0},
                         timeout=3600)["problems"]
    path = os.path.join(HERE, "data", "random-pool.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"generator": "repro.spec.random_quotient_instance", '
                 '"fields": ["n_service", "n_component", "seed"],\n'
                 ' "problems": [\n')
        fh.write(",\n".join(json.dumps(p) for p in problems))
        fh.write("\n]}\n")
    return path


def regen_expected(workload: str, seed: int, quick: bool) -> str:
    ref = run_child(
        {"role": "reference", "workload": workload, "seed": seed,
         "quick": quick, "keys": None},
        timeout=3600,
    )["digests"]
    suffix = "-quick" if quick else ""
    path = os.path.join(EXPECTED, f"{workload}-seed{seed}{suffix}.json")
    os.makedirs(EXPECTED, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "quick": quick,
                "path": "reference (repro.spec.use_kernel(False))",
                "digests": dict(sorted(ref.items())),
            },
            fh,
            indent=1,
        )
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# one workload run
# ----------------------------------------------------------------------
def _latency_metrics(workload: str, result: dict) -> dict[str, float]:
    lat_ms = [s * 1e3 for s in result["latencies_s"]]
    if not lat_ms:
        raise BenchError(f"{workload}: no item completed")
    per_s = (
        result["completed"] / result["loop_s"]
        if workload == "serve-mix"  # two clients overlap
        else result["completed"] / result["item_s"]
    )
    return {
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_tail_ms": percentile(lat_ms, TAIL_PERCENTILE[workload]),
        "throughput_per_s": per_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool, bench: dict) -> dict:
    started = time.perf_counter()
    base = {"workload": workload, "seed": seed, "quick": quick}
    measure = dict(base, role="measure", trace=False, seconds=seconds)
    children = []
    if trace:
        # half the run untraced, half traced, for the overhead ratio
        measure["seconds"] = seconds / 2
        children.append(run_child(measure, timeout=seconds + 120))
        traced = dict(measure, trace=True)
        if workload != "serve-mix":
            os.makedirs(OUT, exist_ok=True)
            traced["chrome_trace"] = os.path.join(
                OUT, f"{workload}-seed{seed}.trace.json"
            )
        children.append(run_child(traced, timeout=seconds + 120))
        untraced_p50 = percentile(children[0]["latencies_s"], 50)
        layer = dict(children[1]["layer"])
        for name in SERVE_ONLY:
            layer.setdefault(name, 0.0)
        layer["trace.overhead_ratio"] = (
            percentile(children[1]["latencies_s"], 50) / untraced_p50
        )
        values = layer
        declared = bench["per_layer"]
        samples = {m["name"]: children[1]["completed"] for m in declared}
    else:
        setups = []
        if not quick:
            setup = dict(base, role="setup", trace=False, seconds=0)
            setups = [run_child(setup, timeout=120)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
        children.append(run_child(measure, timeout=seconds + 150))
        main = children[0]
        setups.append(main["setup_s"])
        values = _latency_metrics(workload, main)
        values["setup_s"] = statistics.median(setups)
        declared = bench["end_to_end"]
        samples = {m["name"]: main["completed"] for m in declared}
        samples["setup_s"] = len(setups)
        samples["peak_rss_mb"] = 1
    outputs: dict[str, list[str]] = {}
    for child in children:
        for key, digests in child["outputs"].items():
            outputs.setdefault(key, []).extend(digests)
    remaining = max(30.0, 170.0 - (time.perf_counter() - started))
    wrong = check_outputs(workload, seed, quick, outputs, remaining)
    problems = [p for c in children for p in c["problems"]]
    wrong += len(problems)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"{workload}: metric {m['name']} not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    record = {
        **base,
        "trace": trace,
        "seconds": seconds,
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "wrong_results": wrong,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "metrics": metrics,
        "samples": samples,
        "tail_percentile": TAIL_PERCENTILE[workload],
        "problems": problems[:5],
        "errors": [e for c in children for e in c["errors"]][:5],
        "wall_s": time.perf_counter() - started,
    }
    if trace and "detail" in children[1]:
        record["detail"] = children[1]["detail"]
    if "server_counters" in children[-1]:
        record["server_counters"] = children[-1]["server_counters"]
    return record


def print_record(record: dict) -> None:
    tag = f"[{record['workload']} seed={record['seed']}]"
    for name, m in record["metrics"].items():
        print(f"{tag} {name} = {m['value']:.6g} {m['unit']} "
              f"(n={record['samples'][name]})")
    for name, value in record.get("detail", {}).items():
        print(f"{tag}   {name} = {value:.6g}")
    print(f"{tag} wrong_results = {record['wrong_results']} count; "
          f"failed_ratio = {record['failed_ratio']:.4g} "
          f"({record['failed']}/{record['attempted']}); "
          f"wall {record['wall_s']:.1f} s")
    for line in record["problems"] + record["errors"]:
        print(f"{tag} ! {line}")
    sys.stdout.flush()


def run_metadata(args) -> dict:
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "quick": args.quick,
    }


def parse_args(argv, run_seconds: int):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(run_seconds),
                   help="measuring time per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="report the per-layer metrics instead")
    p.add_argument("--runs", type=int, default=1,
                   help="runs per workload, on seeds seed, seed+1, ...")
    p.add_argument("--out", help="write every run, with metadata, to FILE")
    p.add_argument("--quick", action="store_true",
                   help="small inputs, one pass each: the harness self-check")
    p.add_argument("--regen-expected", action="store_true",
                   help="rewrite expected/<workload>-seed<N>.json")
    p.add_argument("--regen-pool", action="store_true",
                   help="rewrite data/random-pool.json (then the expected "
                        "answers)")
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.runs < 1:
        p.error("--seconds and --runs must be positive")
    return args


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: no library source under {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    args = parse_args(argv, bench["run_seconds"])
    workloads = args.workload or list(WORKLOADS)
    if args.regen_pool:
        print(regen_pool())
        return 0
    if args.regen_expected:
        for workload in workloads:
            print(regen_expected(workload, args.seed, args.quick))
        return 0
    records = []
    try:
        for run in range(args.runs):
            for workload in workloads:
                record = run_workload(workload, args.seed + run, args.seconds,
                                      bool(args.trace), args.quick, bench)
                print_record(record)
                records.append(record)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"meta": run_metadata(args),
                       "runs": records}, fh, indent=1)
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
    }
    if len(records) == 1:
        summary["metrics"] = records[0]["metrics"]
    else:
        summary["workloads"] = {
            f"{r['workload']}@{r['seed']}": {
                name: m["value"] for name, m in r["metrics"].items()
            }
            for r in records
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
