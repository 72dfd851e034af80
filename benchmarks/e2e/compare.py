"""Compare two sets of benchmark runs under the ``BENCHMARK.json`` bounds.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --runs 5 --out A.json     # parent commit
    python3 benchmarks/e2e/run.py --runs 5 --out B.json     # the change
    python3 benchmarks/e2e/compare.py A.json B.json

For each workload and end-to-end metric it prints the median and
quartiles of each side across runs and a verdict:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``better``     — B's median is better by more than the bound;
* ``unresolved`` — the quartile spread (as a share of the median) of
                   either side exceeds the bound, so the runs cannot tell,
                   unless every run of B beats every run of A (``better``);
* ``unchanged``  — otherwise.

A rise in the failed share or any wrong result in B is a regression too.
Exits 1 on any regression.  With one file it prints each metric's spread
against its bound instead (the calibration check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict

from stats import summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced runs of a ``run.py --out`` file, grouped by workload."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    runs: dict[str, list[dict]] = defaultdict(list)
    for run in doc["runs"]:
        if not run["trace"]:
            runs[run["workload"]].append(run)
    return runs


def values(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, change)``; *change* > 0 means B is worse than A."""
    sa, sb = summary(a), summary(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (sb["median"] - sa["median"]) / abs(sa["median"])
    if max(sa["spread"], sb["spread"]) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("better" if all_better else "unresolved"), change
    if change > bound:
        return "worse", change
    if -change > bound:
        return "better", change
    return "unchanged", change


def _fmt(s: dict) -> str:
    return (f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
            f"±{100 * s['spread']:.1f}% n={s['n']}")


def calibrate(runs: dict[str, list[dict]], bench: dict) -> int:
    """Print each metric's spread against a third of its bound."""
    loose = 0
    for workload, wruns in sorted(runs.items()):
        for m in bench["end_to_end"]:
            vals = values(wruns, m["name"])
            if not vals:
                continue
            s = summary(vals)
            ok = s["spread"] < m["bound"] / 3
            loose += not ok and m["name"] != "setup_s"
            print(f"{workload:17} {m['name']:17} {_fmt(s):44} "
                  f"bound {m['bound']:.2f} {'ok' if ok else 'LOOSE'}")
    return 1 if loose else 0


def compare(a_runs, b_runs, bench: dict) -> int:
    regressions = 0
    for workload in sorted(set(a_runs) | set(b_runs)):
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a or not b:
            print(f"{workload}: missing on one side, not compared")
            continue
        for m in bench["end_to_end"]:
            va, vb = values(a, m["name"]), values(b, m["name"])
            if not va or not vb:
                continue
            v, change = verdict(va, vb, m["better"], m["bound"])
            regressions += v == "worse"
            print(f"{workload:17} {m['name']:17} A {_fmt(summary(va)):40} "
                  f"B {_fmt(summary(vb)):40} {100 * change:+6.1f}% {v}")
        wrong = sum(r["wrong_results"] for r in b)
        failed_a = max(r["failed_ratio"] for r in a)
        failed_b = max(r["failed_ratio"] for r in b)
        if wrong:
            print(f"{workload:17} wrong_results     B has {wrong}: regression")
            regressions += 1
        if failed_b > failed_a:
            print(f"{workload:17} failed_ratio      {failed_a:.4g} -> "
                  f"{failed_b:.4g}: regression")
            regressions += 1
    return 1 if regressions else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("files", nargs="+", metavar="RUNS.json",
                   help="one file to check its spreads, two to compare A B")
    args = p.parse_args(argv)
    if len(args.files) > 2:
        p.error("give one or two run files")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    runs = [load_runs(path) for path in args.files]
    if len(runs) == 1:
        return calibrate(runs[0], bench)
    return compare(runs[0], runs[1], bench)


if __name__ == "__main__":
    sys.exit(main())
