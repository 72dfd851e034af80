"""Self-checks of the metric catalogue against the documentation.

Every span/counter/gauge/event name emitted anywhere under ``src/repro``
must be catalogued in ``docs/observability.md``, and every name the
catalogue lists must still be emitted — documentation and
instrumentation cannot drift apart silently (the ``docs/lint.md``
counterpart is ``tests/test_lint_registry.py``).

The scan is AST-based, so names inside docstrings don't count and
f-string names (``f"faults.{phase}_broken"``) are matched structurally:
each interpolated piece becomes a ``*`` wildcard, and the docs spell the
same position as an angle-bracket placeholder (``faults.<phase>_broken``).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "observability.md"

#: obs facade calls the scan recognises, mapped to catalogue kind.
KINDS = {"add": "counter", "gauge": "gauge", "event": "event", "span": "span"}

#: Names emitted through lookup tables or aliased imports that a literal
#: ``obs.X("name", ...)`` scan cannot see; each entry notes the site.
INDIRECT = {
    "counter": {
        # simulate/engine.py charges through the _MOVE_COUNTER table
        # (precomputed so the hot disabled path pays no formatting)
        "sim.moves.internal",
        "sim.moves.interaction",
        "sim.moves.external",
        # obs/ledger.py counts through ``from .core import add as _count``
        # (it must not import the facade it sits underneath)
        "ledger.appends",
        "ledger.corrupt_skipped",
        "ledger.gc_removed",
        # obs/core.py's gc.callbacks hook writes the collector's counter
        # map directly (it may run inside a locked collector method)
        "gc.collections.gen*",
        "gc.collect_ms",
    },
}


def _name_pattern(node):
    """The metric-name literal of a call's first argument, or None.

    f-strings normalize to a wildcard per interpolated piece.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            piece.value if isinstance(piece, ast.Constant) else "*"
            for piece in node.values
        )
    return None


def emitted_names():
    names = {kind: set() for kind in KINDS.values()}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "obs"
                and node.func.attr in KINDS
                and node.args
            ):
                continue
            name = _name_pattern(node.args[0])
            if name is not None:
                names[KINDS[node.func.attr]].add(name)
    for kind, extra in INDIRECT.items():
        names[kind].update(extra)
    return names


def documented_names():
    """The catalogue tables, keyed by kind, ``<...>`` → ``*`` wildcard."""
    text = DOC.read_text(encoding="utf-8")
    section = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    names = {kind: set() for kind in KINDS.values()}
    current = None
    for line in section.splitlines():
        if line.startswith("Spans:"):
            current = "span"
        elif line.startswith("Counters and gauges:"):
            current = "metric"
        elif line.startswith("Instant events:"):
            current = "event"
        if current is None or not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        row = {
            re.sub(r"<[^>]*>", "*", m)
            for m in re.findall(r"`([^`]+)`", cells[0])
        }
        if not row:
            continue  # header / separator rows carry no backticked names
        if current == "metric":
            if cells[1] not in ("counter", "gauge"):
                continue
            names[cells[1]].update(row)
        else:
            names[current].update(row)
    return names


@pytest.fixture(scope="module")
def emitted():
    return emitted_names()


@pytest.fixture(scope="module")
def documented():
    return documented_names()


def test_scan_finds_the_core_names(emitted):
    # guards the AST scan itself: an empty set would pass vacuously
    assert "quotient.safety.pairs_explored" in emitted["counter"]
    assert "quotient.progress.final_states" in emitted["gauge"]
    assert "budget.exceeded" in emitted["event"]
    assert "solve_quotient" in emitted["span"]
    assert "faults.*_broken" in emitted["counter"]  # f-string normalized


@pytest.mark.parametrize("kind", sorted(KINDS.values()))
def test_every_emitted_name_is_documented(kind, emitted, documented):
    missing = emitted[kind] - documented[kind]
    assert not missing, (
        f"{kind} names emitted in src/repro but absent from the "
        f"docs/observability.md catalogue: {sorted(missing)}"
    )


@pytest.mark.parametrize("kind", sorted(KINDS.values()))
def test_every_documented_name_is_emitted(kind, emitted, documented):
    stray = documented[kind] - emitted[kind]
    assert not stray, (
        f"{kind} names catalogued in docs/observability.md but no longer "
        f"emitted anywhere in src/repro: {sorted(stray)}"
    )


def test_no_name_is_both_counter_and_gauge(emitted):
    clash = emitted["counter"] & emitted["gauge"]
    assert not clash, f"names used as both counter and gauge: {sorted(clash)}"
