"""Seeded inputs and the timed calls of the four end-to-end workloads.

Each workload turns ``(seed, quick)`` into a list of *items* and knows how
to run one item through the public API.  Only the call into the program
is timed; digests of its outputs are taken afterwards, so checking never
counts as work.  The generators hand the program only specifications and
job documents — the same inputs a user would build.

Digests are SHA-256 over the canonical JSON of a result body with
``stats``/``degradations`` stripped, exactly as
:func:`repro.serve.jobs.execute_job` strips them.  Batch solves also
digest the converter itself, which the body only summarises.  An item's
*key* is the SHA-256 of its inputs, so expected answers recorded for one
seed apply to every seed that generates the same input.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Any

from repro.compose import compose_many
from repro.faults import default_grid, evaluate_resilience
from repro.io.json_codec import spec_to_dict
from repro.protocols.configs import (
    colocated_scenario,
    symmetric_scenario,
    weakened_symmetric_scenario,
)
from repro.protocols.handshake import handshake_scenario, lossy_handshake_scenario
from repro.quotient import solve_quotient
from repro.quotient.kernel import problem_cache_clear
from repro.spec import SpecBuilder, compiled_cache_clear, random_quotient_instance

#: Scenario solves in the corpus: Fig. 9, Fig. 13, the Sec. 5 weakened
#: system, and the handshake pair (one converter exists, one does not).
CORPUS_SCENARIOS = {
    "fig9-symmetric": symmetric_scenario,
    "fig13-colocated": colocated_scenario,
    "sec5-weakened": weakened_symmetric_scenario,
    "handshake": handshake_scenario,
    "lossy-handshake": lossy_handshake_scenario,
}

#: Severity sets of the served resilience jobs; distinct sets are distinct
#: jobs, so the first of each computes and repeats hit the result cache.
SERVE_SEVERITIES = ([1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3])


def sha256(doc: Any) -> str:
    """SHA-256 of *doc*'s canonical JSON."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_body(result) -> dict:
    """A :class:`QuotientResult` as the server would cache it."""
    body = result.to_json_dict()
    body.pop("stats", None)
    body.pop("degradations", None)
    return body


def solve_digest_doc(result) -> dict:
    converter = result.converter
    return {
        "body": result_body(result),
        "converter": spec_to_dict(converter) if converter is not None else None,
    }


def clear_kernel_caches() -> None:
    compiled_cache_clear()
    problem_cache_clear()


# ----------------------------------------------------------------------
# items
# ----------------------------------------------------------------------
@dataclass
class Item:
    """One unit of timed work; ``key`` is filled in by :func:`item_key`."""

    label: str
    inputs: Any
    key: str | None = None


def item_key(workload, item: Item) -> str:
    """The SHA-256 of *item*'s inputs, computed once per item object."""
    if item.key is None:
        item.key = workload.key(item)
    return item.key


#: Generator arguments ``[n_service, n_component, seed]`` of the random
#: problems the corpus and the served solves draw from (``run.py
#: --regen-pool`` rewrites it).  The pool drops the roughly one in 1,200
#: problems whose work exceeds :data:`POOL_MAX_WORK`: single solves of up
#: to a second, which would make a seed's throughput and peak memory hinge
#: on whether it drew one.  The big-product case is ``relay-k6``'s job.
POOL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "data", "random-pool.json")

#: Work of a pool problem: reachable composite states plus safety pairs
#: explored plus progress pairs checked, as the obs counters count them.
POOL_MAX_WORK = 10_000
POOL_SIZE = 6_000


def _problem(n_service: int, n_component: int, seed: int):
    service, component, internal, _ = random_quotient_instance(
        n_service=n_service, n_component=n_component, seed=seed
    )
    return service, component, tuple(internal)


def random_problems(rng: random.Random):
    """Pool problems in a seeded order, without repeats."""
    with open(POOL_PATH, encoding="utf-8") as fh:
        pool = json.load(fh)["problems"]
    rng.shuffle(pool)
    for n_service, n_component, seed in pool:
        yield _problem(n_service, n_component, seed)


def screen_pool() -> list[list[int]]:
    """Draw :data:`POOL_SIZE` random problems (2–4 service states, 6–14
    component states) whose work stays within :data:`POOL_MAX_WORK`."""
    from repro import obs

    rng = random.Random("random-pool")
    pool: list[list[int]] = []
    while len(pool) < POOL_SIZE:
        args = [rng.randint(2, 4), rng.randint(6, 14), rng.randrange(2**31)]
        service, component, internal = _problem(*args)
        with obs.use_collector() as collector:
            solve_quotient(service, component, int_events=internal)
        work = sum(
            collector.counters.get(name, 0)
            for name in ("compose.reachable_states",
                         "quotient.safety.pairs_explored",
                         "quotient.progress.pairs_checked")
        )
        if work <= POOL_MAX_WORK:
            pool.append(args)
    return pool


def relay_problem(k: int):
    """k independent ``x_i -> m_i -> n_i -> y_i`` relays, one joint service.

    The component is the 4^k-state composite; the maximal converter has
    3^k + 1 states.
    """
    services, components = [], []
    for i in range(k):
        services.append(
            SpecBuilder(f"A{i}")
            .external(0, f"x{i}", 1)
            .external(1, f"y{i}", 0)
            .initial(0)
            .build()
        )
        components.append(
            SpecBuilder(f"B{i}")
            .external(0, f"x{i}", 1)
            .external(1, f"m{i}", 2)
            .external(2, f"n{i}", 3)
            .external(3, f"y{i}", 0)
            .initial(0)
            .build()
        )
    return (
        compose_many(services, name=f"A^{k}"),
        compose_many(components, name=f"B^{k}"),
    )


class _Solves:
    """Items that are one ``solve_quotient`` call each."""

    def before(self, item: Item) -> None:
        pass

    def execute(self, item: Item):
        service, component, int_events = item.inputs
        return solve_quotient(service, component, int_events=int_events)

    def key(self, item: Item) -> str:
        service, component, int_events = item.inputs
        return sha256(
            {
                "kind": "solve",
                "service": spec_to_dict(service),
                "component": spec_to_dict(component),
                "int_events": (sorted(int_events)
                               if int_events is not None else None),
            }
        )

    def digest(self, item: Item, result) -> tuple[str, list[str]]:
        """``(digest, mismatches with known answers)``."""
        return sha256(solve_digest_doc(result)), []


class RelayK6(_Solves):
    """Solves of one big product, kernel caches cleared before each."""

    def __init__(self, seed: int, quick: bool) -> None:
        # the instance is fixed by k; the seed has nothing to vary
        self.k = 4 if quick else 6
        service, component = relay_problem(self.k)
        self.items = [Item(f"relay-k{self.k}", (service, component, None))]

    def before(self, item: Item) -> None:
        clear_kernel_caches()

    def digest(self, item: Item, result) -> tuple[str, list[str]]:
        digest, mismatches = super().digest(item, result)
        expected = 3**self.k + 1
        states = len(result.converter.states) if result.exists else 0
        if states != expected:
            mismatches.append(
                f"relay k={self.k}: |C| = {states}, analytic 3^k + 1 = {expected}"
            )
        return digest, mismatches


class PaperCorpus(_Solves):
    """2,000 small solves in seeded, stratified order.

    Blocks of 40 items hold one solve of each paper scenario and 35 random
    problems, shuffled within the block, so any prefix of the corpus (a
    run that ends mid-pass) keeps the mix of the whole.
    """

    BLOCK_RANDOM = 35

    def __init__(self, seed: int, quick: bool) -> None:
        blocks = 5 if quick else 50
        rng = random.Random(f"paper-corpus/{seed}")
        problems = random_problems(rng)
        scenarios = []
        for name, make in CORPUS_SCENARIOS.items():
            sc = make()
            inputs = (sc.service, sc.composite,
                      tuple(sorted(sc.interface.int_events)))
            # one shared item per scenario, so its key is hashed once
            scenarios.append(Item(name, inputs))
        self.items: list[Item] = []
        for _ in range(blocks):
            block = scenarios + [
                Item("random", next(problems)) for _ in range(self.BLOCK_RANDOM)
            ]
            rng.shuffle(block)
            self.items.extend(block)


class ResilienceSweep:
    """Samples of two resilience sweeps that share their component specs.

    One sample, per scenario: ``compose_many`` of the components, the
    baseline ``solve_quotient``, then ``evaluate_resilience`` over the
    default grid at severities 1 and 2 with re-derivation.  Caches are
    cleared between samples, so each sample measures only the reuse among
    its own related problems.
    """

    SEVERITIES = (1, 2)

    def __init__(self, seed: int, quick: bool) -> None:
        make = {"weakened": weakened_symmetric_scenario,
                "colocated": colocated_scenario}
        scenarios = []
        for name in ("colocated",) if quick else ("weakened", "colocated"):
            sc = make[name]()
            scenarios.append(
                (name, sc.service, tuple(sc.components),
                 tuple(sorted(sc.interface.int_events)))
            )
        # the inputs are fixed; the seed only orders the scenarios
        random.Random(f"resilience-sweep/{seed}").shuffle(scenarios)
        self.items = [Item("sweep", tuple(scenarios))]

    def before(self, item: Item) -> None:
        clear_kernel_caches()

    def execute(self, item: Item):
        outputs = []
        for name, service, components, int_events in item.inputs:
            composite = compose_many(list(components))
            result = solve_quotient(service, composite, int_events=int_events)
            matrix = evaluate_resilience(
                service,
                list(components),
                result.converter,
                int_events=int_events,
                grid=default_grid(self.SEVERITIES),
            )
            outputs.append((name, result, matrix))
        return outputs

    def key(self, item: Item) -> str:
        return sha256(
            {
                "kind": "sweep",
                "severities": list(self.SEVERITIES),
                "scenarios": {
                    name: {
                        "service": spec_to_dict(service),
                        "components": [spec_to_dict(c) for c in components],
                        "int_events": list(int_events),
                    }
                    for name, service, components, int_events in item.inputs
                },
            }
        )

    def digest(self, item: Item, outputs) -> tuple[str, list[str]]:
        return sha256(
            {
                name: {
                    "solve": solve_digest_doc(result),
                    "matrix": matrix.to_json_dict(),
                }
                for name, result, matrix in outputs
            }
        ), []


class ServeMix:
    """Seeded job documents for a closed loop against the derivation server.

    The mix: 45% new small solves, 40% resubmissions of an earlier solve
    (cache hits), 8% back-to-back twins (the second submission joins the
    first in flight), 4% colocated resilience jobs, 3% analyze jobs.
    """

    #: documents generated per run: about 2.5 times the jobs the server
    #: completes in a 20 s run, so the loop does not run dry
    FULL_JOBS = 1500
    QUICK_JOBS = 60

    def __init__(self, seed: int, quick: bool) -> None:
        n_jobs = self.QUICK_JOBS if quick else self.FULL_JOBS
        rng = random.Random(f"serve-mix/{seed}")
        problems = random_problems(random.Random(f"serve-mix/{seed}/problems"))
        sc = colocated_scenario()
        baseline = solve_quotient(
            sc.service, sc.composite, int_events=sc.interface.int_events
        )
        resilience_payload = {
            "service": spec_to_dict(sc.service),
            "components": [spec_to_dict(c) for c in sc.components],
            "converter": spec_to_dict(baseline.converter),
        }
        solved: list[dict] = []
        self.items: list[Item] = []
        for _ in range(n_jobs):
            roll = rng.random()
            if 0.45 <= roll < 0.85 and solved:
                op, doc = "resubmit", rng.choice(solved)
            elif roll < 0.93:
                # a twin: one client submits it twice, back to back
                op = "new" if roll < 0.85 else "twin"
                doc = self._solve_doc(next(problems))
                solved.append(doc)
            elif roll < 0.97:
                op = "resilience"
                doc = {
                    "kind": "resilience",
                    "payload": dict(
                        resilience_payload,
                        severities=rng.choice(SERVE_SEVERITIES),
                    ),
                }
            else:
                service, component, _ = next(problems)
                op = "analyze"
                doc = {
                    "kind": "analyze",
                    "payload": {
                        "specs": [spec_to_dict(service), spec_to_dict(component)]
                    },
                }
            self.items.append(Item(op, doc))

    @staticmethod
    def _solve_doc(problem) -> dict:
        service, component, int_events = problem
        return {
            "kind": "solve",
            "payload": {
                "service": spec_to_dict(service),
                "component": spec_to_dict(component),
                "int_events": list(int_events),
            },
        }

    def key(self, item: Item) -> str:
        return sha256(item.inputs)


def build(name: str, seed: int, quick: bool):
    """The workload object for *name* with its inputs generated."""
    cls = {
        "relay-k6": RelayK6,
        "paper-corpus": PaperCorpus,
        "resilience-sweep": ResilienceSweep,
        "serve-mix": ServeMix,
    }[name]
    return cls(seed, quick)


def reference_digest(workload, item: Item) -> str:
    """*item*'s digest computed on the labelled reference path.

    ``use_kernel(False)`` runs the paper's definitions directly instead of
    the compiled kernel; the caller installs it.
    """
    if isinstance(workload, ServeMix):
        from repro.serve.jobs import JobRequest, execute_job

        return sha256(execute_job(JobRequest.from_json_dict(item.inputs)).body)
    workload.before(item)
    digest, _ = workload.digest(item, workload.execute(item))
    return digest
