"""Differential property test: interrupt anywhere, resume, compare.

The pinned contract (the heart of crash-safe resume): for ANY problem and
ANY charge boundary, a solve interrupted there and resumed from its
checkpoint produces results identical to the uninterrupted run — same
converter, same ``f``, same safety machine, same work counters, same
progress rounds — on the compiled-kernel and the reference path alike.

The interrupt point is drawn as a fraction of the run's total charge
count (probed with a counting :class:`InterruptController`), so the test
exercises interruptions in the safety phase, the progress phase, and the
final verification alike.  The checkpoint is additionally round-tripped
through JSON on every example, so what is compared is what a crash would
actually leave on disk.
"""

import json

from hypothesis import assume, given, settings, strategies as st

from repro.errors import InterruptRequested
from repro.persist import Checkpoint, InterruptController
from repro.quotient import solve_quotient
from repro.spec import random_quotient_instance, use_kernel

SEEDS = st.integers(min_value=0, max_value=10_000)
FRACTIONS = st.floats(min_value=0.0, max_value=1.0)


def _solve(instance, **kwargs):
    service, component, internal, _ = instance
    return solve_quotient(service, component, int_events=internal, **kwargs)


def _key(result):
    return (
        result.exists,
        result.converter,
        result.f,
        result.c0,
        result.c0_f,
        result.safety.spec,
        result.safety.f,
        result.safety.explored,
        result.safety.rejected,
        None if result.progress is None else result.progress.rounds,
        result.verification,
    )


def _interrupt_and_resume(instance, fraction, *, resume_kernel=None):
    """Interrupt at ``fraction`` of the run's charges, then resume."""
    probe = InterruptController()
    baseline = _solve(instance, interrupt=probe)
    total = probe.charges
    assume(total >= 2)  # trivial runs have no interior boundary
    at_charge = 1 + round(fraction * (total - 2))
    try:
        _solve(instance, interrupt=InterruptController(at_charge=at_charge))
    except InterruptRequested as exc:
        ckpt = exc.checkpoint
        assert ckpt is not None
        # resume from what a crash would leave on disk
        ckpt = Checkpoint.from_json_dict(
            json.loads(json.dumps(ckpt.to_json_dict()))
        )
        if resume_kernel is None:
            resumed = _solve(instance, resume_from=ckpt)
        else:
            with use_kernel(resume_kernel):
                resumed = _solve(instance, resume_from=ckpt)
        return _key(baseline), _key(resumed)
    # at_charge <= total, so the interrupt must have fired
    raise AssertionError(
        f"interrupt at charge {at_charge}/{total} never fired"
    )


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, fraction=FRACTIONS)
def test_resume_identical_kernel_path(seed, fraction):
    instance = random_quotient_instance(seed=seed)
    with use_kernel(True):
        baseline, resumed = _interrupt_and_resume(instance, fraction)
    assert resumed == baseline


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, fraction=FRACTIONS)
def test_resume_identical_reference_path(seed, fraction):
    instance = random_quotient_instance(seed=seed)
    with use_kernel(False):
        baseline, resumed = _interrupt_and_resume(instance, fraction)
    assert resumed == baseline


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, fraction=FRACTIONS, to_kernel=st.booleans())
def test_resume_crosses_paths(seed, fraction, to_kernel):
    """Checkpoints are path-independent: interrupt on one path, resume on
    the other, still identical (pair sets are stored in the reference
    representation, never as kernel codes)."""
    instance = random_quotient_instance(seed=seed)
    with use_kernel(not to_kernel):
        baseline, resumed = _interrupt_and_resume(
            instance, fraction, resume_kernel=to_kernel
        )
    assert resumed == baseline
