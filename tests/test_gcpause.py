"""The scoped collector pause: held around solves, restored on every exit.

``repro.gcpause.gc_paused`` disables CPython's cyclic collector while
``solve_quotient``, ``compose`` and ``product_satisfies`` run.  The pause
is process-wide and counted, so whatever happens inside — a return, a
budget trip, an interrupt, a nested pause, another thread's pause — the
caller's setting must come back exactly, whether the collector was on or
off before.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro import obs
from repro.compose import compose
from repro.errors import BudgetExceeded, InterruptRequested
from repro.gcpause import gc_paused
from repro.obs import MetricsCollector
from repro.persist import InterruptController
from repro.quotient import Budget, solve_quotient
from repro.spec import random_quotient_instance, use_kernel


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def setting(request):
    """The collector switched on or off beforehand, restored afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was else gc.disable)()


def _problem(seed: int = 1):
    """A small random problem; seeds 1 and 20 have a converter."""
    service, component, int_events, _ = random_quotient_instance(seed=seed)
    return service, component, int_events


class _GcProbe(MetricsCollector):
    """Records whether the collector was enabled as each span opened."""

    def __init__(self) -> None:
        super().__init__()
        self.seen: list[tuple[str, bool]] = []

    def span_start(self, name, attrs=None):
        self.seen.append((name, gc.isenabled()))
        return super().span_start(name, attrs)


def test_a_returning_solve_restores_the_setting(setting):
    service, component, int_events = _problem()
    probe = _GcProbe()
    with obs.use_collector(probe):
        solve_quotient(service, component, int_events=int_events)
    assert gc.isenabled() is setting
    assert probe.seen and not any(enabled for _, enabled in probe.seen)


def test_a_budget_tripped_solve_restores_the_setting(setting):
    service, component, int_events = _problem()
    with pytest.raises(BudgetExceeded):
        solve_quotient(
            service, component, int_events=int_events,
            budget=Budget(max_pairs=1),
        )
    assert gc.isenabled() is setting


def test_an_interrupted_solve_restores_the_setting(setting):
    service, component, int_events = _problem()
    with pytest.raises(InterruptRequested):
        solve_quotient(
            service, component, int_events=int_events,
            interrupt=InterruptController(at_charge=2),
        )
    assert gc.isenabled() is setting


def test_a_nested_compose_keeps_the_solve_paused(setting):
    # on the labelled path verification composes B ‖ C inside the solve;
    # its pause ends before the check runs, which must stay paused
    service, component, int_events = _problem()
    probe = _GcProbe()
    with use_kernel(False), obs.use_collector(probe):
        solve_quotient(service, component, int_events=int_events)
    names = [name for name, _ in probe.seen]
    assert names.index("compose") < names.index("satisfies")
    assert not any(enabled for _, enabled in probe.seen)
    assert gc.isenabled() is setting

    with gc_paused():
        compose(service, service)
        assert not gc.isenabled()
    assert gc.isenabled() is setting


def test_another_threads_solve_does_not_end_this_pause(setting):
    service, component, int_events = _problem()
    with gc_paused():
        thread = threading.Thread(
            target=solve_quotient,
            args=(service, component),
            kwargs={"int_events": int_events},
        )
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        assert not gc.isenabled()
    assert gc.isenabled() is setting


def test_two_threads_solving_at_once_restore_the_setting(setting):
    """More threads than cores, a short switch interval: a lost update to
    the pause's depth would leave the collector off (or on) afterwards."""
    problems = [_problem(seed) for seed in (1, 20)]
    barrier = threading.Barrier(4)
    errors: list[BaseException] = []

    def solve_many(index: int) -> None:
        try:
            service, component, int_events = problems[index % 2]
            barrier.wait(30)
            for _ in range(20):
                solve_quotient(service, component, int_events=int_events)
                for _ in range(50):
                    with gc_paused():
                        # another thread's exit must not end this pause
                        assert not gc.isenabled()
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=solve_many, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert gc.isenabled() is setting


@pytest.fixture
def sweep_probe(monkeypatch):
    """The collector setting as each fault is applied and as each sweep
    checkpoint is written."""
    from repro.faults import resilience
    from repro.faults.models import FaultModel

    seen: dict[str, list[bool]] = {"apply": [], "checkpoint": []}
    real_apply = FaultModel.apply
    real_save = resilience.save_checkpoint

    def apply(model, spec):
        seen["apply"].append(gc.isenabled())
        return real_apply(model, spec)

    def save_checkpoint(path, checkpoint):
        seen["checkpoint"].append(gc.isenabled())
        return real_save(path, checkpoint)

    monkeypatch.setattr(FaultModel, "apply", apply)
    monkeypatch.setattr(resilience, "save_checkpoint", save_checkpoint)
    return seen


def _sweep(**kwargs):
    from repro.faults import evaluate_resilience

    service, component, int_events = _problem()
    result = solve_quotient(service, component, int_events=int_events)
    return evaluate_resilience(
        service, [component], result.converter,
        int_events=int_events, target=0, **kwargs,
    )


def _assert_sweep_paused(seen, setting):
    # each cell ran paused; every checkpoint write saw the caller's setting
    assert seen["apply"] and not any(seen["apply"])
    assert seen["checkpoint"]
    assert all(enabled is setting for enabled in seen["checkpoint"])
    assert gc.isenabled() is setting


def test_a_returning_sweep_restores_the_setting(setting, sweep_probe,
                                                tmp_path):
    matrix = _sweep(checkpoint=str(tmp_path / "sweep.ckpt"))
    assert len(sweep_probe["checkpoint"]) == len(matrix.cells)
    _assert_sweep_paused(sweep_probe, setting)


def test_a_budget_tripped_sweep_restores_the_setting(setting, sweep_probe,
                                                     tmp_path):
    matrix = _sweep(budget=Budget(max_states=2),
                    checkpoint=str(tmp_path / "sweep.ckpt"))
    assert any(cell.budget_exceeded for cell in matrix.cells)
    _assert_sweep_paused(sweep_probe, setting)


def test_an_interrupted_sweep_restores_the_setting(setting, sweep_probe,
                                                   tmp_path):
    probe = InterruptController()
    _sweep(interrupt=probe)
    sweep_probe["apply"].clear()
    with pytest.raises(InterruptRequested):
        _sweep(interrupt=InterruptController(at_charge=probe.charges // 2),
               checkpoint=str(tmp_path / "sweep.ckpt"))
    # the completed cells' writes, then the one on interrupt
    assert len(sweep_probe["checkpoint"]) >= 2
    _assert_sweep_paused(sweep_probe, setting)
