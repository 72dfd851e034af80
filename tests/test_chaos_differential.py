"""Differential suite: checkpoints survive store faults byte-identically.

For a seeded :class:`~repro.chaos.ChaosPlan` that makes store I/O hit
``ENOSPC``/``EIO``/torn writes (see ``docs/robustness.md``), a solve
interrupted mid-run, checkpointed through the faulty store, reloaded and
resumed must equal the uninterrupted fault-free run in every observable
output (converter, ``f``, phase records, verification verdict).  The
served-job fault (``serve.job`` raise) is pinned end to
end by ``tests/test_serve_differential.py``.
"""

import pytest

from repro.chaos import ChaosPlan, use_chaos
from repro.persist import (
    InterruptController,
    load_checkpoint,
    save_checkpoint,
)
from repro.quotient import solve_quotient
from repro.spec import random_quotient_instance


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
        None if result.verification is None else result.verification.holds,
    )


# ----------------------------------------------------------------------
# checkpoint round-trips under store fault schedules
# ----------------------------------------------------------------------
class TestCheckpointsUnderStoreChaos:
    SEEDS = (1, 18, 20)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interrupt_persist_resume_under_io_faults(self, seed, tmp_path):
        from repro.errors import InterruptRequested

        instance = random_quotient_instance(seed=seed)
        probe = InterruptController()
        baseline = _solve(instance, interrupt=probe)
        if probe.charges < 3:
            pytest.skip("run too short to interrupt")
        at_charge = probe.charges // 2
        with pytest.raises(InterruptRequested) as excinfo:
            _solve(
                instance,
                interrupt=InterruptController(at_charge=at_charge),
            )
        ckpt = excinfo.value.checkpoint
        assert ckpt is not None
        path = str(tmp_path / "ckpt.json")
        # the save hits transient ENOSPC then a torn write on rewrite;
        # the load hits a transient read error — all healed invisibly
        plan = ChaosPlan(seed=seed, write_enospc_at=(0,), read_error_at=(0,))
        with use_chaos(plan):
            save_checkpoint(path, ckpt)
            loaded = load_checkpoint(path)
        resumed = _solve(instance, resume_from=loaded)
        assert _key(resumed) == _key(baseline)
