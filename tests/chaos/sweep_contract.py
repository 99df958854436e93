"""The contract every row of :data:`tools.chaos.SWEEPS` honours, once.

``run_schedule`` raises ``ChaosViolation`` on any silent wrong answer,
so reaching an outcome at all *is* the correctness check; on top of
that every sweep promises the same four things about its pinned seeds,
and :func:`sweep_contract` states them as one parametrisation over
(sweep, seed, backend).  Nothing here knows a sweep's seeds, statuses,
parameters or how many outcomes a schedule yields — the table does.

Each sweep's test module binds the contract to its row by subclassing
(``class TestShardSweep(sweep_contract("shard"))``) and adds the pins
only that sweep has; binding per module keeps the test ids the CI
history and the tier-1 floor already know.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from repro import kernels
from tools.chaos import SWEEPS, ChaosOutcome, run_schedule

BACKENDS = kernels.available_backends()
#: the backend the session runs on (``REPRO_KERNEL_BACKEND`` or the best
#: available): what single-backend pins read their outcomes from
DEFAULT_BACKEND = kernels.get_backend().name


@lru_cache(maxsize=None)
def pinned(sweep, seed, backend):
    """The outcomes of one pinned schedule, run once per test session.

    Schedules are deterministic (``test_schedule_replays_exactly`` holds
    them to it against a fresh run), so every test that only *reads* an
    outcome shares one run per (sweep, seed, backend) cell.
    """
    return run_schedule(sweep, seed, backend=backend)


def sweep_contract(name):
    """A test-class base holding the shared contract for sweep ``name``."""
    sweep = SWEEPS[name]

    class SweepContract:
        @pytest.mark.parametrize("backend", BACKENDS)
        @pytest.mark.parametrize("seed", sweep.seeds)
        def test_schedule_honours_contract(self, seed, backend):
            for outcome in pinned(name, seed, backend):
                assert isinstance(outcome, ChaosOutcome)
                assert outcome.status in sweep.statuses
                if outcome.status == "failed":
                    assert outcome.error  # typed failure is always explained
                if outcome.status in ("degraded", "partial"):
                    assert outcome.degradations

        def test_pinned_seeds_cover_all_statuses(self):
            """The CI seeds stay a meaningful sweep: every status the
            table declares actually occurs."""
            reached = {
                pinned(name, seed, DEFAULT_BACKEND)[-1].status
                for seed in sweep.seeds
            }
            assert reached == sweep.statuses

        def test_schedule_replays_exactly(self):
            for seed in sweep.seeds:
                fresh = run_schedule(name, seed, backend=DEFAULT_BACKEND)
                # equality includes the full fault_log
                assert fresh == pinned(name, seed, DEFAULT_BACKEND)

        def test_outcomes_identical_across_backends(self):
            if len(BACKENDS) < 2:
                pytest.skip("only one kernel backend available")
            for seed in sweep.seeds:
                reference, *others = (
                    tuple(replace(o, backend="") for o in pinned(name, seed, b))
                    for b in BACKENDS
                )
                for other in others:
                    assert other == reference

    return SweepContract
