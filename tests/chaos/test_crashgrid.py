"""Crash-schedule explorer tests (``tools.crashgrid``) and the 2PC
chaos sweep (``tools.chaos --txn``).

The explorer itself raises :class:`~tools.crashgrid.CrashGridViolation`
on any breach of the all-or-nothing contract — a crash point that never
fires, a post-recovery world matching neither the oracle nor the
baseline, an outcome contradicting the decision log, or a second
recovery pass that is not a no-op — so completing a grid at all *is*
the contract check.  These tests run complete (small) grids on every
backend and pin the structural claims on top.
"""

import pytest

from sweep_contract import BACKENDS, pinned, sweep_contract
from tools.chaos import SWEEPS
from tools.crashgrid import (
    WORKLOADS,
    measure_commit_overhead,
    run_crash_grid,
)


class TestCrashGrid:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_complete_grid_holds_the_contract(self, workload, backend):
        result = run_crash_grid(
            workload, backend=backend, rows=16, extra_rows=6
        )
        # complete enumeration: one schedule per append per device
        assert result.schedules == sum(result.appends_per_device)
        assert result.schedules > 10
        assert result.committed + result.aborted == result.schedules

    def test_every_device_is_explored(self):
        result = run_crash_grid("load", backend=BACKENDS[0], rows=16)
        assert result.devices[0] == "txn-log"
        assert set(result.devices) == {
            "txn-log",
            "shard0.copy0.wal",
            "shard0.copy0.disk",
            "shard1.copy0.wal",
            "shard1.copy0.disk",
        }
        assert all(count >= 1 for count in result.appends_per_device)

    def test_both_verdicts_are_reached(self):
        """The grid must witness commits *and* aborts — a grid that only
        ever aborts never exercised post-decision crash recovery."""
        result = run_crash_grid("load", backend=BACKENDS[0], rows=16)
        assert result.committed > 0
        assert result.aborted > 0

    def test_decision_log_agrees_with_every_outcome(self):
        result = run_crash_grid("load", backend=BACKENDS[0], rows=16)
        for point in result.points:
            if point.outcome == "committed":
                assert point.decided == "commit", point
            else:
                assert point.decided != "commit", point

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_crash_grid("vacuum")

    def test_commit_overhead_is_positive_and_bounded(self):
        bench = measure_commit_overhead(rows=16)
        assert bench["overhead_seconds"] > 0  # 2PC is not free
        assert bench["overhead_ratio"] < 2.0  # ...but not ruinous
        assert bench["txn_load_seconds"] > bench["raw_load_seconds"]


class TestTxnChaosSweep(sweep_contract("txn")):
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", SWEEPS["txn"].seeds)
    def test_schedule_converges(self, seed, backend):
        """Every pinned seed must inject real log faults, crash, and
        recover onto a decision-log-consistent state (verified inside
        the run)."""
        outcome = pinned("txn", seed, backend)[-1]
        assert outcome.faults_injected > 0, "seed stopped injecting"

    def test_pinned_seeds_cover_all_verdict_paths(self):
        """Seed 23 presumes abort, 6 re-acks a completed commit, 85
        drives in-doubt participants forward — together the sweep walks
        every recovery verdict path."""
        outcomes = {
            seed: pinned("txn", seed, BACKENDS[0])[-1]
            for seed in SWEEPS["txn"].seeds
        }
        assert all(o.status == "recovered" for o in outcomes.values())
        # seed 85's crash lands on a shard WAL's own commit record:
        # recovery must resolve both prepared batches forward
        assert outcomes[85].healed == 2
        assert outcomes[6].healed == 0
        assert outcomes[23].healed == 0
