"""Oracle teeth: a sabotaged engine must make the harness raise.

Every other test under ``tests/chaos`` shows that a *correct* engine
reaches an outcome.  These show the converse — that the oracle bites:
each case monkeypatches the **subject** (never the oracle) into giving
one specific wrong answer on a pinned schedule and requires
:class:`~tools.chaos.ChaosViolation` /
:class:`~tools.crashgrid.CrashGridViolation`.  One sabotage per sweep
plus one for the crash grid; this is what makes refactoring the oracle
safe.
"""

from dataclasses import replace

import pytest

import tools.chaos as chaos
from repro import invariants, kernels
from repro.relational import Database
from repro.shard import CoPartitionedJoin, ShardCopy, ShardedDatabase
from repro.storage.faults import armed_disk_count
from repro.txn import TransactionCoordinator
from repro.txn.coordinator import TxnRecoveryReport
from tools.chaos import ChaosViolation, run_schedule
from tools.crashgrid import CrashGridViolation, run_crash_grid

BACKEND = kernels.available_backends()[0]


def _sabotage_armed_query(monkeypatch, mangle):
    """Rewrite the harness query's rows, but only in a world under fire
    (the fault-free baseline run must stay honest: it is the oracle)."""
    real = chaos.execute_sorted_query

    def sabotaged(design, *args, **kwargs):
        result = real(design, *args, **kwargs)
        if armed_disk_count() == 0:
            return result
        return replace(result, rows=mangle(design, result.rows))

    monkeypatch.setattr(chaos, "execute_sorted_query", sabotaged)


def _no_recovery(self):
    """A coordinator recovery pass that resolves nothing."""
    return TxnRecoveryReport(
        participant_reports=(),
        resolved_commits=0,
        resolved_aborts=0,
        reacked=(),
        total_rows=0,
    )


class TestOracleTeeth:
    @pytest.fixture(autouse=True)
    def harness_alone(self):
        """Engine-side ``REPRO_CHECKS`` validators off: they would catch
        some of these sabotages first, and it is the harness's own
        oracle that has to bite."""
        with invariants.checks(False):
            yield

    def test_read_sweep_catches_a_dropped_row(self, monkeypatch):
        _sabotage_armed_query(monkeypatch, lambda design, rows: rows[:-1])
        with pytest.raises(ChaosViolation, match="wrong multiset"):
            run_schedule("read", 23, backend=BACKEND)

    def test_prefetch_sweep_catches_worlds_that_disagree(self, monkeypatch):
        """Swap two rows that tie on the sort key in the prefetch world
        only: each stream is still a correct answer on its own, so the
        only check left to object is demand-vs-prefetch identity."""
        sort_pos = ("a1", "a2", "v").index(chaos.QUERY["sort_attr"])

        def swap_a_tie(design, rows):
            if design.heap.db.disk.stats.prefetch.prefetch_issued == 0:
                return rows  # the demand world stays honest
            tie = next(
                i
                for i in range(len(rows) - 1)
                if rows[i][sort_pos] == rows[i + 1][sort_pos]
            )
            swapped = list(rows)
            swapped[tie], swapped[tie + 1] = swapped[tie + 1], swapped[tie]
            return swapped

        _sabotage_armed_query(monkeypatch, swap_a_tie)
        with pytest.raises(ChaosViolation, match="demand and prefetch worlds"):
            run_schedule("prefetch", 3, backend=BACKEND)

    def test_write_sweep_catches_a_torn_page_left_behind(self, monkeypatch):
        monkeypatch.setattr(Database, "recover", lambda self: None)
        with pytest.raises(ChaosViolation, match="not bit-identical"):
            run_schedule("write", 7, backend=BACKEND)

    def test_shard_sweep_catches_an_unflagged_partial(self, monkeypatch):
        """Seed 29 loses a shard under ``allow_partial``; blanking the
        flag turns the honest partial into a silently truncated scan."""
        real = ShardedDatabase.sorted_scan

        def unflagged(self, *args, **kwargs):
            return replace(real(self, *args, **kwargs), failed_ranges=())

        monkeypatch.setattr(ShardedDatabase, "sorted_scan", unflagged)
        with pytest.raises(ChaosViolation, match="not bit-identical"):
            run_schedule("shard", 29, backend=BACKEND)

    @pytest.mark.parametrize(
        "mangle",
        [lambda rows: rows[:-1], lambda rows: rows[1:2] + rows[0:1] + rows[2:]],
        ids=["dropped", "reordered"],
    )
    def test_join_sweep_catches_a_wrong_output_row(self, monkeypatch, mangle):
        real = CoPartitionedJoin.run

        def sabotaged(self, *args, **kwargs):
            result = real(self, *args, **kwargs)
            return replace(result, rows=mangle(result.rows))

        monkeypatch.setattr(CoPartitionedJoin, "run", sabotaged)
        with pytest.raises(ChaosViolation, match="not bit-identical"):
            run_schedule("join", 6, backend=BACKEND)

    def test_txn_sweep_catches_an_unresolved_crash(self, monkeypatch):
        """Seed 23 crashes a shard WAL mid-work; without the presumed
        abort the half-written rows stay visible.  (Seed 85's crash
        lands after every row is in place, so the fingerprint scan alone
        cannot see its in-doubt prepared batch; the unacked-decision
        check catches it — see the next test.)"""
        monkeypatch.setattr(TransactionCoordinator, "recover", _no_recovery)
        with pytest.raises(ChaosViolation, match="neither verdict"):
            run_schedule("txn", 23, backend=BACKEND)

    def test_txn_sweep_catches_an_unacked_commit(self, monkeypatch):
        """Seed 85's commit verdict is durable but unacked when the
        shard WAL crashes; a recovery that resolves nothing leaves every
        row where the fingerprint expects it, and only the decision
        log's unacked entry shows the transaction was never driven."""
        monkeypatch.setattr(TransactionCoordinator, "recover", _no_recovery)
        with pytest.raises(ChaosViolation, match="unacked"):
            run_schedule("txn", 85, backend=BACKEND)

    def test_txn_sweep_catches_resolution_against_the_verdict(self, monkeypatch):
        """Seed 85 crashes a shard WAL's own commit record after the
        commit verdict is durable; a recovery that presumes abort anyway
        rolls the in-doubt batches back behind the decision log."""
        real = ShardCopy.txn_recover
        monkeypatch.setattr(
            ShardCopy,
            "txn_recover",
            lambda self, decide: real(self, lambda gid: False),
        )
        with pytest.raises(ChaosViolation, match="neither verdict"):
            run_schedule("txn", 85, backend=BACKEND)

    def test_crash_grid_catches_an_unresolved_crash(self, monkeypatch):
        monkeypatch.setattr(TransactionCoordinator, "recover", _no_recovery)
        with pytest.raises(CrashGridViolation):
            run_crash_grid("insert", backend=BACKEND, rows=16, extra_rows=6)
