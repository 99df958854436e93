"""Tests for atomic cross-shard transactions (``repro.txn``).

The load-bearing claim: a multi-shard write driven through the
:class:`~repro.txn.TransactionCoordinator` commits on every shard or on
none — in-process failures abort everywhere, crashes resolve through the
decision log (commit exactly when the verdict is durable, presumed
abort otherwise), and recovery is idempotent.  The exhaustive version of
the crash claim lives in ``tools.crashgrid``; these tests pin the
protocol's individual gears.
"""

import random

import pytest

from repro import invariants, telemetry
from repro.invariants import InvariantViolation
from repro.relational import Attribute, IntEncoder, Schema
from repro.shard import ShardedDatabase
from repro.storage import SimulatedCrashError
from repro.storage.errors import StorageError
from repro.txn import (
    CoordinatorStateError,
    DecisionLog,
    TransactionCoordinator,
    TxnAbortedError,
    TxnEvent,
)

from oracles import set_enabled

DIMS = ("a1", "a2")
FULL = {"a1": (0, 1023)}


def make_schema() -> Schema:
    return Schema(
        [
            Attribute("a1", IntEncoder(0, 1023)),
            Attribute("a2", IntEncoder(0, 1023)),
            Attribute("v", IntEncoder(0, 10**9)),
        ]
    )


def make_rows(count, seed=99):
    rng = random.Random(seed)
    return [(rng.randrange(1024), rng.randrange(1024), i) for i in range(count)]


def make_world(*, shards=2, copies=1, wal=True):
    sdb = ShardedDatabase(
        make_schema(),
        DIMS,
        "a1",
        shards=shards,
        copies=copies,
        page_capacity=8,
        wal=wal,
    )
    return sdb, TransactionCoordinator(sdb)


def fingerprint(sdb):
    return tuple(sdb.sorted_scan(FULL, "a2").rows)


# ----------------------------------------------------------------------
# the decision log
# ----------------------------------------------------------------------
class TestDecisionLog:
    def test_prepare_decision_ack_lifecycle(self):
        log = DecisionLog()
        log.log_prepare("g1", ("s0", "s1"))
        assert log.prepared_gids() == ("g1",)
        (prepare,) = log._records_for("g1", "prepare")
        assert prepare.records == ("s0", "s1")
        assert log.decision_for("g1") is None
        log.log_decision("g1", "commit")
        assert log.decision_for("g1") == "commit"
        assert log.unacked_decisions() == (("g1", "commit"),)
        log.log_ack("g1")
        assert log.acked("g1")
        assert log.unacked_decisions() == ()

    def test_duplicate_prepare_rejected(self):
        log = DecisionLog()
        log.log_prepare("g1", ("s0",))
        with pytest.raises(CoordinatorStateError):
            log.log_prepare("g1", ("s0",))

    def test_empty_roster_rejected(self):
        log = DecisionLog()
        with pytest.raises(CoordinatorStateError):
            log.log_prepare("g1", ())

    def test_decision_without_prepare_rejected(self):
        log = DecisionLog()
        with pytest.raises(CoordinatorStateError):
            log.log_decision("ghost", "commit")

    def test_illegal_verdict_rejected(self):
        log = DecisionLog()
        log.log_prepare("g1", ("s0",))
        with pytest.raises(CoordinatorStateError):
            log.log_decision("g1", "maybe")

    def test_contradictory_verdict_rejected(self):
        log = DecisionLog()
        log.log_prepare("g1", ("s0",))
        log.log_decision("g1", "commit")
        with pytest.raises(CoordinatorStateError):
            log.log_decision("g1", "abort")

    def test_identical_verdict_is_idempotent(self):
        log = DecisionLog()
        log.log_prepare("g1", ("s0",))
        log.log_decision("g1", "abort")
        before = len(log.records)
        log.log_decision("g1", "abort")
        assert len(log.records) == before

    def test_ack_requires_decision(self):
        log = DecisionLog()
        log.log_prepare("g1", ("s0",))
        with pytest.raises(CoordinatorStateError):
            log.log_ack("g1")

    def test_ack_is_idempotent(self):
        log = DecisionLog()
        log.log_prepare("g1", ("s0",))
        log.log_decision("g1", "commit")
        log.log_ack("g1")
        before = len(log.records)
        log.log_ack("g1")
        assert len(log.records) == before

    def test_crashed_prepare_leaves_no_mapping(self):
        log = DecisionLog()
        log.crash_after_appends(1)
        with pytest.raises(SimulatedCrashError):
            log.log_prepare("g1", ("s0",))
        assert log.prepared_gids() == ()
        # the gid is reusable: the crashed append never happened
        log.log_prepare("g1", ("s0",))
        assert log.prepared_gids() == ("g1",)


# ----------------------------------------------------------------------
# commit path
# ----------------------------------------------------------------------
class TestCommit:
    def test_atomic_load_commits_everywhere(self):
        rows = make_rows(120)
        sdb, txn = make_world(shards=3)
        result = txn.atomic_load(rows)
        assert result.verdict == "commit"
        assert result.rows == 120
        assert result.participants == (
            "shard0.copy0",
            "shard1.copy0",
            "shard2.copy0",
        )
        plain = ShardedDatabase(
            make_schema(), DIMS, "a1", shards=3, page_capacity=8
        )
        plain.load(rows)
        assert fingerprint(sdb) == fingerprint(plain)

    def test_load_routes_through_attached_coordinator(self):
        rows = make_rows(60)
        sdb, txn = make_world()
        assert sdb.load(rows) == 60
        assert txn.log.prepared_gids() == ("load#0",)
        assert txn.log.decision_for("load#0") == "commit"
        assert txn.log.acked("load#0")

    def test_insert_batch_routes_through_attached_coordinator(self):
        sdb, txn = make_world()
        sdb.load(make_rows(40))
        total = sdb.insert_batch(make_rows(12, seed=5))
        assert total == 52
        assert txn.log.decision_for("insert#1") == "commit"

    def test_insert_batch_without_coordinator_still_works(self):
        sdb = ShardedDatabase(
            make_schema(), DIMS, "a1", shards=2, page_capacity=8, wal=True
        )
        sdb.load(make_rows(40))
        assert sdb.insert_batch(make_rows(12, seed=5)) == 52

    def test_replicated_copies_commit_in_lockstep(self):
        rows = make_rows(80)
        sdb, txn = make_world(shards=2, copies=2)
        txn.atomic_load(rows)
        txn.atomic_insert(make_rows(10, seed=3))
        assert sdb.refresh_row_counts() == 90

    def test_each_gid_is_unique(self):
        sdb, txn = make_world()
        r1 = txn.atomic_load(make_rows(30))
        r2 = txn.atomic_insert(make_rows(5, seed=1))
        r3 = txn.atomic_insert(make_rows(5, seed=2))
        assert len({r1.gid, r2.gid, r3.gid}) == 3


# ----------------------------------------------------------------------
# attachment rules
# ----------------------------------------------------------------------
class TestAttachment:
    def test_requires_wal_on_every_copy(self):
        sdb = ShardedDatabase(
            make_schema(), DIMS, "a1", shards=2, page_capacity=8, wal=False
        )
        with pytest.raises(RuntimeError, match="wal=True"):
            TransactionCoordinator(sdb)

    def test_double_attach_refused(self):
        sdb, _txn = make_world()
        with pytest.raises(RuntimeError, match="already attached"):
            TransactionCoordinator(sdb)


# ----------------------------------------------------------------------
# abort path: in-process failures roll back everywhere
# ----------------------------------------------------------------------
class TestAbort:
    def _poisoned_world(self, monkeypatch, exc):
        """A world whose *last* participant fails during the work phase."""
        sdb, txn = make_world(shards=3)
        sdb.load(make_rows(60))
        baseline = fingerprint(sdb)
        last = list(sdb.all_copies())[-1]

        def poisoned(rows):
            raise exc

        monkeypatch.setattr(last, "txn_insert", poisoned)
        return sdb, txn, baseline

    def test_storage_error_aborts_all_shards(self, monkeypatch):
        sdb, txn, baseline = self._poisoned_world(
            monkeypatch, StorageError("device on fire")
        )
        with pytest.raises(TxnAbortedError) as info:
            txn.atomic_insert(make_rows(12, seed=5))
        assert "device on fire" in str(info.value)
        assert fingerprint(sdb) == baseline
        assert sdb.refresh_row_counts() == 60

    def test_non_storage_error_keeps_its_type(self, monkeypatch):
        sdb, txn, baseline = self._poisoned_world(
            monkeypatch, ValueError("bad row shape")
        )
        with pytest.raises(ValueError, match="bad row shape"):
            txn.atomic_insert(make_rows(12, seed=5))
        assert fingerprint(sdb) == baseline

    def test_abort_leaves_no_commit_decision(self, monkeypatch):
        sdb, txn, _ = self._poisoned_world(monkeypatch, StorageError("x"))
        with pytest.raises(TxnAbortedError):
            txn.atomic_insert(make_rows(12, seed=5))
        assert txn.log.decision_for("insert#1") != "commit"

    def test_world_usable_after_abort(self, monkeypatch):
        sdb, txn, _ = self._poisoned_world(monkeypatch, StorageError("x"))
        with pytest.raises(TxnAbortedError):
            txn.atomic_insert(make_rows(12, seed=5))
        monkeypatch.undo()
        result = txn.atomic_insert(make_rows(12, seed=5))
        assert result.verdict == "commit"
        assert sdb.refresh_row_counts() == 72

    def test_tree_meta_restored_after_abort(self, monkeypatch):
        """Aborted batches restore in-memory descriptors, not just pages."""
        sdb, txn, _ = self._poisoned_world(monkeypatch, StorageError("x"))
        counts = [
            len(copy.table) for s in sdb.shards for copy in s.copies
        ]
        with pytest.raises(TxnAbortedError):
            txn.atomic_insert(make_rows(40, seed=5))
        after = [
            len(copy.table) for s in sdb.shards for copy in s.copies
        ]
        assert after == counts


# ----------------------------------------------------------------------
# crash + recovery
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_crash_before_decision_presumes_abort(self):
        sdb, txn = make_world()
        sdb.load(make_rows(60))
        baseline = fingerprint(sdb)
        # decision-log append #1 is the prepare roster: the verdict
        # never lands, so recovery must presume abort
        txn.crash_after("txn-log", 1)
        with pytest.raises(SimulatedCrashError):
            txn.atomic_insert(make_rows(12, seed=5))
        report = txn.recover()
        assert report.resolved_commits == 0
        assert fingerprint(sdb) == baseline
        assert txn.log.decision_for("insert#1") is None

    def test_crash_after_decision_commits_forward(self):
        sdb, txn = make_world()
        sdb.load(make_rows(60))
        oracle_sdb, oracle_txn = make_world()
        oracle_sdb.load(make_rows(60))
        oracle_txn.atomic_insert(make_rows(12, seed=5))
        oracle = fingerprint(oracle_sdb)
        # append #3 is the ack: the commit verdict is already durable
        txn.crash_after("txn-log", 3)
        with pytest.raises(SimulatedCrashError):
            txn.atomic_insert(make_rows(12, seed=5))
        report = txn.recover()
        assert txn.log.decision_for("insert#1") == "commit"
        assert txn.log.acked("insert#1")
        # every participant applied before the ack force crashed, so
        # recovery's only job was closing the decision back out
        assert "insert#1" in report.reacked
        assert fingerprint(sdb) == oracle

    def test_crashed_coordinator_refuses_new_transactions(self):
        sdb, txn = make_world()
        txn.crash_after("txn-log", 1)
        with pytest.raises(SimulatedCrashError):
            txn.atomic_load(make_rows(60))
        with pytest.raises(CoordinatorStateError, match="recover"):
            txn.atomic_insert(make_rows(5))
        txn.recover()
        assert txn.atomic_load(make_rows(60)).verdict == "commit"

    def test_shard_wal_crash_mid_work_rolls_back(self):
        sdb, txn = make_world()
        sdb.load(make_rows(60))
        baseline = fingerprint(sdb)
        txn.crash_after("shard0.copy0.wal", 2)
        with pytest.raises(SimulatedCrashError):
            txn.atomic_insert(make_rows(12, seed=5))
        txn.recover()
        assert fingerprint(sdb) == baseline

    def test_recovery_is_idempotent(self):
        sdb, txn = make_world()
        sdb.load(make_rows(60))
        txn.crash_after("shard1.copy0.wal", 3)
        with pytest.raises(SimulatedCrashError):
            txn.atomic_insert(make_rows(12, seed=5))
        txn.recover()
        fp = fingerprint(sdb)
        again = txn.recover()
        assert again.resolved_commits == 0
        assert again.resolved_aborts == 0
        assert again.reacked == ()
        assert fingerprint(sdb) == fp

    def test_recover_without_coordinator_presumes_abort(self):
        """Standalone shard recovery (no decision log) aborts in-doubt."""
        sdb = ShardedDatabase(
            make_schema(), DIMS, "a1", shards=2, page_capacity=8, wal=True
        )
        sdb.load(make_rows(60))
        baseline = fingerprint(sdb)
        txn = TransactionCoordinator(sdb)
        txn.crash_after("shard0.copy0.wal", 2)
        with pytest.raises(SimulatedCrashError):
            txn.atomic_insert(make_rows(12, seed=5))
        # recovery without the coordinator: per copy, decision log ignored
        for copy in sdb.all_copies():
            copy.db.recover()
        assert sdb.refresh_row_counts() == 60
        assert fingerprint(sdb) == baseline


# ----------------------------------------------------------------------
# the 2PC invariant validator
# ----------------------------------------------------------------------
class TestTxnInvariants:
    def setup_method(self):
        self._was = set_enabled(True)

    def teardown_method(self):
        set_enabled(self._was)

    def test_healthy_protocol_validates(self):
        sdb, txn = make_world()
        txn.atomic_load(make_rows(60))
        invariants.validate_txn_log(txn)

    def test_unilateral_commit_is_caught(self):
        sdb, txn = make_world()
        txn.atomic_load(make_rows(40))
        # drive one participant to a commit the decision log never saw
        copy = sdb.shards[0].copies[0]
        copy.txn_begin("rogue#9")
        copy.txn_insert(sdb.shard_rows(0, make_rows(4, seed=2)))
        copy.txn_prepare("rogue#9")
        copy.txn_commit("rogue#9")
        with pytest.raises(InvariantViolation, match="unilateral"):
            invariants.validate_txn_log(txn)


# ----------------------------------------------------------------------
# telemetry rungs
# ----------------------------------------------------------------------
class TestTxnEvents:
    def test_commit_emits_every_rung_exactly_once(self):
        events = []
        telemetry.subscribe(events.append, TxnEvent)
        try:
            sdb, txn = make_world(shards=2)
            txn.atomic_load(make_rows(40))
        finally:
            telemetry.unsubscribe(events.append, TxnEvent)
        phases = [e.phase for e in events]
        assert phases.count("begin") == 1
        assert phases.count("prepared") == 2  # one per participant
        assert phases.count("decided") == 1
        assert phases.count("committed") == 2
        assert phases.count("acked") == 1
        assert all(isinstance(e, TxnEvent) for e in events)
        assert all(e.gid == "load#0" for e in events)

    def test_describe_mentions_gid_and_phase(self):
        event = TxnEvent(
            gid="load#0", phase="decided", verdict="commit", detail="2 shards"
        )
        text = event.describe()
        assert "load#0" in text
        assert "decided" in text
        assert "commit" in text
