"""Write-ahead log tests: batch semantics, rollback, the deterministic
crash hook, redo-on-open recovery and simulated-clock pricing.

The WAL's contract (docs/ROBUSTNESS.md): every journaled batch either
commits — after which a torn data write replays bit-identically from the
log — or rolls back to the exact pre-batch state, including page
content, checksums and allocations.  Recovery is idempotent.
"""

import pytest

from repro import invariants
from repro.btree.bptree import BPlusTree
from repro.invariants import InvariantViolation
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.storage import (
    FaultPlan,
    FaultyDisk,
    SimulatedCrashError,
    SimulatedDisk,
    StorageError,
    WriteAheadLog,
    active_wal,
)
from repro.storage.heap import HeapFile
from repro.storage.wal import ABORT, ALLOC, BEGIN, COMMIT, FREE, IMAGE, UNDO

from oracles import allocated_pages, search, set_enabled


def make_wal(params=None):
    disk = SimulatedDisk(params)
    return disk, WriteAheadLog(disk)


def batch(wal, label="batch"):
    """A journaled batch whose owner is a stand-in: the WAL-level tests
    exercise pages and records, not the object riding on them."""
    return wal.journaled(label, _Owner())


def tear(page):
    """Damage a page exactly like a torn write: the checksum was sealed
    over the intended content, but only a prefix reached the platter."""
    page.seal_checksum()
    del page.records[len(page.records) // 2 :]
    page.version += 1


# ----------------------------------------------------------------------
# arming and validation
# ----------------------------------------------------------------------
class TestArming:
    def test_constructor_registers_on_disk(self):
        disk, wal = make_wal()
        assert active_wal(disk) is wal

    def test_double_arm_rejected(self):
        disk, _ = make_wal()
        with pytest.raises(RuntimeError):
            WriteAheadLog(disk)

    def test_records_per_page_validated(self):
        with pytest.raises(ValueError):
            WriteAheadLog(SimulatedDisk(), records_per_page=0)

    def test_active_wal_sees_through_wrapper_stacks(self):
        base = SimulatedDisk()
        stack = FaultyDisk(base, FaultPlan())
        wal = WriteAheadLog(stack)
        assert active_wal(stack) is wal
        assert active_wal(base) is wal  # registered on the base via proxy


# ----------------------------------------------------------------------
# batch lifecycle
# ----------------------------------------------------------------------
class TestBatchLifecycle:
    def test_commit_record_sequence(self):
        disk, wal = make_wal()
        page = disk.allocate(8)
        with batch(wal, "load"):
            wal.log_alloc(page)
            page.extend([(1,), (2,)])
            wal.log_image(page)
            disk.write(page)
        kinds = [record.kind for record in wal.records]
        assert kinds == [BEGIN, ALLOC, IMAGE, COMMIT]
        assert wal.records[0].label == "load"

    def test_lsns_are_dense_and_ordered(self):
        disk, wal = make_wal()
        with batch(wal):
            wal.log_alloc(disk.allocate(8))
        assert [record.lsn for record in wal.records] == [0, 1, 2]

    def test_abort_restores_touched_page_bit_exact(self):
        disk, wal = make_wal()
        page = disk.allocate(8)
        page.extend([(1,), (2,), (3,)])
        page.seal_checksum()
        before = (list(page.records), page.stored_checksum)
        wal.begin("edit")
        wal.touch(page)
        page.add((4,))
        page.stored_checksum = None
        wal.abort()
        assert (list(page.records), page.stored_checksum) == before
        assert wal.records[-1].kind == ABORT
        assert disk.stats.faults.wal_rollbacks == 1

    def test_abort_frees_batch_allocations(self):
        disk, wal = make_wal()
        wal.begin()
        page = disk.allocate(8)
        wal.log_alloc(page)
        page.add((1,))
        wal.abort()
        assert not disk.page_exists(page.page_id)

    def test_deferred_free_applies_at_commit_only(self):
        disk, wal = make_wal()
        doomed = disk.allocate(8)
        wal.begin()
        wal.log_free(doomed.page_id)
        assert disk.page_exists(doomed.page_id)  # still deferred
        wal.commit()
        assert not disk.page_exists(doomed.page_id)
        assert FREE in [record.kind for record in wal.records]

    def test_rollback_keeps_deferred_frees(self):
        disk, wal = make_wal()
        survivor = disk.allocate(8)
        wal.begin()
        wal.log_free(survivor.page_id)
        wal.abort()
        assert disk.page_exists(survivor.page_id)

    def test_nested_batch_joins_the_outer_one(self):
        disk, wal = make_wal()
        with batch(wal, "outer") as outer_txn:
            with batch(wal, "inner") as inner_txn:
                assert inner_txn == outer_txn
                assert wal.in_batch
        kinds = [record.kind for record in wal.records]
        assert kinds == [BEGIN, COMMIT]  # one batch, not two

    def test_touch_is_first_touch_only_and_skips_batch_allocations(self):
        disk, wal = make_wal()
        old = disk.allocate(8)
        wal.begin()
        fresh = disk.allocate(8)
        wal.log_alloc(fresh)
        wal.touch(old)
        wal.touch(old)  # second touch: no-op
        wal.touch(fresh)  # batch-allocated: no-op
        wal.commit()
        undo = [record for record in wal.records if record.kind == UNDO]
        assert [record.page_id for record in undo] == [old.page_id]

    def test_primitives_outside_batch(self):
        disk, wal = make_wal()
        page = disk.allocate(8)
        wal.log_alloc(page)  # no-op
        wal.touch(page)  # no-op
        assert wal.records == []
        with pytest.raises(RuntimeError):
            wal.log_image(page)
        with pytest.raises(RuntimeError):
            wal.log_free(page.page_id)
        with pytest.raises(RuntimeError):
            wal.commit()
        with pytest.raises(RuntimeError):
            wal.abort()

    def test_serial_batches_only(self):
        _, wal = make_wal()
        wal.begin()
        with pytest.raises(RuntimeError):
            wal.begin()

    def test_failing_batch_aborts_and_reraises(self):
        _, wal = make_wal()
        with pytest.raises(ValueError):
            with batch(wal, "doomed"):
                raise ValueError("boom")
        assert [record.kind for record in wal.records] == [BEGIN, ABORT]
        assert not wal.in_batch


class _Owner:
    """A stand-in for the tree (or table) living on top of the pages."""

    def __init__(self):
        self.state = 0
        self.restored = []

    def meta_snapshot(self):
        return self.state

    def meta_restore(self, meta):
        self.restored.append(meta)
        self.state = meta


class TestJournaled:
    """``wal.journaled(label, owner)``: one batch the owner joins, its
    in-memory descriptors put back whenever that batch fails to commit —
    wherever it fails."""

    def test_success_commits_and_keeps_the_owner(self):
        _, wal = make_wal()
        owner = _Owner()
        with wal.journaled("edit", owner) as txn:
            owner.state = 1
        assert txn == wal.records[0].txn
        assert [record.kind for record in wal.records] == [BEGIN, COMMIT]
        assert (owner.state, owner.restored) == (1, [])

    @pytest.mark.parametrize("where", ["body", "begin", "commit"])
    def test_any_failure_restores_the_owner(self, where):
        _, wal = make_wal()
        owner = _Owner()
        if where != "body":
            # BEGIN is the first append, COMMIT the second
            wal.crash_after_appends(1 if where == "begin" else 2)
        expected = ValueError if where == "body" else SimulatedCrashError
        with pytest.raises(expected):
            with wal.journaled("edit", owner):
                owner.state = 1
                if where == "body":
                    raise ValueError("boom")
        # a batch that never began had no owner to restore
        assert owner.state == 0
        assert owner.restored == ([] if where == "begin" else [0])

    def test_nested_scope_joins_and_restores_its_own_owner(self):
        _, wal = make_wal()
        outer, inner = _Owner(), _Owner()
        with pytest.raises(ValueError):
            with wal.journaled("outer", outer):
                outer.state = 1
                with wal.journaled("inner", inner):
                    inner.state = 1
                    raise ValueError("boom")
        assert (outer.restored, inner.restored) == ([0], [0])
        assert [record.kind for record in wal.records] == [BEGIN, ABORT]


# ----------------------------------------------------------------------
# pricing: every append is forced to the log device on simulated time
# ----------------------------------------------------------------------
class TestPricing:
    def test_appends_charge_the_shared_clock(self):
        disk, wal = make_wal()
        start = disk.clock
        with batch(wal):
            wal.log_alloc(disk.allocate(8))
        faults = disk.stats.faults
        assert faults.wal_appends == 3  # begin + alloc + commit
        assert faults.wal_delay > 0.0
        assert disk.clock == pytest.approx(start + faults.wal_delay)
        # the log device saw the same amount of simulated time
        assert wal.device.stats.time == pytest.approx(faults.wal_delay)

    def test_log_pages_fill_up(self):
        disk, wal = make_wal()
        wal_small = None
        disk2 = SimulatedDisk()
        wal_small = WriteAheadLog(disk2, records_per_page=2)
        with batch(wal_small):
            for _ in range(3):
                wal_small.log_alloc(disk2.allocate(4))
        # 5 records at 2 per page -> 3 log pages
        assert len(wal_small._log_pages) == 3
        assert len(wal._log_pages) == 0


# ----------------------------------------------------------------------
# the deterministic crash hook
# ----------------------------------------------------------------------
class TestCrashHook:
    def test_countdown_validated(self):
        _, wal = make_wal()
        with pytest.raises(ValueError):
            wal.crash_after_appends(0)

    def test_crash_fires_once_then_disarms(self):
        disk, wal = make_wal()
        wal.crash_after_appends(2)
        with pytest.raises(SimulatedCrashError):
            with batch(wal):
                wal.log_alloc(disk.allocate(8))  # append #2: lost
        # the crashed append never reached the log, but the rollback's
        # abort record (post-disarm) did
        kinds = [record.kind for record in wal.records]
        assert kinds == [BEGIN, ABORT]

    def test_crashed_batch_rolls_back_page_content(self):
        disk, wal = make_wal()
        page = disk.allocate(8)
        page.extend([(1,), (2,)])
        before = list(page.records)
        wal.crash_after_appends(3)
        with pytest.raises(SimulatedCrashError):
            with batch(wal):
                wal.touch(page)
                page.add((3,))
                wal.log_image(page)  # append #3: the crash
        assert list(page.records) == before


# ----------------------------------------------------------------------
# redo-on-open recovery
# ----------------------------------------------------------------------
class TestRecovery:
    def test_torn_write_replays_to_committed_image(self):
        disk, wal = make_wal()
        page = disk.allocate(8)
        with batch(wal, "load"):
            wal.log_alloc(page)
            page.extend([(i,) for i in range(6)])
            wal.log_image(page)
            disk.write(page)
        committed = list(page.records)
        tear(page)
        assert list(page.records) != committed
        report = wal.recover()
        assert report.healed_pages == 1
        assert list(page.records) == committed
        assert page.verify_checksum()
        assert disk.stats.faults.wal_redo_pages == 1

    def test_recovery_is_idempotent(self):
        disk, wal = make_wal()
        page = disk.allocate(8)
        with batch(wal):
            wal.log_alloc(page)
            page.add((1,))
            wal.log_image(page)
            disk.write(page)
        tear(page)
        wal.recover()
        second = wal.recover()
        assert second.healed_pages == 0
        assert second.rolled_back_batches == 0
        assert list(page.records) == [(1,)]

    def test_uncommitted_images_are_not_replayed(self):
        disk, wal = make_wal()
        page = disk.allocate(8)
        page.extend([(1,)])
        wal.begin()
        wal.touch(page)
        page.add((2,))
        wal.log_image(page)
        report = wal.recover()  # aborts the open batch, replays nothing
        assert report.rolled_back_batches == 1
        assert report.healed_pages == 0
        assert list(page.records) == [(1,)]
        assert not wal.in_batch

    def test_last_committed_image_wins(self):
        disk, wal = make_wal()
        page = disk.allocate(8)
        for value in ((1,), (2,)):
            with batch(wal):
                wal.touch(page)
                page.records = [value]
                page.version += 1
                wal.log_image(page)
                disk.write(page)
        tear(page)
        wal.recover()
        assert list(page.records) == [(2,)]

    def test_recovery_charges_a_log_scan(self):
        disk, wal = make_wal()
        with batch(wal):
            wal.log_alloc(disk.allocate(8))
        before = disk.clock
        wal.recover()
        assert disk.clock > before

    def test_recovery_skips_pages_freed_after_commit(self):
        disk, wal = make_wal()
        page = disk.allocate(8)
        with batch(wal):
            wal.log_alloc(page)
            page.add((1,))
            wal.log_image(page)
            disk.write(page)
        disk.free(page.page_id)
        report = wal.recover()
        assert report.examined_pages == 0
        assert not disk.page_exists(page.page_id)


# ----------------------------------------------------------------------
# WAL-protected engine paths
# ----------------------------------------------------------------------
class TestEnginePaths:
    def test_heap_bulk_load_replays_after_torn_writes(self):
        disk, wal = make_wal()
        heap = HeapFile(disk, page_capacity=4, extent_pages=4)
        heap.bulk_load([(i,) for i in range(10)])
        loaded = [disk.peek(page_id) for page_id in heap.page_ids]
        committed = [list(page.records) for page in loaded]
        for page in loaded:
            tear(page)
        wal.recover()
        assert [list(page.records) for page in loaded] == committed
        assert list(heap.scan()) == [(i,) for i in range(10)]

    def test_heap_bulk_load_crash_rolls_back_cleanly(self):
        disk, wal = make_wal()
        heap = HeapFile(disk, page_capacity=4, extent_pages=4)
        heap.bulk_load([(i,) for i in range(4)])
        pre_pages = allocated_pages(disk)
        pre_rows = list(heap.scan())
        wal.crash_after_appends(4)
        with pytest.raises(SimulatedCrashError):
            heap.bulk_load([(i,) for i in range(100, 140)])
        assert allocated_pages(disk) == pre_pages  # no leaked extents
        assert list(heap.scan()) == pre_rows
        wal.recover()
        assert list(heap.scan()) == pre_rows

    def test_database_recover_requires_wal(self):
        db = Database()
        with pytest.raises(RuntimeError):
            db.recover()

    def test_database_bulk_load_torn_then_recovered(self):
        schema = Schema(
            [Attribute("k", IntEncoder(0, 1023)), Attribute("v", IntEncoder(0, 1023))]
        )
        db = Database(wal=True)
        table = db.create_heap_table("t", schema, 8)
        rows = [(i, i * 2) for i in range(30)]
        table.bulk_load(rows)
        for page in db.disk.iter_pages():
            if page.records:
                tear(page)
        report = db.recover()
        assert report.healed_pages > 0
        assert list(table.scan()) == rows


# ----------------------------------------------------------------------
# journaled deletes (once neither logged nor mirrored: a repair or a
# recovery brought the deleted row back)
# ----------------------------------------------------------------------
class TestJournaledDelete:
    def make_tree(self):
        db = Database(wal=True, replicas=2)
        tree = BPlusTree(db.buffer, leaf_capacity=8)
        for key in range(6):
            tree.insert(key, f"row{key}")
        return db, tree

    def test_record_sequence_matches_an_insert(self):
        db, tree = self.make_tree()
        mark = len(db.wal.records)
        assert tree.delete(3)
        kinds = [record.kind for record in db.wal.records[mark:]]
        assert kinds == [BEGIN, UNDO, IMAGE, COMMIT]
        assert not tree.delete(3)  # nothing found: nothing journaled
        assert len(db.wal.records) == mark + 4

    def test_repair_after_delete_keeps_the_row_gone(self):
        db, tree = self.make_tree()
        assert tree.delete(3)
        tear(db.disk.peek(tree.root_id))
        assert db.disk.repair_page(tree.root_id)
        assert search(tree, 3) == []
        assert [key for key, _ in tree.range_scan()] == [0, 1, 2, 4, 5]

    def test_recovery_after_delete_keeps_the_row_gone(self):
        db, tree = self.make_tree()
        assert tree.delete(3)
        tear(db.disk.peek(tree.root_id))
        db.wal.recover()
        assert [key for key, _ in tree.range_scan()] == [0, 1, 2, 4, 5]

    @pytest.mark.parametrize("appends", [1, 2, 3, 4])
    def test_crash_mid_delete_rolls_back_to_the_row_present(self, appends):
        db, tree = self.make_tree()
        db.wal.crash_after_appends(appends)
        with pytest.raises(SimulatedCrashError):
            tree.delete(3)
        assert tree.record_count == 6
        db.wal.recover()  # a lost commit record leaves the batch to recovery
        assert search(tree, 3) == ["row3"]
        tree.check_invariants()

    def test_ubtree_delete_is_journaled_too(self):
        db = Database(wal=True, replicas=2)
        schema = Schema(
            [Attribute("k", IntEncoder(0, 1023)), Attribute("v", IntEncoder(0, 1023))]
        )
        table = db.create_ub_table("t", schema, ("k", "v"), 8)
        table.bulk_load([(i, i * 2) for i in range(6)])
        ubtree = table.ubtree
        assert ubtree.delete(table.point_of((3, 6)))
        leaf = db.disk.peek(ubtree.tree.first_leaf_id)
        tear(leaf)
        assert db.disk.repair_page(leaf.page_id)
        assert [row for _, row in table.tetris_scan(None, "k")] == [
            (0, 0), (1, 2), (2, 4), (4, 8), (5, 10)
        ]


# ----------------------------------------------------------------------
# the WAL contract under REPRO_CHECKS
# ----------------------------------------------------------------------
class TestWalInvariants:
    @pytest.fixture(autouse=True)
    def checks_on(self):
        previous = set_enabled(True)
        yield
        set_enabled(previous)

    def test_healthy_log_validates(self):
        disk, wal = make_wal()
        with batch(wal):
            page = disk.allocate(8)
            wal.log_alloc(page)
            page.add((1,))
            wal.log_image(page)
            disk.write(page)
        invariants.validate_wal(wal)

    def test_mirror_divergence_is_caught(self):
        disk, wal = make_wal()
        with batch(wal):
            wal.log_alloc(disk.allocate(8))
        wal.records.pop()  # mirror no longer matches the durable log
        with pytest.raises(InvariantViolation):
            invariants.validate_wal(wal)


# ----------------------------------------------------------------------
# the prepared (in-doubt) state: the 2PC participant surface
# ----------------------------------------------------------------------
class TestPreparedBatches:
    def _open_batch(self, disk, wal, gid="g1"):
        wal.begin(gid)
        page = disk.allocate(4)
        wal.log_alloc(page)
        page.add((1,))
        wal.log_image(page)
        disk.write(page)
        return page

    def test_prepare_moves_batch_in_doubt(self):
        disk, wal = make_wal()
        self._open_batch(disk, wal)
        wal.prepare("g1")
        assert wal.prepared_gids == ("g1",)
        assert not wal.in_batch

    def test_commit_prepared_applies_and_closes(self):
        disk, wal = make_wal()
        page = self._open_batch(disk, wal)
        wal.prepare("g1")
        wal.commit_prepared("g1")
        assert wal.prepared_gids == ()
        assert list(page.records) == [(1,)]
        assert [r.kind for r in wal.records][-1] == COMMIT

    def test_abort_prepared_restores_before_images(self):
        disk, wal = make_wal()
        pre_pages = allocated_pages(disk)
        self._open_batch(disk, wal)
        wal.prepare("g1")
        wal.abort_prepared("g1")
        assert wal.prepared_gids == ()
        assert allocated_pages(disk) == pre_pages  # allocation undone

    def test_unknown_gid_rejected(self):
        disk, wal = make_wal()
        with pytest.raises(RuntimeError, match="ghost"):
            wal.commit_prepared("ghost")
        with pytest.raises(RuntimeError, match="ghost"):
            wal.abort_prepared("ghost")

    def test_new_batch_refused_while_in_doubt(self):
        """Prepared state holds its locks: no new batch until decided."""
        disk, wal = make_wal()
        self._open_batch(disk, wal, gid="g1")
        wal.prepare("g1")
        with pytest.raises(RuntimeError, match="in-doubt"):
            wal.begin("other")
        wal.commit_prepared("g1")
        with batch(wal, "other"):
            wal.log_alloc(disk.allocate(4))

    def test_recover_decide_commits_vouched_gids(self):
        disk, wal = make_wal()
        page = self._open_batch(disk, wal)
        wal.prepare("g1")
        report = wal.recover(decide=lambda gid: gid == "g1")
        assert report.resolved_commits == 1
        assert list(page.records) == [(1,)]

    def test_recover_presumes_abort_without_decide(self):
        disk, wal = make_wal()
        pre_pages = allocated_pages(disk)
        self._open_batch(disk, wal)
        wal.prepare("g1")
        report = wal.recover()
        assert report.resolved_aborts == 1
        assert allocated_pages(disk) == pre_pages


# ----------------------------------------------------------------------
# satellite: the WAL log device itself under fault injection
# ----------------------------------------------------------------------
class TestFaultedLogDevice:
    #: pinned seed: injects torn and transient *log appends* during the
    #: bulk load below on both kernel backends, all absorbed by the
    #: verified force (the world still equals a fault-free load)
    PINNED_SEED = 13

    def _schema(self):
        return Schema(
            [
                Attribute("k", IntEncoder(0, 1023)),
                Attribute("v", IntEncoder(0, 1023)),
            ]
        )

    def test_wal_fault_plan_requires_wal(self):
        with pytest.raises(ValueError):
            Database(wal_fault_plan=FaultPlan(seed=1, torn_write_rate=0.5))

    def test_pinned_seed_converges_through_log_faults(self):
        rows = [(i % 1024, i * 2 % 1024) for i in range(200)]
        oracle = Database(wal=True)
        oracle_table = oracle.create_heap_table("t", self._schema(), 8)
        oracle_table.bulk_load(rows)

        plan = FaultPlan(
            seed=self.PINNED_SEED, transient_rate=0.05, torn_write_rate=0.25
        )
        db = Database(wal=True, wal_fault_plan=plan)
        table = db.create_heap_table("t", self._schema(), 8)
        db.arm_faults()
        try:
            table.bulk_load(rows)
        finally:
            db.disarm_faults()
        assert list(table.scan()) == rows
        assert list(table.scan()) == list(oracle_table.scan())
        injected = db.wal.device.stats.faults.total_injected
        assert injected > 0, "pinned seed stopped injecting log faults"
        # the verified force kept the mirror == device at every boundary
        invariants.validate_wal(db.wal)

    def test_recovery_after_log_faults_is_clean(self):
        rows = [(i % 1024, i % 7) for i in range(120)]
        plan = FaultPlan(seed=self.PINNED_SEED, torn_write_rate=0.3)
        db = Database(wal=True, wal_fault_plan=plan)
        table = db.create_heap_table("t", self._schema(), 8)
        db.arm_faults()
        try:
            table.bulk_load(rows)
        finally:
            db.disarm_faults()
        report = db.recover()
        assert list(table.scan()) == rows
        again = db.recover()
        assert again.healed_pages == 0


# ----------------------------------------------------------------------
# satellite: recovery idempotence at *every* crash point of a workload
# ----------------------------------------------------------------------
class TestExhaustiveIdempotence:
    def _load(self, db):
        schema = Schema(
            [
                Attribute("k", IntEncoder(0, 1023)),
                Attribute("v", IntEncoder(0, 1023)),
            ]
        )
        table = db.create_heap_table("t", schema, 4)
        table.bulk_load([(i, i % 7) for i in range(40)])
        return table

    def _snapshot(self, db):
        return [
            (page.page_id, list(page.records))
            for page in sorted(
                db.disk.iter_pages(), key=lambda p: p.page_id
            )
        ]

    def test_recover_is_noop_after_every_crash_point(self):
        """For every WAL append index the load makes: crash there,
        recover, and require the second recovery pass to change
        nothing — the single-log version of the crashgrid's idempotence
        leg."""
        reference = Database(wal=True)
        self._load(reference)
        appends = reference.wal.append_count
        assert appends > 10  # the grid must actually enumerate
        for index in range(1, appends + 1):
            db = Database(wal=True)
            db.wal.crash_after_appends(index)
            with pytest.raises(SimulatedCrashError):
                self._load(db)
            db.recover()
            state = self._snapshot(db)
            again = db.recover()
            assert again.healed_pages == 0, f"crash point {index}"
            assert self._snapshot(db) == state, f"crash point {index}"
