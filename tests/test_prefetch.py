"""Tests for the sweep-ahead prefetch layer: the region cursor, the
pool's evict-behind-the-plane rule, the prefetcher lifecycle, two
sweeps whose windows overlap on one pool, and end-to-end stream
identity on both kernel backends."""

import random

import pytest

from repro import invariants, kernels
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.storage import (
    BufferPool,
    IOScheduler,
    SimulatedDisk,
    SweepPrefetcher,
)

from oracles import checks, page_cursor

#: pinned data seeds — the eviction rule and the end-to-end identity
#: checks must hold for every one of them, on both kernel backends
PINNED_SEEDS = (7, 21, 1999)


def make_pool(pages=12, capacity=4, *, devices=2, depth=4):
    disk = SimulatedDisk()
    ids = []
    for index in range(pages):
        page = disk.allocate(8)
        for slot in range(8):
            page.add((index, slot))
        ids.append(page.page_id)
    scheduler = IOScheduler(disk, devices, prefetch_depth=depth)
    pool = BufferPool(disk, capacity=capacity, scheduler=scheduler)
    return pool, scheduler, ids


def make_db(rows, seed, *, devices=1, prefetch_depth=0, buffer_pages=48):
    schema = Schema(
        [
            Attribute("a1", IntEncoder(0, 1023)),
            Attribute("a2", IntEncoder(0, 1023)),
            Attribute("v", IntEncoder(0, 10**9)),
        ]
    )
    rng = random.Random(seed)
    data = [(rng.randrange(1024), rng.randrange(1024), i) for i in range(rows)]
    db = Database(
        buffer_pages=buffer_pages, devices=devices, prefetch_depth=prefetch_depth
    )
    ub = db.create_ub_table("ub", schema, dims=("a1", "a2"), page_capacity=40)
    ub.load(data)
    db.reset_measurement()
    return db, ub


# ----------------------------------------------------------------------
# the region cursor's peek, position and exhaustion (the class keeps the
# name of the lookahead wrapper the cursor replaced)
# ----------------------------------------------------------------------
def pages_of(entries):
    return [entry[2] for entry in entries]


class TestLookaheadCursor:
    def test_peek_does_not_consume(self):
        cursor, _ = page_cursor(range(5))
        assert cursor.upcoming_page_ids(3) == [0, 1, 2]
        assert cursor.upcoming_page_ids(3) == [0, 1, 2]
        assert pages_of(cursor) == [0, 1, 2, 3, 4]

    def test_peek_past_the_end_returns_remainder(self):
        cursor, _ = page_cursor(range(2))
        assert cursor.upcoming_page_ids(10) == [0, 1]
        assert pages_of(cursor) == [0, 1]
        assert cursor.upcoming_page_ids(1) == []

    def test_interleaved_peek_and_next(self):
        cursor, _ = page_cursor(range(6))
        assert next(cursor)[2] == 0
        assert cursor.upcoming_page_ids(2) == [1, 2]
        assert next(cursor)[2] == 1
        assert cursor.upcoming_page_ids(2) == [2, 3]
        assert pages_of(cursor) == [2, 3, 4, 5]

    def test_zero_peek_is_empty(self):
        cursor, _ = page_cursor(range(3))
        assert cursor.upcoming_page_ids(0) == []
        assert cursor.position == 0

    def test_position_counts_next_only(self):
        cursor, calls = page_cursor(range(4))
        assert cursor.position == 0
        cursor.upcoming_page_ids(3)
        cursor.upcoming_page_ids(10)  # the whole schedule, taken once
        assert len(calls) == 1
        assert cursor.position == 0
        assert [next(cursor)[2], next(cursor)[2]] == [0, 1]
        assert cursor.position == 2
        assert cursor.upcoming_page_ids(5) == [2, 3]
        assert cursor.position == 2
        assert pages_of(cursor) == [2, 3]
        assert cursor.position == 4
        with pytest.raises(StopIteration):
            next(cursor)
        assert cursor.position == 4  # the exhausting pull hands out nothing
        assert len(calls) == 1

    def test_position_counts_unbuffered_pulls_too(self):
        cursor, calls = page_cursor(range(3))
        assert next(cursor)[2] == 0  # the first pull takes the schedule
        assert cursor.position == 1
        assert len(calls) == 1

    def test_peek_returns_a_fresh_list(self):
        cursor, _ = page_cursor(range(5))
        first = cursor.upcoming_page_ids(3)
        first.clear()
        first.append("mine")
        assert cursor.upcoming_page_ids(3) == [0, 1, 2]
        assert cursor.upcoming_page_ids(3) is not cursor.upcoming_page_ids(3)
        assert pages_of(cursor) == [0, 1, 2, 3, 4]

    def test_short_peek_leaves_the_longer_lookahead_buffered(self):
        cursor, calls = page_cursor(range(6))
        assert cursor.upcoming_page_ids(5) == [0, 1, 2, 3, 4]
        assert cursor.upcoming_page_ids(2) == [0, 1]  # a prefix of the column
        assert next(cursor)[2] == 0
        assert cursor.upcoming_page_ids(2) == [1, 2]
        assert pages_of(cursor) == [1, 2, 3, 4, 5]
        assert len(calls) == 1

    def test_an_epoch_move_reschedules_the_rest_minus_phi(self):
        cursor, calls = page_cursor([10, 11, 12, 13])
        assert [next(cursor)[2], next(cursor)[2]] == [10, 11]
        assert cursor.upcoming_page_ids(1) == [12]
        cursor.tree.structure_epoch += 1
        assert cursor.upcoming_page_ids(9) == [12, 13]  # Φ left out
        read, resume = calls[-1]
        assert len(calls) == 2 and resume == 2  # the last barrier handed out
        assert read.containing(1) == (0, 1) and read.containing(2) is None
        assert pages_of(cursor) == [12, 13]
        assert cursor.page_ids == [10, 11, 12, 13] and cursor.position == 4


# ----------------------------------------------------------------------
# the pool's victim rule: the least recently used frame that is not a
# pending prefetch — plain LRU would evict the page the sweep needs next
# ----------------------------------------------------------------------
class TestSweepEviction:
    def _fill(self, pool, ids):
        """Two pending prefetches (ahead of plane), two consumed frames."""
        assert pool.prefetch(ids[0])
        assert pool.prefetch(ids[1])
        pool.get(ids[2])
        pool.get(ids[3])
        assert pool.prefetch_pending == {ids[0], ids[1]}
        assert len(pool) == pool.capacity

    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    def test_sweep_policy_never_evicts_ahead_of_plane(self, seed):
        pool, scheduler, ids = make_pool()
        rng = random.Random(seed)
        rng.shuffle(ids)
        self._fill(pool, ids)
        pool.get(ids[4])
        # both pending prefetches survive; the LRU *consumed* frame went
        assert pool.prefetch_pending == {ids[0], ids[1]}
        assert ids[2] not in pool
        assert pool.prefetch_cancelled == 0
        # the spared prefetches are then claimed as hits, not wasted
        pool.get(ids[0])
        pool.get(ids[1])
        assert scheduler.disk.stats.prefetch.prefetch_hits == 2
        assert scheduler.disk.stats.prefetch.prefetch_wasted == 0

    def test_sweep_policy_degenerates_to_lru_without_pending(self):
        pool, _, ids = make_pool()
        for page_id in ids[:5]:
            pool.get(page_id)
        assert ids[0] not in pool  # plain LRU victim
        assert ids[1] in pool

    def test_all_pending_falls_back_to_lru(self):
        pool, _, ids = make_pool(capacity=4, depth=8)
        for page_id in ids[:4]:
            assert pool.prefetch(page_id)
        pool.get(ids[4])
        # every frame was ahead of the plane; LRU had to pick one anyway
        assert len(pool) == pool.capacity


# ----------------------------------------------------------------------
# SweepPrefetcher lifecycle
# ----------------------------------------------------------------------
class TestSweepPrefetcher:
    def test_for_pool_without_scheduler_returns_none(self):
        disk = SimulatedDisk()
        pool = BufferPool(disk, capacity=4)
        assert SweepPrefetcher.for_pool(pool) is None

    def test_for_pool_with_depth_zero_returns_none(self):
        disk = SimulatedDisk()
        scheduler = IOScheduler(disk, 2, prefetch_depth=0)
        pool = BufferPool(disk, capacity=4, scheduler=scheduler)
        assert SweepPrefetcher.for_pool(pool) is None

    def test_depth_capped_at_half_the_pool(self):
        pool, _, _ = make_pool(capacity=4, depth=16)
        prefetcher = SweepPrefetcher.for_pool(pool)
        assert prefetcher is not None
        assert prefetcher.depth == 2
        prefetcher.close()

    def test_top_up_respects_window_and_consumption(self):
        pool, _, ids = make_pool(capacity=8, depth=2)
        prefetcher = SweepPrefetcher.for_pool(pool)
        cursor, _ = page_cursor(ids[:6])
        assert prefetcher.top_up(cursor) == 2
        assert prefetcher.top_up(cursor) == 0  # window full
        assert next(cursor)[2] == ids[0]
        pool.get(ids[0])
        prefetcher.mark_consumed(ids[0])
        assert prefetcher.top_up(cursor) == 1  # slot freed
        assert prefetcher.outstanding == {ids[1], ids[2]}
        prefetcher.close()

    def test_close_cancels_outstanding_and_restores_policy(self):
        pool, scheduler, ids = make_pool(capacity=8, depth=2)
        prefetcher = SweepPrefetcher.for_pool(pool)
        prefetcher.top_up(page_cursor(ids[:2])[0])
        prefetcher.close()
        assert pool.prefetch_pending == frozenset()
        assert len(scheduler._inflight) == 0
        assert scheduler.disk.stats.prefetch.prefetch_wasted == 2
        prefetcher.close()  # idempotent


# ----------------------------------------------------------------------
# two sweeps whose windows overlap on one pool: the one opened first
# finishing must leave the other's pending prefetches spared
# ----------------------------------------------------------------------
class TestOverlappingWindows:
    SCHEMA = Schema(
        [
            Attribute("a", IntEncoder(0, 255)),
            Attribute("b", IntEncoder(0, 255)),
            Attribute("c", IntEncoder(0, 10**6)),
        ]
    )

    def two_tables(self, buffer_pages):
        rng = random.Random(7)
        db = Database(buffer_pages=buffer_pages, devices=2, prefetch_depth=8)
        tables = []
        for name, rows in (("ta", 800), ("tb", 2000)):
            table = db.create_ub_table(
                name, self.SCHEMA, dims=("a", "b"), page_capacity=4
            )
            table.load(
                [(rng.randrange(256), rng.randrange(256), i) for i in range(rows)]
            )
            tables.append(table)
        db.reset_measurement()
        return db, tables

    @pytest.mark.parametrize("armed", [False, True], ids=["checks_off", "checks_on"])
    @pytest.mark.parametrize("buffer_pages", [4, 6, 8])
    def test_first_opened_sweep_closing_spares_the_other(self, buffer_pages, armed):
        db, (ta, tb) = self.two_tables(buffer_pages)
        prefetch = db.disk.stats.prefetch
        with checks(armed):
            first = iter(ta.tetris_scan({"a": (0, 40)}, "a"))
            second = iter(tb.tetris_scan({"a": (0, 255)}, "b"))
            next(first)
            next(second)
            for _ in first:
                pass
            wasted = prefetch.prefetch_wasted
            for _ in second:
                pass
        assert prefetch.prefetch_wasted == wasted == 0
        assert prefetch.prefetch_issued == prefetch.prefetch_hits > 0


# ----------------------------------------------------------------------
# end to end: prefetched sweeps emit bit-identical streams and keep the
# accounting ledger balanced, on both kernel backends
# ----------------------------------------------------------------------
class TestEndToEndIdentity:
    @pytest.mark.parametrize("backend", kernels.available_backends())
    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    def test_tetris_stream_identical_with_prefetch(self, backend, seed):
        with kernels.use_backend(backend):
            db_plain, ub_plain = make_db(500, seed)
            baseline = list(ub_plain.tetris_scan({"a1": (100, 900)}, "a2"))

            db_pf, ub_pf = make_db(500, seed, devices=4, prefetch_depth=8)
            stream = list(ub_pf.tetris_scan({"a1": (100, 900)}, "a2"))
        assert stream == baseline
        prefetch = db_pf.disk.stats.prefetch
        assert prefetch.prefetch_issued > 0
        # the ledger after a drained sweep: every issue was claimed as a
        # hit or cancelled as wasted, nothing is left in flight
        assert len(db_pf.scheduler._inflight) == 0
        assert prefetch.prefetch_issued == (
            prefetch.prefetch_hits + prefetch.prefetch_wasted
        )
        pool = db_pf.buffer
        assert pool.prefetch_issued == (
            pool.prefetch_claimed + pool.prefetch_cancelled
        )
        invariants.validate_buffer_pool(pool)

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_range_query_identical_with_prefetch(self, backend):
        seed = PINNED_SEEDS[0]
        with kernels.use_backend(backend):
            db_plain, ub_plain = make_db(500, seed)
            baseline = list(ub_plain.range_query({"a1": (0, 511), "a2": (0, 511)}))

            db_pf, ub_pf = make_db(500, seed, devices=4, prefetch_depth=8)
            stream = list(ub_pf.range_query({"a1": (0, 511), "a2": (0, 511)}))
        assert stream == baseline
        assert db_pf.disk.stats.prefetch.prefetch_issued > 0
        invariants.validate_buffer_pool(db_pf.buffer)

    def test_abandoned_scan_cancels_its_window(self):
        db, ub = make_db(500, PINNED_SEEDS[0], devices=4, prefetch_depth=8)
        scan = iter(ub.tetris_scan({"a1": (100, 900)}, "a2"))
        for _ in range(5):
            next(scan)
        scan.close()
        assert len(db.scheduler._inflight) == 0
        assert db.buffer.prefetch_pending == frozenset()
        invariants.validate_buffer_pool(db.buffer)
