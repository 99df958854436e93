"""Tests for the sweep-ahead prefetch layer: lookahead cursors, the
evict-behind-the-plane policy (vs plain LRU's pathology), the prefetcher
lifecycle, and end-to-end stream identity on both kernel backends."""

import random

import pytest

from repro import invariants, kernels
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.storage import (
    BufferPool,
    IOScheduler,
    LookaheadCursor,
    SimulatedDisk,
    SweepEvictionPolicy,
    SweepPrefetcher,
)

#: pinned data seeds — the eviction pathology and the end-to-end identity
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
# LookaheadCursor
# ----------------------------------------------------------------------
class TestLookaheadCursor:
    def test_peek_does_not_consume(self):
        cursor = LookaheadCursor(iter(range(5)))
        assert cursor.peek(3) == [0, 1, 2]
        assert list(cursor) == [0, 1, 2, 3, 4]

    def test_peek_past_the_end_returns_remainder(self):
        cursor = LookaheadCursor(iter(range(2)))
        assert cursor.peek(10) == [0, 1]
        assert list(cursor) == [0, 1]
        assert cursor.peek(1) == []

    def test_interleaved_peek_and_next(self):
        cursor = LookaheadCursor(iter(range(6)))
        assert next(cursor) == 0
        assert cursor.peek(2) == [1, 2]
        assert next(cursor) == 1
        assert cursor.peek(2) == [2, 3]
        assert list(cursor) == [2, 3, 4, 5]

    def test_zero_peek_is_empty(self):
        cursor = LookaheadCursor(iter(range(3)))
        assert cursor.peek(0) == []

    def test_position_counts_next_only(self):
        cursor = LookaheadCursor(iter(range(4)))
        assert cursor.position == 0
        cursor.peek(3)
        cursor.peek(10)  # buffers everything, exhausts the source
        assert cursor.position == 0
        assert [next(cursor), next(cursor)] == [0, 1]
        assert cursor.position == 2
        assert cursor.peek(5) == [2, 3]
        assert cursor.position == 2
        assert list(cursor) == [2, 3]
        assert cursor.position == 4
        with pytest.raises(StopIteration):
            next(cursor)
        assert cursor.position == 4  # the exhausting pull hands out nothing

    def test_position_counts_unbuffered_pulls_too(self):
        cursor = LookaheadCursor(iter(range(3)))
        assert next(cursor) == 0  # straight from the source, never peeked
        assert cursor.position == 1

    def test_peek_returns_a_fresh_list(self):
        cursor = LookaheadCursor(iter(range(5)))
        first = cursor.peek(3)
        first.clear()
        first.append("mine")
        assert cursor.peek(3) == [0, 1, 2]
        assert cursor.peek(3) is not cursor.peek(3)
        assert list(cursor) == [0, 1, 2, 3, 4]

    def test_short_peek_leaves_the_longer_lookahead_buffered(self):
        cursor = LookaheadCursor(iter(range(6)))
        assert cursor.peek(5) == [0, 1, 2, 3, 4]
        assert cursor.peek(2) == [0, 1]  # a prefix, not the whole buffer
        assert next(cursor) == 0
        assert cursor.peek(2) == [1, 2]
        assert list(cursor) == [1, 2, 3, 4, 5]


# ----------------------------------------------------------------------
# the LRU pathology: plain LRU evicts the page the sweep needs next,
# the sweep policy never does
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
    def test_plain_lru_evicts_ahead_of_plane(self, seed):
        pool, scheduler, ids = make_pool()
        rng = random.Random(seed)
        rng.shuffle(ids)
        self._fill(pool, ids)
        pool.get(ids[4])  # forces an eviction; LRU victim is the oldest
        assert ids[0] not in pool  # the unclaimed prefetch was thrown away
        assert pool.prefetch_cancelled == 1
        assert scheduler.disk.stats.prefetch.prefetch_wasted == 1

    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    def test_sweep_policy_never_evicts_ahead_of_plane(self, seed):
        pool, scheduler, ids = make_pool()
        rng = random.Random(seed)
        rng.shuffle(ids)
        pool.eviction_policy = SweepEvictionPolicy()
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
        pool.eviction_policy = SweepEvictionPolicy()
        for page_id in ids[:5]:
            pool.get(page_id)
        assert ids[0] not in pool  # plain LRU victim
        assert ids[1] in pool

    def test_all_pending_falls_back_to_lru(self):
        pool, _, ids = make_pool(capacity=4, depth=8)
        pool.eviction_policy = SweepEvictionPolicy()
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
        assert prefetcher.top_up(ids[:6]) == 2
        assert prefetcher.top_up(ids[:6]) == 0  # window full
        pool.get(ids[0])
        prefetcher.mark_consumed(ids[0])
        assert prefetcher.top_up(ids[:6]) == 1  # slot freed
        prefetcher.close()

    def test_close_cancels_outstanding_and_restores_policy(self):
        pool, scheduler, ids = make_pool(capacity=8, depth=2)
        prefetcher = SweepPrefetcher.for_pool(pool)
        assert isinstance(pool.eviction_policy, SweepEvictionPolicy)
        prefetcher.top_up(ids[:2])
        prefetcher.close()
        assert pool.eviction_policy is None
        assert pool.prefetch_pending == frozenset()
        assert len(scheduler._inflight) == 0
        assert scheduler.disk.stats.prefetch.prefetch_wasted == 2
        prefetcher.close()  # idempotent

    def test_close_keeps_a_caller_installed_policy(self):
        pool, _, _ = make_pool()
        sentinel = SweepEvictionPolicy()
        pool.eviction_policy = sentinel
        prefetcher = SweepPrefetcher.for_pool(pool)
        prefetcher.close()
        assert pool.eviction_policy is sentinel


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
