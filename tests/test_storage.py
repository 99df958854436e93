"""Tests for the simulated disk, buffer pool, pages and heap files."""

import pytest

from repro.invariants import (
    RaceViolation,
    note_access,
)
from repro.storage import (
    BufferPool,
    CorruptPageError,
    DiskParameters,
    FaultPlan,
    FaultyDisk,
    HeapFile,
    ICDE99_ANALYSIS,
    ICDE99_TESTBED,
    IOScheduler,
    Page,
    PageOverflowError,
    SimulatedDisk,
)
from repro.storage.faults import CORRUPT

from oracles import actor, allocated_pages, checks, read_seeks, reset_sanitizer, write_seeks


# ----------------------------------------------------------------------
# DiskParameters
# ----------------------------------------------------------------------
class TestDiskParameters:
    def test_presets_match_paper(self):
        assert ICDE99_ANALYSIS.t_pi == pytest.approx(0.010)
        assert ICDE99_ANALYSIS.t_tau == pytest.approx(0.001)
        assert ICDE99_ANALYSIS.prefetch == 16
        assert ICDE99_TESTBED.t_pi == pytest.approx(0.008)
        assert ICDE99_TESTBED.t_tau == pytest.approx(0.0007)

    def test_scan_cost_formula(self):
        params = DiskParameters(t_pi=0.01, t_tau=0.001, prefetch=16)
        # 32 consecutive pages: 2 seeks + 32 transfers
        assert params.scan_cost(32) == pytest.approx(2 * 0.01 + 32 * 0.001)
        # 1 page: 1 seek + 1 transfer
        assert params.scan_cost(1) == pytest.approx(0.011)
        assert params.scan_cost(0) == 0.0

    def test_random_cost_formula(self):
        params = DiskParameters(t_pi=0.01, t_tau=0.001)
        assert params.random_cost(10) == pytest.approx(0.11)


# ----------------------------------------------------------------------
# Page
# ----------------------------------------------------------------------
class TestPage:
    def test_capacity_enforced(self):
        page = Page(0, 2)
        page.add("a")
        page.add("b")
        assert page.is_full
        with pytest.raises(PageOverflowError):
            page.add("c")

    def test_iteration_and_len(self):
        page = Page(0, 3)
        page.extend(["x", "y"])
        assert len(page) == 2
        assert page.records == ["x", "y"]
        assert page.free_slots == 1


# ----------------------------------------------------------------------
# SimulatedDisk
# ----------------------------------------------------------------------
class TestSimulatedDisk:
    def test_allocation_is_monotonic(self):
        disk = SimulatedDisk()
        pages = [disk.allocate(4) for _ in range(3)]
        assert [p.page_id for p in pages] == [0, 1, 2]
        assert allocated_pages(disk) == 3

    def test_extent_is_contiguous(self):
        disk = SimulatedDisk()
        disk.allocate(4)
        extent = disk.allocate_extent(4, capacity=4)
        assert [p.page_id for p in extent] == [1, 2, 3, 4]

    def test_read_missing_page_raises(self):
        disk = SimulatedDisk()
        with pytest.raises(KeyError):
            disk.read(99)

    def test_random_read_costs_seek_plus_transfer(self):
        disk = SimulatedDisk(DiskParameters(t_pi=0.01, t_tau=0.001))
        disk.allocate(4)
        disk.read(0)
        assert disk.clock == pytest.approx(0.011)
        stats = disk.stats.category("data")
        assert stats.pages_read == 1
        assert stats.read_seeks == 1

    def test_sequential_scan_amortizes_seeks(self):
        params = DiskParameters(t_pi=0.01, t_tau=0.001, prefetch=4)
        disk = SimulatedDisk(params)
        disk.allocate_extent(8, capacity=4)
        for page_id in range(8):
            disk.read(page_id, sequential=True)
        # 8 pages, prefetch 4 -> 2 seeks + 8 transfers
        assert disk.clock == pytest.approx(2 * 0.01 + 8 * 0.001)
        assert read_seeks(disk.stats) == 2

    def test_sequential_flag_with_gap_still_seeks(self):
        disk = SimulatedDisk(DiskParameters(t_pi=0.01, t_tau=0.001, prefetch=16))
        disk.allocate_extent(10, capacity=4)
        disk.read(0, sequential=True)
        disk.read(5, sequential=True)  # gap breaks the run
        assert read_seeks(disk.stats) == 2

    def test_unpriced_read_recorded_separately(self):
        disk = SimulatedDisk()
        disk.allocate(4)
        disk.read(0, charge=False, category="index")
        assert disk.clock == 0.0
        assert disk.stats.category("index").unpriced_reads == 1
        assert disk.stats.pages_read == 0

    def test_write_accounting(self):
        disk = SimulatedDisk(DiskParameters(t_pi=0.01, t_tau=0.001, prefetch=4))
        pages = disk.allocate_extent(4, capacity=4)
        for page in pages:
            disk.write(page, sequential=True, category="temp")
        assert disk.stats.category("temp").pages_written == 4
        assert disk.stats.category("temp").write_seeks == 1
        assert disk.clock == pytest.approx(0.01 + 4 * 0.001)

    def test_read_breaks_write_run_and_vice_versa(self):
        disk = SimulatedDisk(DiskParameters(t_pi=0.01, t_tau=0.001, prefetch=16))
        pages = disk.allocate_extent(4, capacity=4)
        disk.write(pages[0], sequential=True)
        disk.read(2, sequential=True)
        disk.write(pages[1], sequential=True)  # head moved: must seek again
        assert write_seeks(disk.stats) == 2

    def test_snapshot_differencing(self):
        disk = SimulatedDisk()
        disk.allocate_extent(4, capacity=4)
        disk.read(0)
        before = disk.snapshot()
        disk.read(1)
        disk.read(2)
        delta = disk.snapshot() - before
        assert delta.pages_read == 2
        assert delta.time == pytest.approx(2 * 0.011)

    def test_free_removes_page(self):
        disk = SimulatedDisk()
        page = disk.allocate(4)
        disk.free(page.page_id)
        assert not disk.page_exists(page.page_id)
        disk.free(page.page_id)  # idempotent

    def test_advance_clock(self):
        disk = SimulatedDisk()
        disk.advance_clock(1.5)
        assert disk.clock == pytest.approx(1.5)

class TestBufferPool:
    def test_hit_avoids_io(self):
        disk = SimulatedDisk()
        disk.allocate(4)
        pool = BufferPool(disk, capacity=2)
        pool.get(0)
        clock = disk.clock
        pool.get(0)
        assert disk.clock == clock
        assert pool.hits == 1
        assert pool.misses == 1

    def test_lru_eviction(self):
        disk = SimulatedDisk()
        disk.allocate_extent(3, capacity=4)
        pool = BufferPool(disk, capacity=2)
        pool.get(0)
        pool.get(1)
        pool.get(0)  # touch 0: 1 becomes LRU
        pool.get(2)  # evicts 1
        assert 1 not in pool
        assert 0 in pool and 2 in pool

    def test_drop_all_forgets_without_writeback(self):
        disk = SimulatedDisk()
        disk.allocate(4)
        pool = BufferPool(disk, capacity=4)
        pool.get(0)
        pool.drop_all()
        assert len(pool) == 0
        assert disk.stats.pages_written == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BufferPool(SimulatedDisk(), capacity=0)


# ----------------------------------------------------------------------
# BufferPool eviction observers: one callback per frame leaving the pool
# ----------------------------------------------------------------------
def observed_pool(capacity, *, pages=4, plan=None, prefetch_depth=0):
    """A pool over ``pages`` one-record pages plus its eviction log."""
    disk = FaultyDisk(plan=plan) if plan is not None else SimulatedDisk()
    for index in range(pages):
        disk.allocate(4).add((index, 0))
    if plan is not None:
        disk.arm()
    scheduler = (
        IOScheduler(disk, 1, prefetch_depth=prefetch_depth)
        if prefetch_depth
        else None
    )
    pool = BufferPool(disk, capacity=capacity, scheduler=scheduler)
    evicted = []
    pool.add_eviction_observer(evicted.append)
    return pool, evicted


class TestEvictionObservers:
    def test_hit_and_admit_do_not_notify(self):
        pool, evicted = observed_pool(capacity=2)
        pool.get(0)  # admit
        pool.get(1)  # admit
        pool.get(0)  # hit
        pool.get(1)  # hit
        assert evicted == []

    def test_lru_victim_notifies_once(self):
        pool, evicted = observed_pool(capacity=2)
        pool.get(0)
        pool.get(1)
        pool.get(0)  # touch 0: 1 becomes LRU
        pool.get(2)  # _admit evicts 1
        assert evicted == [1]
        pool.get(3)  # _admit evicts 0
        assert evicted == [1, 0]

    def test_quarantine_of_a_resident_frame_notifies_once(self):
        plan = FaultPlan(seed=0, scripted_reads=((1, 0, CORRUPT),))
        pool, evicted = observed_pool(capacity=4, plan=plan, prefetch_depth=2)
        assert pool.prefetch(1)  # resident, unverified until claimed
        with pytest.raises(CorruptPageError):
            pool.get(1)  # the claim fails its checksum: _quarantine
        assert 1 in pool._quarantined
        assert evicted == [1]

    def test_quarantine_of_an_absent_frame_does_not_notify(self):
        plan = FaultPlan(seed=0, scripted_reads=((1, 0, CORRUPT),))
        pool, evicted = observed_pool(capacity=4, plan=plan)
        with pytest.raises(CorruptPageError):
            pool.get(1)  # the demand read never admitted the page
        assert 1 in pool._quarantined
        assert evicted == []

    def test_cancel_prefetch_notifies_once(self):
        pool, evicted = observed_pool(capacity=4, prefetch_depth=2)
        assert pool.prefetch(2)
        assert evicted == []
        assert pool.cancel_prefetch(2)
        assert evicted == [2]
        assert not pool.cancel_prefetch(2)  # nothing pending any more
        assert evicted == [2]

    def test_drop_all_notifies_every_frame(self):
        pool, evicted = observed_pool(capacity=4)
        for page_id in (2, 0, 3):
            pool.get(page_id)
        pool.drop_all()
        assert evicted == [2, 0, 3]
        pool.drop_all()  # already empty
        assert evicted == [2, 0, 3]

    def test_removed_observer_is_not_called(self):
        pool, evicted = observed_pool(capacity=1)
        pool.get(0)
        pool.remove_eviction_observer(evicted.append)
        pool.get(1)  # _admit evicts 0
        assert evicted == []

    def test_removing_an_absent_observer_is_a_noop(self):
        pool, evicted = observed_pool(capacity=1)
        pool.remove_eviction_observer(print)
        pool.get(0)
        pool.get(1)  # _admit evicts 0
        assert evicted == [0]

    def test_add_and_remove_are_race_clean_under_the_pool_lock(self):
        reset_sanitizer()
        try:
            with checks():
                pool, evicted = observed_pool(capacity=1)
                late = []
                with actor("scan-worker"):
                    pool.add_eviction_observer(late.append)
                    pool.get(0)
                with actor("evict-worker"):
                    pool.get(1)  # _admit evicts 0
                    pool.remove_eviction_observer(late.append)
                    pool.remove_eviction_observer(late.append)  # absent now
                with actor("scan-worker"):
                    pool.get(2)  # _admit evicts 1
                assert (evicted, late) == ([0, 1], [0])
                # the list is a guarded field: the same write from an actor
                # that never took the pool lock is what the sanitizer catches
                with actor("unlocked-writer"), pytest.raises(RaceViolation):
                    note_access(pool, "_eviction_observers")
        finally:
            reset_sanitizer()


# ----------------------------------------------------------------------
# HeapFile
# ----------------------------------------------------------------------
class TestHeapFile:
    def test_append_and_scan_roundtrip(self):
        disk = SimulatedDisk()
        heap = HeapFile(disk, page_capacity=3, extent_pages=2)
        records = list(range(10))
        heap.load(records)
        assert len(heap) == 10
        assert heap.page_count == 4
        assert list(heap.scan()) == records

    def test_pages_physically_consecutive(self):
        disk = SimulatedDisk()
        heap = HeapFile(disk, page_capacity=2, extent_pages=4)
        heap.load(range(8))
        ids = heap.page_ids
        assert ids == list(range(ids[0], ids[0] + 4))

    def test_scan_priced_sequentially(self):
        params = DiskParameters(t_pi=0.01, t_tau=0.001, prefetch=4)
        disk = SimulatedDisk(params)
        heap = HeapFile(disk, page_capacity=2, extent_pages=8)
        heap.load(range(16))  # 8 pages
        list(heap.scan())
        assert read_seeks(disk.stats) == 2
        assert disk.stats.pages_read == 8

    def test_drop_frees_pages(self):
        disk = SimulatedDisk()
        heap = HeapFile(disk, page_capacity=2, extent_pages=2)
        heap.load(range(4))
        ids = heap.page_ids
        heap.drop()
        assert len(heap) == 0
        assert all(not disk.page_exists(i) for i in ids)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            HeapFile(SimulatedDisk(), page_capacity=0)
