"""Tests for the multi-queue I/O scheduler: single-disk parity, device
scaling, queue accounting, and async-read fault semantics."""

import random

import pytest

from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.storage import (
    FaultPlan,
    FaultyDisk,
    IOScheduler,
    MissingPageError,
    SimulatedDisk,
    armed_scheduler_count,
)
from repro.storage.faults import TRANSIENT


def make_disk(pages=24, capacity=8, plan=None):
    disk = FaultyDisk(plan=plan) if plan is not None else SimulatedDisk()
    ids = []
    for index in range(pages):
        page = disk.allocate(capacity)
        for slot in range(capacity):
            page.add((index, slot))
        ids.append(page.page_id)
    return disk, ids


def make_db(rows=600, *, devices=1, prefetch_depth=0, seed=11):
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
        buffer_pages=48, devices=devices, prefetch_depth=prefetch_depth
    )
    ub = db.create_ub_table("ub", schema, dims=("a1", "a2"), page_capacity=40)
    ub.load(data)
    db.reset_measurement()
    return db, ub


# ----------------------------------------------------------------------
# single-device parity: the scheduler must be an identity wrapper
# ----------------------------------------------------------------------
class TestSingleDeviceParity:
    def test_demand_reads_cost_identical_to_bare_disk(self):
        bare, bare_ids = make_disk()
        fronted, ids = make_disk()
        scheduler = IOScheduler(fronted, 1)
        order = ids[:8] + ids[:4] + list(reversed(ids[8:16]))
        for bare_id, page_id in zip(
            bare_ids[:8] + bare_ids[:4] + list(reversed(bare_ids[8:16])), order
        ):
            bare.read(bare_id)
            scheduler.read(page_id)
        assert fronted.stats.time == pytest.approx(bare.stats.time)
        assert fronted.stats.pages_read == bare.stats.pages_read

    def test_sequential_amortization_preserved(self):
        bare, bare_ids = make_disk()
        fronted, ids = make_disk()
        scheduler = IOScheduler(fronted, 1)
        for bare_id, page_id in zip(bare_ids, ids):
            bare.read(bare_id, sequential=True)
            scheduler.read(page_id, sequential=True)
        assert fronted.stats.time == pytest.approx(bare.stats.time)

    def test_unpriced_read_occupies_no_queue(self):
        disk, ids = make_disk()
        scheduler = IOScheduler(disk, 2)
        scheduler.read(ids[0], charge=False)
        assert scheduler.queue_free_times() == [0.0, 0.0]
        assert disk.stats.time == 0.0


# ----------------------------------------------------------------------
# device scaling: overlapped async reads shrink elapsed time
# ----------------------------------------------------------------------
class TestDeviceScaling:
    def test_striping_maps_pages_round_robin(self):
        disk, _ = make_disk()
        scheduler = IOScheduler(disk, 3)
        assert [scheduler.device_of(p) for p in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_submitted_batch_elapses_as_max_not_sum(self):
        serial_disk, serial_ids = make_disk()
        for page_id in serial_ids[:8]:
            serial_disk.read(page_id)
        serial_elapsed = serial_disk.stats.time

        disk, ids = make_disk()
        scheduler = IOScheduler(disk, 4, prefetch_depth=8)
        for page_id in ids[:8]:
            assert scheduler.submit(page_id) is not None
        for page_id in ids[:8]:
            scheduler.claim(page_id)
        assert disk.stats.time < serial_elapsed
        # 8 equal transfers over 4 queues: two service times per queue
        assert disk.stats.time == pytest.approx(serial_elapsed / 4)

    def test_tetris_scan_elapsed_decreases_with_devices(self):
        elapsed = []
        reference = None
        for devices in (1, 2, 4):
            db, ub = make_db(devices=devices, prefetch_depth=16)
            before = db.disk.stats.time
            stream = list(ub.tetris_scan({"a1": (100, 900)}, "a2"))
            elapsed.append(db.disk.stats.time - before)
            if reference is None:
                reference = stream
            else:
                assert stream == reference
        assert elapsed[1] < elapsed[0]
        assert elapsed[2] < elapsed[1]

    def test_single_device_prefetch_costs_no_more_than_demand(self):
        db_plain, ub_plain = make_db(devices=1, prefetch_depth=0)
        before = db_plain.disk.stats.time
        baseline = list(ub_plain.tetris_scan({"a1": (100, 900)}, "a2"))
        plain_elapsed = db_plain.disk.stats.time - before

        db_pf, ub_pf = make_db(devices=1, prefetch_depth=16)
        before = db_pf.disk.stats.time
        stream = list(ub_pf.tetris_scan({"a1": (100, 900)}, "a2"))
        prefetch_elapsed = db_pf.disk.stats.time - before

        assert stream == baseline
        assert prefetch_elapsed <= plain_elapsed + 1e-9


# ----------------------------------------------------------------------
# accounting: the prefetch ledger and queue counters
# ----------------------------------------------------------------------
class TestQueueAccounting:
    def test_busy_time_accumulates_service_time(self):
        disk, ids = make_disk()
        scheduler = IOScheduler(disk, 2, prefetch_depth=4)
        serial_disk, serial_ids = make_disk()
        for page_id in serial_ids[:4]:
            serial_disk.read(page_id)
        for page_id in ids[:4]:
            scheduler.submit(page_id)
        for page_id in ids[:4]:
            scheduler.claim(page_id)
        prefetch = disk.stats.prefetch
        # queues spun for the full service time even though the clock
        # only advanced by the overlapped maximum
        assert prefetch.queue_busy_time == pytest.approx(serial_disk.stats.time)
        assert disk.stats.time < prefetch.queue_busy_time

    def test_issued_equals_hits_plus_wasted_after_drain(self):
        disk, ids = make_disk()
        scheduler = IOScheduler(disk, 2, prefetch_depth=8)
        for page_id in ids[:6]:
            scheduler.submit(page_id)
        for page_id in ids[:3]:
            scheduler.claim(page_id)
        scheduler.cancel_all()
        prefetch = disk.stats.prefetch
        assert scheduler.inflight_count == 0
        assert prefetch.prefetch_issued == 6
        assert prefetch.prefetch_hits == 3
        assert prefetch.prefetch_wasted == 3

    def test_demand_read_claims_inflight_as_hit(self):
        disk, ids = make_disk()
        scheduler = IOScheduler(disk, 2, prefetch_depth=4)
        submitted = scheduler.submit(ids[0])
        claimed = scheduler.read(ids[0])
        assert claimed is submitted
        assert disk.stats.prefetch.prefetch_hits == 1
        assert disk.stats.pages_read == 1  # the transfer happened once

    def test_duplicate_submit_is_coalesced(self):
        disk, ids = make_disk()
        scheduler = IOScheduler(disk, 2, prefetch_depth=4)
        first = scheduler.submit(ids[0])
        second = scheduler.submit(ids[0])
        assert first is second
        assert disk.stats.prefetch.prefetch_issued == 1


# ----------------------------------------------------------------------
# fault semantics of async reads
# ----------------------------------------------------------------------
class TestAsyncFaults:
    def test_transient_on_submit_returns_none_and_counts_wasted(self):
        plan = FaultPlan(seed=5, scripted_reads=((0, 0, TRANSIENT),))
        disk, ids = make_disk(plan=plan)
        victim = ids[0]
        scheduler = IOScheduler(disk, 2, prefetch_depth=4)
        disk.arm()
        try:
            assert scheduler.submit(victim) is None
            prefetch = disk.stats.prefetch
            assert prefetch.prefetch_issued == 1
            assert prefetch.prefetch_wasted == 1
            assert scheduler.inflight_count == 0
            # the queue spun for the failed attempt
            assert prefetch.queue_busy_time > 0
            # the demand path then reads normally (access 1 is clean)
            page = scheduler.read(victim)
            assert page.page_id == victim
        finally:
            disk.disarm()

    def test_claim_without_submission_raises(self):
        disk, ids = make_disk()
        scheduler = IOScheduler(disk, 2, prefetch_depth=4)
        with pytest.raises(MissingPageError):
            scheduler.claim(ids[0])

    def test_cancel_unknown_page_returns_false(self):
        disk, ids = make_disk()
        scheduler = IOScheduler(disk, 2, prefetch_depth=4)
        assert scheduler.cancel(ids[0]) is False


# ----------------------------------------------------------------------
# delegation and the armed registry
# ----------------------------------------------------------------------
class TestDelegation:
    def test_stats_and_clock_delegate_to_wrapped_stack(self):
        disk, _ = make_disk()
        scheduler = IOScheduler(disk, 2)
        assert scheduler.stats is disk.stats
        scheduler.advance_clock(0.5)
        assert disk.stats.time == pytest.approx(0.5)

    def test_validation_rejects_bad_parameters(self):
        disk, _ = make_disk()
        with pytest.raises(ValueError):
            IOScheduler(disk, 0)
        with pytest.raises(ValueError):
            IOScheduler(disk, 1, prefetch_depth=-1)

    def test_armed_registry_counts_prefetching_schedulers_only(self):
        disk, _ = make_disk()
        before = armed_scheduler_count()
        passive = IOScheduler(disk, 4)
        assert armed_scheduler_count() == before
        armed = IOScheduler(disk, 2, prefetch_depth=4)
        assert armed_scheduler_count() == before + 1
        del armed
        del passive
