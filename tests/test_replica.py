"""Replica-layer tests: k-way mirroring, checksum-triggered repair, the
repair → re-plan path, and buffer-pool quarantine lifting.

The repair contract (docs/ROBUSTNESS.md): a checksum-failed read of a
replicated page restores the primary bit-exactly from the first intact
replica, re-seals its checksum, charges the repair I/O to the fault
counters, and — when the page had been quarantined — lifts the
quarantine so the planner can return to the full physical design.
"""

from dataclasses import replace

import pytest

from repro import invariants
from repro.invariants import InvariantViolation
from repro.storage import (
    BufferPool,
    CorruptPageError,
    NO_RETRY,
    PageImage,
    QuarantinedPageError,
    ReplicatedDisk,
    SimulatedDisk,
    read_page_resilient,
)

from oracles import corrupt_replica, set_enabled
from tools.chaos import run_schedule


def corrupt(page):
    """In-place record damage that the sealed checksum detects."""
    page.seal_checksum()
    page.records[0] = ("__rot__",)
    page.version += 1


def make_replicated(copies=2, pages=3, capacity=8):
    disk = ReplicatedDisk(copies=copies)
    for index in range(pages):
        page = disk.allocate(capacity)
        for slot in range(capacity):
            page.add((index, slot))
        disk.write(page)
    return disk


# ----------------------------------------------------------------------
# a replica slot is a PageImage (the class keeps its pinned test ids)
# ----------------------------------------------------------------------
class TestReplicaCopy:
    def test_of_snapshot_is_intact(self):
        copy = PageImage.of([(1,), (2,)])
        assert copy.intact
        assert copy.records == ((1,), (2,))

    def test_rot_is_detectable(self):
        copy = PageImage.of([(1,)])
        rotten = replace(copy, records=((1,), (2,)))
        assert not rotten.intact

    def test_one_flipped_field_is_detected_and_repair_moves_on(self):
        """Teeth: the rotten slot keeps its cached digests and checksum, so
        only a recomputation from the stored content can notice."""
        disk = make_replicated(copies=2)
        slots = disk._replicas[0]
        good = slots[0]
        flipped = (*good.records[:3], (0, 99), *good.records[4:])
        slots[0] = replace(good, records=flipped)
        assert slots[0].digests is good.digests
        assert not slots[0].intact and slots[1].intact
        corrupt(disk.peek(0))
        assert disk.repair_page(0)
        assert disk.stats.faults.repair_reads == 2  # slot 0 rejected
        assert disk.peek(0).records == list(good.records)


# ----------------------------------------------------------------------
# mirroring
# ----------------------------------------------------------------------
class TestMirroring:
    def test_copies_validated(self):
        with pytest.raises(ValueError):
            ReplicatedDisk(copies=0)

    def test_write_mirrors_record_pages(self):
        disk = make_replicated(copies=3, pages=2)
        assert frozenset(disk._replicas) == {0, 1}
        assert disk.stats.faults.replica_writes == 6
        assert disk.stats.faults.replica_delay == pytest.approx(
            2 * 3 * disk.params.t_tau
        )

    def test_payload_only_pages_are_not_mirrored(self):
        disk = ReplicatedDisk()
        inner_node = disk.allocate(0)
        inner_node.payload = object()
        disk.write(inner_node)
        assert frozenset(disk._replicas) == frozenset()

    def test_empty_write_drops_the_stale_slots(self):
        """An acknowledged write that emptied the page must not leave the
        old records behind for a later repair to resurrect."""
        disk = make_replicated(pages=1)
        page = disk.peek(0)
        page.records.clear()
        page.version += 1
        disk.write(page)
        assert frozenset(disk._replicas) == frozenset()
        assert not disk.repair_page(0)
        assert page.records == []

    def test_free_drops_the_replica_slot(self):
        disk = make_replicated(pages=1)
        disk.free(0)
        assert frozenset(disk._replicas) == frozenset()

    def test_shares_inner_clock_and_stats(self):
        inner = SimulatedDisk()
        disk = ReplicatedDisk(inner)
        assert disk.stats is inner.stats
        assert disk.params is inner.params

    def test_capture_all_mirrors_loaded_pages(self):
        inner = SimulatedDisk()
        page = inner.allocate(4)
        page.add((1,))
        disk = ReplicatedDisk(inner, copies=2)
        before = disk.clock
        assert disk.capture_all() == 1
        assert frozenset(disk._replicas) == {page.page_id}
        assert disk.clock > before


# ----------------------------------------------------------------------
# repair
# ----------------------------------------------------------------------
class TestRepair:
    def test_repair_restores_bit_exact_and_reseals(self):
        disk = make_replicated()
        page = disk.peek(0)
        committed = [(0, slot) for slot in range(8)]
        corrupt(page)
        assert not page.verify_checksum()
        assert disk.repair_page(0)
        assert list(page.records) == committed
        assert page.verify_checksum()
        faults = disk.stats.faults
        assert faults.repaired_pages == 1
        assert faults.repair_reads == 1  # first slot was intact
        assert faults.repair_delay == pytest.approx(2 * disk.params.random_cost(1))

    def test_repair_skips_rotten_slots(self):
        disk = make_replicated(copies=2)
        corrupt_replica(disk, 0, slot=0)
        corrupt(disk.peek(0))
        assert disk.repair_page(0)
        assert disk.stats.faults.repair_reads == 2  # slot 0 inspected, rejected

    def test_repair_fails_when_every_copy_rotted(self):
        disk = make_replicated(copies=2)
        corrupt_replica(disk, 0, slot=0)
        corrupt_replica(disk, 0, slot=1)
        corrupt(disk.peek(0))
        assert not disk.repair_page(0)
        assert disk.stats.faults.repaired_pages == 0

    def test_repair_fails_without_replica_or_page(self):
        disk = ReplicatedDisk()
        page = disk.allocate(4)  # allocated but never written: no replica
        page.add((1,))
        assert not disk.repair_page(page.page_id)
        assert not disk.repair_page(999)

    def test_base_disk_has_no_redundancy(self):
        disk = SimulatedDisk()
        disk.allocate(4).add((1,))
        assert not disk.repair_page(0)

    def test_corrupt_replica_validates_slot(self):
        disk = make_replicated()
        with pytest.raises(KeyError):
            corrupt_replica(disk, 0, slot=9)
        with pytest.raises(KeyError):
            corrupt_replica(disk, 999)


# ----------------------------------------------------------------------
# repair through the resilient read path
# ----------------------------------------------------------------------
class TestResilientReadRepair:
    def test_corrupt_read_heals_in_place(self):
        disk = make_replicated()
        corrupt(disk.peek(1))
        page, retries = read_page_resilient(disk, 1, policy=NO_RETRY)
        assert retries == 0
        assert page.verify_checksum()
        assert disk.stats.faults.repaired_pages == 1

    def test_unrepairable_corruption_still_raises(self):
        disk = make_replicated(copies=1)
        corrupt_replica(disk, 1, slot=0)
        corrupt(disk.peek(1))
        with pytest.raises(CorruptPageError):
            read_page_resilient(disk, 1, policy=NO_RETRY)


# ----------------------------------------------------------------------
# buffer-pool quarantine lifting
# ----------------------------------------------------------------------
class TestQuarantineLift:
    def test_corrupt_fetch_repairs_instead_of_quarantining(self):
        disk = make_replicated()
        pool = BufferPool(disk, 8, quarantine_threshold=2)
        corrupt(disk.peek(0))
        page = pool.get(0)
        assert page.verify_checksum()
        assert 0 not in pool._quarantined
        assert disk.stats.faults.quarantined_pages == 0

    def test_quarantine_lifts_once_replicas_recover(self):
        disk = make_replicated(copies=1)
        pool = BufferPool(disk, 8, quarantine_threshold=2)
        corrupt_replica(disk, 0, slot=0)
        corrupt(disk.peek(0))
        with pytest.raises(CorruptPageError):
            pool.get(0)  # repair fails (rotten replica): quarantined
        assert 0 in pool._quarantined
        with pytest.raises(QuarantinedPageError):
            pool.get(0)
        # the mirror device comes back (fresh, intact copy): the next
        # lookup repairs the primary and lifts the quarantine in place
        truth = [(0, slot) for slot in range(8)]
        disk._replicas[0] = [PageImage.of(truth)]
        page = pool.get(0)
        assert list(page.records) == truth
        assert 0 not in pool._quarantined
        assert pool._failures.get(0, 0) == 0  # clean slate for the accounting
        assert disk.stats.faults.quarantine_lifted == 1

    def test_repair_quarantined_sweep(self):
        disk = make_replicated(copies=1, pages=2)
        pool = BufferPool(disk, 8, quarantine_threshold=2)
        corrupt_replica(disk, 0, slot=0)
        corrupt(disk.peek(0))
        with pytest.raises(CorruptPageError):
            pool.get(0)
        disk._replicas[0] = [PageImage.of([(0, slot) for slot in range(8)])]
        assert pool.repair_quarantined() == [0]
        assert 0 not in pool._quarantined
        assert pool.get(0).verify_checksum()

    def test_lift_quarantine_is_a_noop_for_healthy_pages(self):
        disk = make_replicated()
        pool = BufferPool(disk, 8)
        assert not pool.lift_quarantine(0)
        assert disk.stats.faults.quarantine_lifted == 0


# ----------------------------------------------------------------------
# the pinned degraded -> clean chaos seed
# ----------------------------------------------------------------------
class TestDegradedToClean:
    def test_seed_17_repairs_instead_of_degrading(self):
        """The acceptance pin: the read sweep's canonical "degraded" seed
        classifies "clean" once the world carries page replicas."""
        without = run_schedule("read", 17)[-1]
        with_replicas = run_schedule("read", 17, replicas=2)[-1]
        assert without.status == "degraded"
        assert with_replicas.status == "clean"
        assert with_replicas.repaired >= 1
        assert with_replicas.rows == without.rows


# ----------------------------------------------------------------------
# the replica contract under REPRO_CHECKS
# ----------------------------------------------------------------------
class TestReplicaInvariants:
    @pytest.fixture(autouse=True)
    def checks_on(self):
        previous = set_enabled(True)
        yield
        set_enabled(previous)

    def test_healthy_store_validates(self):
        disk = make_replicated()
        invariants.validate_replicated_disk(disk)

    def test_wrong_slot_count_is_caught(self):
        disk = make_replicated(copies=2)
        disk._replicas[0] = disk._replicas[0][:1]
        with pytest.raises(InvariantViolation):
            invariants.validate_replicated_disk(disk)

    def test_leaked_slot_for_freed_page_is_caught(self):
        disk = make_replicated()
        slots = disk._replicas[0]
        disk.free(0)
        disk._replicas[0] = slots
        with pytest.raises(InvariantViolation):
            invariants.validate_replicated_disk(disk)
