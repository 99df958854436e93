"""Tests for the resilience layer: faults, checksums, retries, quarantine,
typed errors and graceful plan degradation."""

import pytest

from repro.costmodel import CostParameters
from repro.planner import (
    PhysicalDesign,
    PlanExhaustedError,
    execute_sorted_query,
    plan_sorted_query,
)
from repro.storage import (
    BufferPool,
    CorruptPageError,
    FaultPlan,
    FaultyDisk,
    MissingPageError,
    QuarantinedPageError,
    RetryPolicy,
    SimulatedDisk,
    StorageError,
    TransientIOError,
    read_page_resilient,
)
from repro.storage.faults import CORRUPT, LATENCY, TORN, TRANSIENT

from oracles import injecting, set_enabled
from tools.chaos import build_world


def make_disk(plan=None, pages=4, capacity=8):
    disk = FaultyDisk(plan=plan)
    for index in range(pages):
        page = disk.allocate(capacity)
        for slot in range(capacity):
            page.add((index, slot))
    return disk


# ----------------------------------------------------------------------
# FaultPlan: determinism and validation
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        plan_a = FaultPlan(seed=7, transient_rate=0.2, corrupt_rate=0.1)
        plan_b = FaultPlan(seed=7, transient_rate=0.2, corrupt_rate=0.1)
        draws_a = [plan_a.read_fault(p, a) for p in range(50) for a in range(4)]
        draws_b = [plan_b.read_fault(p, a) for p in range(50) for a in range(4)]
        assert draws_a == draws_b
        assert any(kind is not None for kind in draws_a)

    def test_different_seed_different_schedule(self):
        plan_a = FaultPlan(seed=1, transient_rate=0.3)
        plan_b = FaultPlan(seed=2, transient_rate=0.3)
        draws_a = [plan_a.read_fault(p, 0) for p in range(200)]
        draws_b = [plan_b.read_fault(p, 0) for p in range(200)]
        assert draws_a != draws_b

    def test_rates_approximate_frequency(self):
        plan = FaultPlan(seed=3, transient_rate=0.25)
        hits = sum(
            plan.read_fault(p, a) == TRANSIENT
            for p in range(100)
            for a in range(10)
        )
        assert 150 < hits < 350  # 1000 draws at rate 0.25

    def test_scripted_faults_take_precedence(self):
        plan = FaultPlan(seed=0, scripted_reads=((5, 1, CORRUPT),))
        assert plan.read_fault(5, 1) == CORRUPT
        assert plan.read_fault(5, 0) is None
        assert plan.read_fault(4, 1) is None

    def test_empty_plan(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(transient_rate=0.1).is_empty
        assert not FaultPlan(scripted_writes=((0, 0, TORN),)).is_empty

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=0.6, corrupt_rate=0.6)
        with pytest.raises(ValueError):
            FaultPlan(scripted_reads=((0, 0, "meteor"),))
        with pytest.raises(ValueError):
            FaultPlan(scripted_writes=((0, 0, TRANSIENT),))  # not a write kind


# ----------------------------------------------------------------------
# FaultyDisk: injection mechanics
# ----------------------------------------------------------------------
class TestFaultyDisk:
    def test_disarmed_wrapper_never_faults(self):
        disk = make_disk(FaultPlan(seed=0, transient_rate=1.0))
        for _ in range(5):
            disk.read(0)  # armed=False: pure delegation
        assert disk.fault_log == []
        assert disk.stats.faults.total_injected == 0

    def test_transient_fault_raises_and_charges_clock(self):
        disk = make_disk(FaultPlan(seed=0, scripted_reads=((0, 0, TRANSIENT),)))
        disk.arm()
        before = disk.clock
        with pytest.raises(TransientIOError):
            disk.read(0)
        assert disk.clock == pytest.approx(
            before + disk.params.t_pi + disk.params.t_tau
        )
        assert disk.stats.faults.transient_errors == 1
        # the next access of the same page succeeds (access count advanced)
        assert disk.read(0).records

    def test_corrupt_fault_detected_by_checksum(self):
        disk = make_disk(FaultPlan(seed=0, scripted_reads=((1, 0, CORRUPT),)))
        disk.arm()
        page = disk.read(1)
        assert page.stored_checksum is not None
        assert not page.verify_checksum()
        assert ("__bitrot__", 1, 0) in page.records
        assert disk.stats.faults.corrupt_reads == 1

    def test_torn_write_detected_on_next_read(self):
        disk = make_disk(FaultPlan(seed=0, scripted_writes=((2, 0, TORN),)))
        disk.arm()
        page = disk.peek(2)
        full = len(page.records)
        disk.write(page)
        assert len(page.records) == full // 2
        assert not page.verify_checksum()
        assert disk.stats.faults.torn_writes == 1
        with pytest.raises(CorruptPageError):
            read_page_resilient(disk, 2, policy=RetryPolicy(max_retries=0))

    def test_latency_spike_advances_clock(self):
        plan = FaultPlan(
            seed=0, scripted_reads=((3, 0, LATENCY),), latency_seconds=0.5
        )
        disk = make_disk(plan)
        disk.arm()
        before = disk.clock
        disk.read(3)
        assert disk.clock == pytest.approx(
            before + 0.5 + disk.params.t_pi + disk.params.t_tau
        )
        assert disk.stats.faults.latency_spikes == 1

    def test_replay_is_exact(self):
        def run():
            disk = make_disk(FaultPlan(seed=9, transient_rate=0.3))
            disk.arm()
            for page_id in [0, 1, 2, 3, 0, 1, 2, 3]:
                try:
                    disk.read(page_id)
                except TransientIOError:
                    pass
            return disk.fault_log

        assert run() == run()

    def test_access_counts_tick_only_while_armed(self):
        plan = FaultPlan(seed=0, scripted_reads=((0, 0, TRANSIENT),))
        disk = make_disk(plan)
        disk.read(0)  # disarmed: does not consume access #0
        disk.arm()
        with pytest.raises(TransientIOError):
            disk.read(0)

    def test_injecting_context_manager(self):
        disk = make_disk(FaultPlan(seed=0, transient_rate=1.0))
        with injecting(disk):
            assert disk.armed
            with pytest.raises(TransientIOError):
                disk.read(0)
        assert not disk.armed

    def test_is_a_simulated_disk(self):
        assert isinstance(make_disk(), SimulatedDisk)


# ----------------------------------------------------------------------
# typed errors
# ----------------------------------------------------------------------
class TestTypedErrors:
    def test_missing_page_is_storage_and_key_error(self):
        disk = SimulatedDisk()
        with pytest.raises(MissingPageError):
            disk.read(99)
        with pytest.raises(KeyError):  # backward compatibility
            disk.read(99)
        with pytest.raises(StorageError):
            disk.peek(99)
        page = disk.allocate(4)
        disk.free(page.page_id)
        with pytest.raises(MissingPageError):
            disk.write(page)

    def test_missing_page_message_unquoted(self):
        disk = SimulatedDisk()
        with pytest.raises(MissingPageError) as excinfo:
            disk.read(42)
        assert str(excinfo.value) == "no page at address 42"

    def test_hierarchy(self):
        for exc in (TransientIOError, CorruptPageError, QuarantinedPageError):
            assert issubclass(exc, StorageError)
        assert not issubclass(TransientIOError, KeyError)


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delay_schedule_capped(self):
        policy = RetryPolicy(
            max_retries=5, base_delay=0.01, multiplier=2.0, max_delay=0.03
        )
        assert list(policy.delays()) == pytest.approx(
            [0.01, 0.02, 0.03, 0.03, 0.03]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_read_page_resilient_retries_on_simulated_clock(self):
        plan = FaultPlan(
            seed=0, scripted_reads=((0, 0, TRANSIENT), (0, 1, TRANSIENT))
        )
        disk = make_disk(plan)
        disk.arm()
        policy = RetryPolicy(
            max_retries=2, base_delay=0.1, multiplier=2.0, max_delay=1.0
        )
        before = disk.clock
        page, retries = read_page_resilient(disk, 0, policy=policy)
        assert retries == 2
        assert page.records
        # two failed attempts charged t_pi+t_tau each, two backoff delays
        # (0.1 + 0.2), one successful priced read
        expected = 3 * (disk.params.t_pi + disk.params.t_tau) + 0.1 + 0.2
        assert disk.clock - before == pytest.approx(expected)
        assert disk.stats.faults.retries == 2
        assert disk.stats.faults.retry_delay == pytest.approx(0.3)

    def test_read_page_resilient_exhausts(self):
        plan = FaultPlan(seed=0, transient_rate=1.0)
        disk = make_disk(plan)
        disk.arm()
        with pytest.raises(TransientIOError):
            read_page_resilient(disk, 0, policy=RetryPolicy(max_retries=1))


# ----------------------------------------------------------------------
# buffer pool quarantine
# ----------------------------------------------------------------------
class TestBufferQuarantine:
    def pool(self, plan, threshold=2, retries=0):
        disk = make_disk(plan)
        disk.arm()
        return (
            disk,
            BufferPool(
                disk,
                capacity=8,
                retry_policy=RetryPolicy(max_retries=retries),
                quarantine_threshold=threshold,
            ),
        )

    def test_transient_retry_then_hit(self):
        disk, pool = self.pool(
            FaultPlan(seed=0, scripted_reads=((0, 0, TRANSIENT),)), retries=1
        )
        page = pool.get(0)
        assert page.records
        assert pool.retry_attempts == 1
        assert pool.disk_fetches == pool.misses + pool.retry_attempts
        assert pool.get(0) is page  # now cached
        assert pool.hits == 1

    def test_quarantine_after_repeated_failures(self):
        disk, pool = self.pool(FaultPlan(seed=0, transient_rate=1.0), threshold=2)
        for _ in range(2):
            with pytest.raises(TransientIOError):
                pool.get(0)
        assert 0 in pool._quarantined
        with pytest.raises(QuarantinedPageError):
            pool.get(0)  # no disk touch
        assert pool.rejected == 1
        assert disk.stats.faults.quarantined_pages == 1
        assert pool.hits + pool.misses + pool.rejected == pool.lookups

    def test_corruption_quarantines_immediately(self):
        disk, pool = self.pool(
            FaultPlan(seed=0, scripted_reads=((1, 0, CORRUPT),)), threshold=3
        )
        with pytest.raises(CorruptPageError):
            pool.get(1)
        assert 1 in pool._quarantined
        assert 1 not in pool
        with pytest.raises(QuarantinedPageError):
            pool.get(1)

    def test_quarantine_survives_drop_all(self):
        disk, pool = self.pool(FaultPlan(seed=0, transient_rate=1.0), threshold=1)
        with pytest.raises(TransientIOError):
            pool.get(0)
        pool.drop_all()
        with pytest.raises(QuarantinedPageError):
            pool.get(0)


# ----------------------------------------------------------------------
# graceful plan degradation
# ----------------------------------------------------------------------
PARAMS = CostParameters(memory_pages=8)


class TestDegradation:
    def faulty_world(self):
        """A world whose FaultyDisk carries a swappable (empty) plan."""
        return build_world(FaultPlan(), rows=600)

    def expected(self, data, lo=100, hi=900):
        return sorted(
            (row for row in data if lo <= row[0] <= hi), key=lambda row: row[1]
        )

    def first_plan_pages(self, design):
        plan = plan_sorted_query(design, {"a1": (100, 900)}, "a2", PARAMS)
        return plan.choice.method

    def test_fault_free_plan_has_no_degradations(self):
        db, design, data = build_world(rows=600)
        result = execute_sorted_query(design, {"a1": (100, 900)}, "a2", PARAMS)
        assert not result.degraded
        assert sorted(result.rows) == sorted(self.expected(data))

    def test_degrades_to_surviving_instance_with_correct_rows(self):
        db, design, data = self.faulty_world()
        # corrupt the first page the initial plan touches, whatever it is
        method = self.first_plan_pages(design)
        target = {
            "fts-sort": design.heap.heap.page_ids[0],
            "tetris": None,
        }.get(method)
        if target is None:
            pytest.skip(f"initial plan {method} not scriptable here")
        db.disk.plan = FaultPlan(seed=0, scripted_reads=((target, 0, CORRUPT),))
        db.arm_faults()
        result = execute_sorted_query(design, {"a1": (100, 900)}, "a2", PARAMS)
        db.disarm_faults()
        assert result.degraded
        assert len(result.degradations) == 1
        event = result.degradations[0]
        assert event.method == "fts-sort"
        assert event.error_type == "CorruptPageError"
        assert event.fallback_method is not None
        assert result.plan.choice.method == event.fallback_method
        assert sorted(result.rows) == sorted(self.expected(data))
        # degraded order is still monotone in the sort attribute
        keys = [row[1] for row in result.rows]
        assert keys == sorted(keys)

    def test_every_instance_failing_raises_plan_exhausted(self):
        db, design, data = self.faulty_world()
        db.disk.plan = FaultPlan(seed=0, transient_rate=1.0)
        db.arm_faults()
        with pytest.raises(PlanExhaustedError) as excinfo:
            execute_sorted_query(design, {"a1": (100, 900)}, "a2", PARAMS)
        db.disarm_faults()
        error = excinfo.value
        assert isinstance(error, StorageError)
        assert len(error.degradations) >= 1
        assert error.degradations[-1].fallback_method is None
        methods = {event.method for event in error.degradations}
        assert "fts-sort" in methods  # the last resort was tried and failed

    def test_single_instance_design_exhausts_in_one_step(self):
        db, design, data = self.faulty_world()
        solo = PhysicalDesign(attributes=("a1", "a2"), heap=design.heap)
        db.disk.plan = FaultPlan(seed=0, transient_rate=1.0)
        db.arm_faults()
        with pytest.raises(PlanExhaustedError) as excinfo:
            execute_sorted_query(solo, {"a1": (100, 900)}, "a2", PARAMS)
        db.disarm_faults()
        assert len(excinfo.value.degradations) == 1

    def test_degradation_event_describe(self):
        from repro.planner import DegradationEvent

        event = DegradationEvent(
            method="tetris",
            instance="ub",
            error_type="CorruptPageError",
            error="boom",
            fallback_method="fts-sort",
            fallback_instance="heap",
        )
        text = event.describe()
        assert "tetris on ub" in text
        assert "fell back to fts-sort on heap" in text


# ----------------------------------------------------------------------
# benchmark guard
# ----------------------------------------------------------------------
class TestBenchmarkGuard:
    def test_refuses_timing_with_armed_fault_plan(self):
        """benchmarks/ must not time runs with live fault injection."""
        import importlib
        import sys
        from pathlib import Path

        from repro import invariants

        bench_dir = str(Path(__file__).resolve().parent.parent / "benchmarks")
        was_enabled = invariants.enabled()
        set_enabled(False)  # _support refuses import otherwise
        sys.path.insert(0, bench_dir)
        disk = FaultyDisk(plan=FaultPlan(transient_rate=0.1))
        try:
            support = importlib.import_module("_support")
            support.ensure_fault_free()  # disarmed: fine
            disk.arm()
            with pytest.raises(RuntimeError, match="fault-free"):
                support.ensure_fault_free()
            with pytest.raises(RuntimeError, match="fault-free"):
                support.report("guard_probe", "never written")
            disk.disarm()
            support.ensure_fault_free()
        finally:
            disk.disarm()
            sys.path.remove(bench_dir)
            set_enabled(was_enabled)
