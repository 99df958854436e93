"""Tests for the engine's event bus (``repro.telemetry``).

Six event families — planner :class:`DegradationEvent`, parallel
:class:`ExecutorFallbackEvent`, shard :class:`ShardDegradationEvent`,
WAL :class:`RecoveryEvent`, 2PC :class:`TxnEvent` and
:class:`JoinEvent` — share one frozen-dataclass base and one bus
(``subscribe`` / ``unsubscribe`` / ``emit``), and every reported path
emits exactly one event.  The stats dataclasses share one snapshot/diff
protocol, tested at the end.
"""

from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass

import pytest

from repro import invariants, telemetry
from repro.costmodel import CostParameters
from repro.planner import (
    DegradationEvent,
    ExecutorFallbackEvent,
    PlanExhaustedError,
    execute_sorted_query,
)
from repro.planner import executor as plan_executor
from repro.planner import parallel as plan_parallel
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.shard import (
    ShardDegradationEvent,
    register_shard_observer,
    unregister_shard_observer,
)
from repro.storage import (
    FaultPlan,
    IOStats,
    RecoveryEvent,
    RecoveryReport,
    register_recovery_observer,
    unregister_recovery_observer,
)
from repro.storage.faults import CORRUPT
from repro.telemetry import JoinEvent, TelemetryEvent
from repro.txn import TxnEvent, register_txn_observer, unregister_txn_observer
from tools.chaos import build_world

PARAMS = CostParameters(memory_pages=8)
QUERY = {"a1": (100, 900)}


@dataclass(frozen=True)
class _ProbeEvent(TelemetryEvent):
    label: str

    def describe(self) -> str:
        return f"probe {self.label}"


@contextmanager
def subscribed(observer, *kinds):
    telemetry.subscribe(observer, *kinds)
    try:
        yield
    finally:
        telemetry.unsubscribe(observer, *kinds)


#: one event per family, in the order the harness registers the families
ONE_OF_EACH = (
    JoinEvent(operator="merge", rows=3),
    ShardDegradationEvent(
        shard=0, copy=1, action="retry", error_type="TransientIOError", error="x"
    ),
    ExecutorFallbackEvent("threads", "inline", "test", "pure", 1),
    DegradationEvent(
        method="tetris", instance="ub", error_type="CorruptPageError", error="y"
    ),
    RecoveryEvent(
        wal_name="wal",
        report=RecoveryReport(
            examined_pages=0,
            healed_pages=0,
            rolled_back_batches=0,
            freed_pages=0,
            log_records=0,
            log_pages=0,
        ),
    ),
    TxnEvent(gid="insert#0", phase="begin"),
)

#: the frozen benchmark harness's compatibility pairs, as it lists them
FAMILIES = (
    (telemetry.register_join_observer, telemetry.unregister_join_observer),
    (register_shard_observer, unregister_shard_observer),
    (
        plan_parallel.register_fallback_observer,
        plan_parallel.unregister_fallback_observer,
    ),
    (
        plan_executor.register_degradation_observer,
        plan_executor.unregister_degradation_observer,
    ),
    (register_recovery_observer, unregister_recovery_observer),
    (register_txn_observer, unregister_txn_observer),
)


# ----------------------------------------------------------------------
# the shared base
# ----------------------------------------------------------------------
class TestTelemetryEvent:
    def test_all_families_extend_the_base(self):
        assert issubclass(DegradationEvent, TelemetryEvent)
        assert issubclass(ExecutorFallbackEvent, TelemetryEvent)
        assert issubclass(ShardDegradationEvent, TelemetryEvent)
        assert issubclass(RecoveryEvent, TelemetryEvent)
        assert issubclass(TxnEvent, TelemetryEvent)
        assert issubclass(JoinEvent, TelemetryEvent)

    def test_events_are_frozen(self):
        event = _ProbeEvent(label="x")
        with pytest.raises(FrozenInstanceError):
            event.label = "y"  # type: ignore[misc]

    def test_base_describe_is_abstract(self):
        with pytest.raises(NotImplementedError):
            TelemetryEvent().describe()

    def test_shard_event_describe_variants(self):
        failover = ShardDegradationEvent(
            shard=1,
            copy=0,
            action="failover",
            error_type="TransientIOError",
            error="boom",
            fallback_copy=1,
        )
        assert "copy 0 -> copy 1" in failover.describe()
        repaired = ShardDegradationEvent(
            shard=2,
            copy=1,
            action="repaired",
            error_type="QuarantinedPageError",
            error="page 7",
            repaired_pages=(7, 9),
        )
        assert "pages [7,9]" in repaired.describe()


# ----------------------------------------------------------------------
# the bus (the class name predates it: it tested the per-family registry)
# ----------------------------------------------------------------------
class TestObserverRegistry:
    def test_emit_reaches_every_observer_in_order(self):
        calls = []

        def first(event):
            calls.append(("a", event.label))

        def second(event):
            calls.append(("b", event.label))

        with subscribed(first, _ProbeEvent), subscribed(second, _ProbeEvent):
            telemetry.emit(_ProbeEvent(label="one"))
        assert calls == [("a", "one"), ("b", "one")]

    def test_unregister_stops_delivery(self):
        calls = []
        telemetry.subscribe(calls.append, _ProbeEvent)
        telemetry.unsubscribe(calls.append, _ProbeEvent)
        telemetry.emit(_ProbeEvent(label="gone"))
        assert calls == []

    def test_unregister_unknown_observer_is_harmless(self):
        telemetry.unsubscribe(lambda e: None)  # never subscribed
        telemetry.unsubscribe(lambda e: None, _ProbeEvent)
        telemetry.emit(_ProbeEvent(label="still fine"))

    def test_emit_without_observers_is_a_no_op(self):
        telemetry.emit(_ProbeEvent(label="quiet"))
        telemetry.emit()


class TestBus:
    def test_one_callable_through_all_six_aliases_sees_each_event_once(self):
        # the frozen harness's pattern: one bound method, six registrations
        seen = []
        for register, _ in FAMILIES:
            register(seen.append)
        try:
            telemetry.emit(*ONE_OF_EACH)
        finally:
            for _, unregister in FAMILIES:
                unregister(seen.append)
        assert seen == list(ONE_OF_EACH)
        telemetry.emit(*ONE_OF_EACH)
        assert len(seen) == len(ONE_OF_EACH)

    @pytest.mark.parametrize("dropped", range(len(FAMILIES)))
    def test_unregistering_one_alias_leaves_the_other_five_live(self, dropped):
        seen = []
        for register, _ in FAMILIES:
            register(seen.append)
        FAMILIES[dropped][1](seen.append)
        try:
            telemetry.emit(*ONE_OF_EACH)
        finally:
            for index, (_, unregister) in enumerate(FAMILIES):
                if index != dropped:
                    unregister(seen.append)
        expected = [e for i, e in enumerate(ONE_OF_EACH) if i != dropped]
        assert seen == expected

    @pytest.mark.parametrize("family", range(len(ONE_OF_EACH)))
    def test_kind_filtered_subscriber_sees_only_its_family(self, family):
        kind = type(ONE_OF_EACH[family])
        seen = []
        with subscribed(seen.append, kind):
            telemetry.emit(*ONE_OF_EACH)
        assert seen == [ONE_OF_EACH[family]]

    def test_several_kinds_and_no_kinds(self):
        some, every = [], []
        with subscribed(some.append, TxnEvent, JoinEvent), subscribed(
            every.append
        ):
            telemetry.emit(*ONE_OF_EACH)
        assert some == [ONE_OF_EACH[0], ONE_OF_EACH[5]]
        assert every == list(ONE_OF_EACH)

    def test_double_subscription_double_delivery_single_unsubscribe(self):
        seen = []
        event = _ProbeEvent(label="twice")
        telemetry.subscribe(seen.append, _ProbeEvent)
        telemetry.subscribe(seen.append, _ProbeEvent)
        try:
            telemetry.emit(event)
            assert seen == [event, event]
            telemetry.unsubscribe(seen.append, _ProbeEvent)
            telemetry.emit(event)
            assert seen == [event, event, event]
        finally:
            telemetry.unsubscribe(seen.append, _ProbeEvent)
        telemetry.emit(event)
        assert len(seen) == 3

    def test_unsubscribe_matches_the_kinds(self):
        seen = []
        with subscribed(seen.append, _ProbeEvent):
            telemetry.unsubscribe(seen.append)  # subscribed with a kind
            telemetry.unsubscribe(seen.append, TxnEvent)
            telemetry.emit(_ProbeEvent(label="kept"))
        assert len(seen) == 1

    def test_delivery_runs_outside_the_lock_on_a_snapshot(self):
        held, late = [], []

        def observer(event):
            held.append(telemetry._BUS._lock.held_by_current_thread())
            telemetry.subscribe(late.append, _ProbeEvent)

        with invariants.checks(), subscribed(observer, _ProbeEvent):
            telemetry.emit(_ProbeEvent(label="first"))
        try:
            assert held == [False]
            assert late == []  # subscribed after the snapshot was taken
            telemetry.emit(_ProbeEvent(label="second"))
            assert [event.label for event in late] == ["second"]
        finally:
            telemetry.unsubscribe(late.append, _ProbeEvent)


# ----------------------------------------------------------------------
# exactly-once planner emission
# ----------------------------------------------------------------------
class TestPlannerEmission:
    def test_degraded_query_notifies_observer_exactly_once(self):
        db, design, data = build_world(FaultPlan(), rows=600)
        target = design.heap.heap.page_ids[0]
        db.disk.plan = FaultPlan(seed=0, scripted_reads=((target, 0, CORRUPT),))
        db.arm_faults()
        seen = []
        telemetry.subscribe(seen.append, DegradationEvent)
        try:
            result = execute_sorted_query(design, QUERY, "a2", PARAMS)
        finally:
            telemetry.unsubscribe(seen.append, DegradationEvent)
            db.disarm_faults()
        if not result.degraded:
            pytest.skip("initial plan avoided the scripted page")
        assert tuple(seen) == result.degradations
        assert all(isinstance(event, TelemetryEvent) for event in seen)

    def test_clean_query_emits_nothing(self):
        db, design, data = build_world(rows=400)
        seen = []
        telemetry.subscribe(seen.append, DegradationEvent)
        try:
            result = execute_sorted_query(design, QUERY, "a2", PARAMS)
        finally:
            telemetry.unsubscribe(seen.append, DegradationEvent)
        assert not result.degraded
        assert seen == []

    def test_exhausted_plan_still_emits_each_event_once(self):
        db, design, data = build_world(FaultPlan(), rows=400)
        db.disk.plan = FaultPlan(seed=0, transient_rate=1.0)
        db.arm_faults()
        seen = []
        telemetry.subscribe(seen.append, DegradationEvent)
        try:
            with pytest.raises(PlanExhaustedError) as excinfo:
                execute_sorted_query(design, QUERY, "a2", PARAMS)
        finally:
            telemetry.unsubscribe(seen.append, DegradationEvent)
            db.disarm_faults()
        assert tuple(seen) == excinfo.value.degradations
        assert len(seen) == len(set(id(event) for event in seen))


# ----------------------------------------------------------------------
# recovery emission: one structured event per recovery pass
# ----------------------------------------------------------------------
class TestRecoveryEmission:
    def _loaded_db(self):
        schema = Schema(
            [
                Attribute("k", IntEncoder(0, 1023)),
                Attribute("v", IntEncoder(0, 1023)),
            ]
        )
        db = Database(wal=True)
        table = db.create_heap_table("t", schema, 8)
        table.bulk_load([(i, i % 7) for i in range(50)])
        return db

    def test_each_recover_pass_emits_exactly_once(self):
        db = self._loaded_db()
        seen = []
        telemetry.subscribe(seen.append, RecoveryEvent)
        try:
            report = db.recover()
            db.recover()
        finally:
            telemetry.unsubscribe(seen.append, RecoveryEvent)
        assert len(seen) == 2  # one event per pass, idempotent or not
        assert all(isinstance(event, RecoveryEvent) for event in seen)
        assert seen[0].report.healed_pages == report.healed_pages
        assert seen[0].wal_name == report.wal_name
        assert seen[0].describe()

    def test_coordinator_recovery_emits_one_event_per_shard_log(self):
        from repro.shard import ShardedDatabase
        from repro.txn import TransactionCoordinator

        schema = Schema(
            [
                Attribute("a1", IntEncoder(0, 1023)),
                Attribute("a2", IntEncoder(0, 1023)),
            ]
        )
        sdb = ShardedDatabase(
            schema, ("a1", "a2"), "a1", shards=2, page_capacity=8, wal=True
        )
        txn = TransactionCoordinator(sdb)
        txn.atomic_load([(i % 1024, i * 3 % 1024) for i in range(40)])
        seen = []
        telemetry.subscribe(seen.append, RecoveryEvent)
        try:
            report = txn.recover()
        finally:
            telemetry.unsubscribe(seen.append, RecoveryEvent)
        assert len(seen) == len(report.participant_reports) == 2
        assert sorted(e.wal_name for e in seen) == [
            "shard0.copy0.wal",
            "shard1.copy0.wal",
        ]


# ----------------------------------------------------------------------
# one snapshot/diff protocol for the stats dataclasses
# ----------------------------------------------------------------------
class TestCountersProtocol:
    def test_diff_lists_categories_in_first_seen_order(self):
        later, earlier = IOStats(), IOStats()
        later.category("temp").pages_read = 3
        later.category("data").pages_read = 5
        earlier.category("data").pages_read = 1
        earlier.category("temp").pages_read = 1
        earlier.category("wal").pages_written = 2
        delta = later - earlier
        assert list(delta.categories) == ["temp", "data", "wal"]
        assert [c.pages_read for c in delta.categories.values()] == [2, 4, 0]
        assert delta.categories["wal"].pages_written == -2
        assert list((earlier - later).categories) == ["data", "temp", "wal"]

    def test_copy_is_deep_and_diff_recurses(self):
        stats = IOStats(time=1.5)
        stats.category("data").pages_read = 4
        stats.faults.retries = 2
        stats.prefetch.prefetch_hits = 3
        snapshot = stats.copy()
        assert snapshot == stats
        assert snapshot.categories["data"] is not stats.categories["data"]
        assert snapshot.faults is not stats.faults
        stats.category("data").pages_read += 1
        stats.faults.retries += 1
        stats.prefetch.prefetch_hits += 1
        stats.time += 0.25
        delta = stats - snapshot
        assert delta.time == 0.25
        assert delta.categories["data"].pages_read == 1
        assert (delta.faults.retries, delta.prefetch.prefetch_hits) == (1, 1)
        assert snapshot.categories["data"].pages_read == 4
