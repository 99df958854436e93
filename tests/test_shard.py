"""Tests for the range-sharded coordinator (``repro.shard``).

The load-bearing claim: a sharded restricted sorted scan is
bit-identical to the unsharded scan — with no faults, across failover,
and through cross-copy repair — and every deviation from the clean path
is a typed error or an explicitly flagged partial result, never silent
wrong rows.
"""

import random

import pytest

from repro import invariants, kernels, telemetry
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.shard import (
    ShardDegradationEvent,
    ShardedDatabase,
    ShardFailedError,
    merge_shard_streams,
)
from repro.shard.coordinator import MAX_DEGRADATIONS
from repro.storage import FaultPlan
from repro.telemetry import TelemetryEvent

from oracles import checks

DIMS = ("a1", "a2")
QUERY = {"a1": (100, 900)}


def make_schema() -> Schema:
    return Schema(
        [
            Attribute("a1", IntEncoder(0, 1023)),
            Attribute("a2", IntEncoder(0, 1023)),
            Attribute("v", IntEncoder(0, 10**9)),
        ]
    )


def make_rows(count: int, seed: int = 99) -> list[tuple]:
    rng = random.Random(seed)
    return [(rng.randrange(1024), rng.randrange(1024), i) for i in range(count)]


def oracle_rows(rows, restrictions, sort_attr):
    """The unsharded engine's stream, the coordinator's ground truth."""
    db = Database()
    table = db.create_ub_table("oracle", make_schema(), DIMS, 32)
    table.bulk_load(rows)
    return list(table.tetris_scan(restrictions, sort_attr))


def make_sharded(rows, *, shards=4, copies=1, **kwargs) -> ShardedDatabase:
    sdb = ShardedDatabase(
        make_schema(), DIMS, "a1", shards=shards, copies=copies, **kwargs
    )
    sdb.load(rows)
    return sdb


# ----------------------------------------------------------------------
# bit-identity on the clean path
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_matches_unsharded_scan(self):
        rows = make_rows(600)
        sdb = make_sharded(rows)
        result = sdb.sorted_scan(QUERY, "a2")
        assert result.rows == oracle_rows(rows, QUERY, "a2")
        assert not result.degraded
        assert not result.partial

    def test_sort_on_shard_attribute(self):
        rows = make_rows(600)
        sdb = make_sharded(rows)
        result = sdb.sorted_scan(QUERY, "a1")
        assert result.rows == oracle_rows(rows, QUERY, "a1")

    def test_duplicate_points_survive_sharding(self):
        rng = random.Random(3)
        rows = [(rng.randrange(8), rng.randrange(8), i) for i in range(400)]
        sdb = make_sharded(rows, shards=3)
        result = sdb.sorted_scan(None, "a2")
        assert result.rows == oracle_rows(rows, None, "a2")

    def test_unrestricted_scan(self):
        rows = make_rows(500)
        sdb = make_sharded(rows)
        result = sdb.sorted_scan(None, "a2")
        assert result.rows == oracle_rows(rows, None, "a2")

    def test_empty_query(self):
        rows = make_rows(200)
        sdb = make_sharded(rows)
        result = sdb.sorted_scan({"a1": (700, 100)}, "a2")
        assert result.rows == []
        assert result.per_shard_rows == (0, 0, 0, 0)

    def test_both_backends_agree(self):
        rows = make_rows(400)
        expected = oracle_rows(rows, QUERY, "a2")
        for backend in kernels.available_backends():
            with kernels.use_backend(backend):
                sdb = make_sharded(rows)
                assert sdb.sorted_scan(QUERY, "a2").rows == expected

    def test_single_shard_degenerate(self):
        rows = make_rows(300)
        sdb = make_sharded(rows, shards=1)
        assert sdb.sorted_scan(QUERY, "a2").rows == oracle_rows(
            rows, QUERY, "a2"
        )

    def test_elapsed_accounting(self):
        rows = make_rows(400)
        sdb = make_sharded(rows)
        result = sdb.sorted_scan(QUERY, "a2")
        assert result.simulated_elapsed == max(result.per_shard_elapsed)
        assert result.simulated_elapsed > 0


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
class TestLoading:
    def test_rows_partition_across_shards(self):
        rows = make_rows(500)
        sdb = make_sharded(rows)
        assert sum(sdb.rows_loaded) == len(rows)
        assert sdb.total_rows == len(rows)

    def test_streaming_factory_load(self):
        rows = make_rows(500)
        calls = []

        def factory():
            calls.append(1)
            return iter(rows)  # a one-shot stream, regenerated per pass

        sdb = ShardedDatabase(make_schema(), DIMS, "a1", shards=3, copies=2)
        assert sdb.load(factory) == len(rows)
        assert len(calls) == 3 * 2  # one pass per (shard, copy)
        assert sdb.sorted_scan(QUERY, "a2").rows == oracle_rows(
            rows, QUERY, "a2"
        )

    def test_nondeterministic_source_rejected(self):
        state = {"calls": 0}

        def flaky():
            state["calls"] += 1
            return make_rows(100 + state["calls"])

        sdb = ShardedDatabase(make_schema(), DIMS, "a1", shards=2, copies=2)
        with pytest.raises(ValueError, match="diverged"):
            sdb.load(flaky)

    def test_validator_accepts_fresh_load(self):
        sdb = make_sharded(make_rows(300), copies=2)
        invariants.validate_sharded_database(sdb)

    def test_validator_rejects_ledger_drift(self):
        sdb = make_sharded(make_rows(300), copies=2)
        sdb.rows_loaded[0] += 1
        with pytest.raises(invariants.InvariantViolation, match="ledger"):
            invariants.validate_sharded_database(sdb)

    def test_scan_under_repro_checks(self):
        rows = make_rows(300)
        with checks():
            sdb = make_sharded(rows, copies=2)
            result = sdb.sorted_scan(QUERY, "a2")
        assert result.rows == oracle_rows(rows, QUERY, "a2")

    def test_repro_checks_leave_the_storage_layer_untouched(self):
        """Checks on ≡ checks off, as seen by every copy's pool and disk:
        the validators peek, so they fault nothing in, count nothing and
        price nothing."""
        rows = make_rows(300)

        def observed(flag):
            with checks(flag):
                sdb = make_sharded(rows, copies=2)
                after_load = self._storage_state(sdb)
                streamed = sdb.sorted_scan(QUERY, "a2").rows
            return after_load, self._storage_state(sdb), streamed

        assert observed(True) == observed(False)

    @staticmethod
    def _storage_state(sdb):
        state = []
        for shard in sdb.shards:
            for copy in shard.copies:
                pool = copy.db.buffer
                state.append(
                    (
                        pool.iter_frames_lru(),
                        (pool.lookups, pool.hits, pool.misses, pool.disk_fetches),
                        repr(copy.db.disk.stats),
                    )
                )
        return state


# ----------------------------------------------------------------------
# the failure ladder
# ----------------------------------------------------------------------
class TestFailover:
    def test_mid_stream_death_resumes_on_replica(self):
        rows = make_rows(600)
        oracle = oracle_rows(rows, QUERY, "a2")
        sdb = make_sharded(rows, copies=2)
        sdb.kill_copy(1, 0, after_rows=40)
        result = sdb.sorted_scan(QUERY, "a2")
        assert result.rows == oracle
        assert [e.action for e in result.degradations] == ["failover"]
        event = result.degradations[0]
        assert (event.shard, event.copy, event.fallback_copy) == (1, 0, 1)
        assert sdb.health()[1] == ("dead", "ok")

    def test_death_at_scan_start_emits_failover(self):
        rows = make_rows(400)
        sdb = make_sharded(rows, copies=2)
        sdb.kill_copy(1, 0)
        result = sdb.sorted_scan(QUERY, "a2")
        assert result.rows == oracle_rows(rows, QUERY, "a2")
        assert [e.action for e in result.degradations] == ["failover"]

    def test_cascading_deaths_chain_failovers(self):
        rows = make_rows(600)
        sdb = make_sharded(rows, copies=3)
        sdb.kill_copy(1, 0, after_rows=20)
        sdb.kill_copy(1, 1, after_rows=30)
        result = sdb.sorted_scan(QUERY, "a2")
        assert result.rows == oracle_rows(rows, QUERY, "a2")
        assert [e.action for e in result.degradations] == [
            "failover",
            "failover",
        ]

    def test_last_copy_death_raises_typed_error(self):
        rows = make_rows(600)
        sdb = make_sharded(rows, copies=1)
        sdb.kill_copy(1, 0, after_rows=10)
        with pytest.raises(ShardFailedError) as excinfo:
            sdb.sorted_scan(QUERY, "a2")
        assert excinfo.value.shard == 1
        assert [e.action for e in excinfo.value.degradations] == ["failed"]
        # the terminal rung keeps its cause: which copy died last, and how
        (terminal,) = excinfo.value.degradations
        assert (terminal.copy, terminal.error_type) == (0, "ShardCopyKilledError")
        assert "killed after serving 10 rows" in terminal.error

    def test_terminal_rung_lists_copy_states_when_none_got_the_scan(self):
        rows = make_rows(600)
        sdb = make_sharded(rows, copies=2)
        sdb.kill_copy(1, 0)
        sdb.shards[1].copies[1].healthy = False
        with pytest.raises(ShardFailedError) as excinfo:
            sdb.sorted_scan(QUERY, "a2")
        (terminal,) = excinfo.value.degradations
        assert terminal.copy == -1
        assert terminal.error == (
            "no available copy: copy 0 dead, copy 1 quarantined"
        )

    def test_allow_partial_flags_lost_range(self):
        rows = make_rows(600)
        oracle = oracle_rows(rows, QUERY, "a2")
        sdb = make_sharded(rows, copies=1)
        sdb.kill_copy(1, 0, after_rows=10)
        result = sdb.sorted_scan(QUERY, "a2", allow_partial=True)
        assert result.partial
        (lost,) = result.failed_ranges
        kept = [
            row for row in oracle if not lost[0] <= row[0][0] <= lost[1]
        ]
        assert result.rows == kept
        assert [e.action for e in result.degradations] == ["abandoned"]

    def test_corrupt_pages_healed_from_peer(self):
        rows = make_rows(600)
        plan = FaultPlan(seed=5, corrupt_rate=0.30)
        sdb = make_sharded(
            rows,
            copies=2,
            fault_plans={(0, 0): plan},
            quarantine_threshold=2,
        )
        sdb.arm_faults()
        result = sdb.sorted_scan(QUERY, "a2")
        assert result.rows == oracle_rows(rows, QUERY, "a2")
        repaired = [e for e in result.degradations if e.action == "repaired"]
        assert repaired
        assert all(e.repaired_pages for e in repaired)

    @pytest.mark.parametrize("allow_partial", [False, True])
    def test_degradation_budget_gives_up_the_shard(self, allow_partial):
        """Every read of shard 1's primary rots, next to a healthy peer:
        each peer repair lifts the quarantine, the next read rots again,
        and the rung after the budget gives the shard up — typed, or as
        a flagged range, never as rows."""
        rows = make_rows(600)
        sdb = make_sharded(
            rows,
            copies=2,
            fault_plans={(1, 0): FaultPlan(seed=3, corrupt_rate=1.0)},
        )
        sdb.arm_faults()
        if allow_partial:
            result = sdb.sorted_scan(QUERY, "a2", allow_partial=True)
            events = result.degradations
            (lost,) = result.failed_ranges
            assert lost == (sdb.shards[1].slab.lo, sdb.shards[1].slab.hi)
            assert result.rows == [
                row
                for row in oracle_rows(rows, QUERY, "a2")
                if not lost[0] <= row[0][0] <= lost[1]
            ]
        else:
            with pytest.raises(ShardFailedError) as excinfo:
                sdb.sorted_scan(QUERY, "a2")
            assert excinfo.value.shard == 1
            events = excinfo.value.degradations
        terminal = "abandoned" if allow_partial else "failed"
        assert [e.action for e in events] == (
            ["repaired"] * MAX_DEGRADATIONS + [terminal]
        )
        assert {e.shard for e in events} == {1}
        last = events[-1]
        assert (last.copy, last.error_type) == (0, "CorruptPageError")
        assert last.error.startswith(
            f"degradation budget exhausted ({MAX_DEGRADATIONS}): "
            "checksum mismatch"
        )
        assert sdb.health()[1] == ("quarantined", "ok")

    def test_transient_faults_retried_in_place(self):
        rows = make_rows(600)
        plan = FaultPlan(seed=11, transient_rate=0.05)
        sdb = make_sharded(rows, copies=2, fault_plans={(2, 0): plan})
        sdb.arm_faults()
        result = sdb.sorted_scan(QUERY, "a2")
        assert result.rows == oracle_rows(rows, QUERY, "a2")
        assert all(
            event.shard == 2 for event in result.degradations
        )

    def test_slow_shard_still_bit_identical(self):
        rows = make_rows(600)
        plan = FaultPlan(seed=7, latency_rate=0.5)
        sdb = make_sharded(rows, copies=2, fault_plans={(1, 0): plan})
        baseline = sdb.sorted_scan(QUERY, "a2")
        sdb.reset_measurement()
        sdb.arm_faults()
        slow = sdb.sorted_scan(QUERY, "a2")
        assert slow.rows == baseline.rows == oracle_rows(rows, QUERY, "a2")
        assert slow.per_shard_elapsed[1] > baseline.per_shard_elapsed[1]


# ----------------------------------------------------------------------
# degradation telemetry
# ----------------------------------------------------------------------
class TestShardTelemetry:
    def test_events_share_the_telemetry_base(self):
        rows = make_rows(400)
        sdb = make_sharded(rows, copies=2)
        sdb.kill_copy(0, 0, after_rows=5)
        result = sdb.sorted_scan(QUERY, "a2")
        assert result.degradations
        for event in result.degradations:
            assert isinstance(event, TelemetryEvent)
            assert "shard" in event.describe()

    def test_observer_sees_exactly_the_scan_events(self):
        rows = make_rows(400)
        sdb = make_sharded(rows, copies=2)
        sdb.kill_copy(1, 0, after_rows=15)
        seen = []
        telemetry.subscribe(seen.append, ShardDegradationEvent)
        try:
            result = sdb.sorted_scan(QUERY, "a2")
        finally:
            telemetry.unsubscribe(seen.append, ShardDegradationEvent)
        assert tuple(seen) == result.degradations

    def test_observer_notified_on_typed_failure(self):
        rows = make_rows(400)
        sdb = make_sharded(rows, copies=1)
        sdb.kill_copy(0, 0, after_rows=5)
        seen = []
        telemetry.subscribe(seen.append, ShardDegradationEvent)
        try:
            with pytest.raises(ShardFailedError):
                sdb.sorted_scan(QUERY, "a2")
        finally:
            telemetry.unsubscribe(seen.append, ShardDegradationEvent)
        assert [event.action for event in seen] == ["failed"]

    def test_clean_scan_emits_nothing(self):
        rows = make_rows(300)
        sdb = make_sharded(rows, copies=2)
        seen = []
        telemetry.subscribe(seen.append, ShardDegradationEvent)
        try:
            sdb.sorted_scan(QUERY, "a2")
        finally:
            telemetry.unsubscribe(seen.append, ShardDegradationEvent)
        assert seen == []


# ----------------------------------------------------------------------
# the merge primitive
# ----------------------------------------------------------------------
def columns(*keyed):
    """``(keys, rows)`` columns of one stream, from its keyed pairs."""
    return [key for key, _ in keyed], [pair for _, pair in keyed]


class TestMergeStreams:
    def test_merges_in_key_order(self):
        streams = [
            columns((1, ((1,), "a")), (5, ((5,), "b"))),
            columns((2, ((2,), "c")), (9, ((9,), "d"))),
            columns((0, ((0,), "e"))),
        ]
        keys, rows = merge_shard_streams(streams)
        assert keys == [0, 1, 2, 5, 9]
        assert [payload for _, payload in rows] == ["e", "a", "c", "b", "d"]

    def test_empty_inputs(self):
        assert merge_shard_streams([]) == ([], [])
        assert merge_shard_streams([([], []), ([], [])]) == ([], [])

    def test_single_stream_passthrough(self):
        stream = columns((3, ((3,), "x")), (4, ((4,), "y")))
        assert merge_shard_streams([stream, ([], [])]) == stream

    def test_disjoint_streams_concatenate_without_the_kernel(self, monkeypatch):
        calls = []
        backend = kernels.get_backend()
        original = backend.merge_sorted_keys
        monkeypatch.setattr(
            backend,
            "merge_sorted_keys",
            lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs),
        )
        low = columns((1, ((1,), "a")), (4, ((4,), "b")))
        high = columns((5, ((5,), "c")), (5, ((5,), "d")))
        assert merge_shard_streams([low, high]) == columns(
            (1, ((1,), "a")), (4, ((4,), "b")), (5, ((5,), "c")), (5, ((5,), "d"))
        )
        assert calls == []
        # touching ends are not disjoint: the kernel decides the tie
        merge_shard_streams([high, columns((5, ((5,), "e")))])
        assert len(calls) == 1

    def test_matches_sorted_reference(self):
        rng = random.Random(17)
        streams = []
        everything = []
        for shard in range(5):
            keys = sorted(rng.randrange(10_000) for _ in range(200))
            stream = [(key, ((key,), (shard, position))) for position, key in enumerate(keys)]
            streams.append(columns(*stream))
            everything.extend(stream)
        keys, rows = merge_shard_streams(streams)
        # stable: lower shards win ties, a shard's own order is kept
        everything.sort(key=lambda pair: pair[0])
        assert keys == [key for key, _ in everything]
        assert rows == [pair for _, pair in everything]


# ----------------------------------------------------------------------
# construction guards
# ----------------------------------------------------------------------
class TestConstruction:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="shard count"):
            ShardedDatabase(make_schema(), DIMS, "a1", shards=0)

    def test_rejects_zero_copies(self):
        with pytest.raises(ValueError, match="at least one copy"):
            ShardedDatabase(make_schema(), DIMS, "a1", shards=2, copies=0)

    def test_rejects_non_index_shard_attribute(self):
        with pytest.raises(ValueError, match="not an index dimension"):
            ShardedDatabase(make_schema(), DIMS, "v", shards=2)

    def test_slabs_partition_the_domain(self):
        sdb = ShardedDatabase(make_schema(), DIMS, "a1", shards=5)
        edges = [(s.slab.lo, s.slab.hi) for s in sdb.shards]
        assert edges[0][0] == 0
        assert edges[-1][1] == 1023
        for (_, hi), (lo, _) in zip(edges, edges[1:]):
            assert lo == hi + 1
