"""Pipelined-join tests: operators, telemetry, pushdown plans, sharding.

Complements ``test_operators.py`` (basic join semantics) with the
properties the pipelined-join work relies on:

* early exit — a merge join stops *consuming* an input once the other
  side can no longer produce matches, which is what makes restriction
  pushdown on the probe side observable as pages never read;
* exactly-once :class:`~repro.telemetry.JoinEvent` emission, with
  first-tuple clocks, only on natural drain;
* the full Q3/Q4 pushdown plans are bit-identical to the plain Tetris
  plans and to the reference evaluators, on every kernel backend;
* the batched joins replay the row-at-a-time joins of ``oracles.py`` —
  rows, events, the output handed over before every batch pull and a
  coordinator's reconciles;
* the dual-cursor prefetcher never changes join output, never loses to
  the solo per-scan prefetchers, and restores the scans on close; the
  batched semi-join with its event-driven ``advise`` is
  indistinguishable — rows, clocks, ledgers, fault log — from the row
  loop reconciling before every pull, and projects per consumed
  region, not per row;
* a co-partitioned sharded join equals the serial join bit-for-bit —
  clean, across failover, and ``allow_partial`` never silently drops
  rows outside its flagged key ranges.
"""

import ast
import datetime as dt
import hashlib
import inspect
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, telemetry
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.relational.operators import (
    HashJoin,
    MergeJoin,
    MergeSemiJoin,
    Operator,
    TetrisOperator,
)
from repro.relational.operators import join as join_module
from repro.relational.operators import scan as scan_module
from repro.shard import CoPartitionedJoin, ShardedDatabase, ShardFailedError
from repro.core.region import RegionCursor
from repro.storage import ICDE99_TESTBED, FaultPlan, IOScheduler, StorageError
from repro.storage.prefetch import DualCursorPrefetcher, SweepPrefetcher
from repro.telemetry import JoinEvent
from repro.tpcd import TPCDConfig, generate, plans, reference_q3, reference_q4
from repro.tpcd.queries import Q3Params, Q4Params
from repro.tpcd.schema import ORDERDATE_HI, ORDERDATE_LO

from oracles import RowHashJoin, RowMergeJoin, RowMergeSemiJoin, event_point_order

DIMS = ("a1", "a2")


def make_schema() -> Schema:
    return Schema(
        [
            Attribute("a1", IntEncoder(0, 1023)),
            Attribute("a2", IntEncoder(0, 1023)),
            Attribute("v", IntEncoder(0, 10**9)),
        ]
    )


def make_rows(count: int, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    return [(rng.randrange(1024), rng.randrange(1024), i) for i in range(count)]


@pytest.fixture(scope="module")
def data():
    return generate(TPCDConfig(scale_factor=0.1, correlated_dates=True))


#: a mid-domain date band (see bench_join.py): qualifying orderkeys are
#: then a band in the middle of the key domain, so pushdown page skips
#: are not aliased by the merge join's own early exit
Q3_BAND_PARAMS = Q3Params(
    orderdate_from=dt.date(1995, 1, 1),
    orderdate_before=dt.date(1995, 7, 1),
    shipdate_after=dt.date(1993, 6, 30),
)


# ----------------------------------------------------------------------
# merge-join consumption properties
# ----------------------------------------------------------------------
class TestEarlyExit:
    def test_merge_join_stops_reading_right_after_left_exhausts(self):
        left = [(1,), (2,)]
        right_iter = iter([(1,), (2,), (3,), (4,), (5,)])
        out = list(
            MergeJoin(
                left, right_iter, left_key=lambda r: r[0], right_key=lambda r: r[0]
            )
        )
        assert out == [(1, 1), (2, 2)]
        # (3,) was pulled to discover left < right; (4,) and (5,) never were
        assert list(right_iter) == [(4,), (5,)]

    def test_semi_join_stops_reading_left_after_right_exhausts(self):
        left_iter = iter([(1,), (5,), (7,), (9,)])
        right = [(1,), (4,)]
        out = list(
            MergeSemiJoin(
                left_iter, right, left_key=lambda r: r[0], right_key=lambda r: r[0]
            )
        )
        assert out == [(1,)]
        # right exhausted while advancing past (5,); (7,) and (9,) unread
        assert list(left_iter) == [(7,), (9,)]

    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 99)), max_size=50),
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 99)), max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_semi_join_matches_set_reference(self, left_raw, right_raw):
        left = sorted(left_raw)
        right = sorted(right_raw)
        right_keys = {r[0] for r in right}
        expected = [r for r in left if r[0] in right_keys]
        out = list(
            MergeSemiJoin(
                left, right, left_key=lambda r: r[0], right_key=lambda r: r[0]
            )
        )
        assert out == expected

    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 99)), max_size=50),
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 99)), max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_hash_join_matches_nested_loop(self, build_raw, probe_raw):
        expected = sorted(
            b + p for b in build_raw for p in probe_raw if b[0] == p[0]
        )
        out = sorted(
            HashJoin(
                build_raw,
                probe_raw,
                build_key=lambda r: r[0],
                probe_key=lambda r: r[0],
            )
        )
        assert out == expected


# ----------------------------------------------------------------------
# JoinEvent telemetry: exactly once, only on natural drain
# ----------------------------------------------------------------------
class TestJoinEvents:
    def collect(self):
        events = []
        telemetry.subscribe(events.append, JoinEvent)
        return events

    def test_full_drain_emits_exactly_one_event(self):
        events = self.collect()
        try:
            join = MergeJoin(
                [(1,), (2,)],
                [(2,), (3,)],
                left_key=lambda r: r[0],
                right_key=lambda r: r[0],
                shard=7,
            )
            assert list(join) == [(2, 2)]
        finally:
            telemetry.unsubscribe(events.append, JoinEvent)
        assert len(events) == 1
        event = events[0]
        assert event.operator == "merge-join"
        assert event.rows == 1
        assert event.shard == 7
        assert join.last_event is event

    def test_abandoned_iteration_emits_nothing(self):
        events = self.collect()
        try:
            join = MergeJoin(
                [(1,), (2,), (3,)],
                [(1,), (2,), (3,)],
                left_key=lambda r: r[0],
                right_key=lambda r: r[0],
            )
            iterator = iter(join)
            next(iterator)
            iterator.close()
        finally:
            telemetry.unsubscribe(events.append, JoinEvent)
        assert events == []
        assert join.last_event is None

    def test_event_clocks_measure_first_tuple(self):
        from repro.storage import SimulatedDisk

        disk = SimulatedDisk()

        def left():
            disk.advance_clock(2.0)
            yield (1,)
            disk.advance_clock(3.0)
            yield (2,)

        events = self.collect()
        try:
            join = MergeSemiJoin(
                left(),
                [(1,), (2,)],
                left_key=lambda r: r[0],
                right_key=lambda r: r[0],
                disk=disk,
            )
            assert list(join) == [(1,), (2,)]
        finally:
            telemetry.unsubscribe(events.append, JoinEvent)
        (event,) = events
        assert event.first_tuple_clock - event.start_clock == pytest.approx(2.0)
        assert event.end_clock - event.start_clock == pytest.approx(5.0)
        assert event.time_to_first == pytest.approx(2.0)


# ----------------------------------------------------------------------
# full Q3/Q4 plans: pushdown bit-identity, both backends
# ----------------------------------------------------------------------
class TestPushdownPlans:
    def run_q3(self, data, params):
        db = Database(ICDE99_TESTBED, buffer_pages=256)
        customer_ub = plans.build_customer_ub(db, data)
        order_ub = plans.build_order_ub(db, data)
        lineitem_ub = plans.build_lineitem_ub_sort(db, data)
        probe, _ = plans.q3_lineitem_access("tetris", db, lineitem_ub, params)
        tetris_rows = list(
            plans.q3_full_plan(
                db, customer_ub, order_ub, probe, params, use_tetris=True
            )
        )
        pushed = plans.q3_pushdown_plan(
            db, customer_ub, order_ub, lineitem_ub, params
        )
        pushdown_rows = list(pushed.plan)
        return tetris_rows, pushdown_rows, pushed

    def run_q4(self, data, params):
        db = Database(ICDE99_TESTBED, buffer_pages=256)
        order_ub = plans.build_order_ub(db, data)
        lineitem_ub = plans.build_lineitem_ub_q4(db, data)
        pipelined = plans.q4_pipelined_plan(db, order_ub, lineitem_ub, params)
        tetris_rows = list(pipelined.plan)
        pushed = plans.q4_pushdown_plan(db, order_ub, lineitem_ub, params)
        pushdown_rows = list(pushed.plan)
        return tetris_rows, pushdown_rows, pushed

    def test_q3_pushdown_bit_identical_and_skips_pages(self, data):
        params = Q3_BAND_PARAMS
        tetris_rows, pushdown_rows, pushed = self.run_q3(data, params)
        reference = reference_q3(data, params)
        assert [r[3] for r in tetris_rows] == [r[3] for r in reference]
        assert pushdown_rows == tetris_rows
        assert pushed.probe.stats.pages_skipped_by_pushdown > 0
        assert pushed.build_rows > 0
        assert len(pushed.cover.intervals) <= pushed.cover.budget

    def test_q4_pushdown_bit_identical_and_skips_pages(self, data):
        params = Q4Params()
        tetris_rows, pushdown_rows, pushed = self.run_q4(data, params)
        assert tetris_rows == reference_q4(data, params)
        assert pushdown_rows == tetris_rows
        assert pushed.probe.stats.pages_skipped_by_pushdown > 0

    def test_backends_bit_identical(self, data):
        results = {}
        for backend in kernels.available_backends():
            with kernels.use_backend(backend):
                q3_tetris, q3_pushdown, _ = self.run_q3(data, Q3_BAND_PARAMS)
                q4_tetris, q4_pushdown, _ = self.run_q4(data, Q4Params())
                results[backend] = (q3_tetris, q3_pushdown, q4_tetris, q4_pushdown)
        reference = next(iter(results.values()))
        for backend, got in results.items():
            assert got == reference, f"backend {backend} diverged"

    def test_empty_build_side_yields_empty_join(self, data):
        # a zero-width date window qualifies nothing; the pushdown cover
        # is empty and the probe sweep reads no regions
        params = Q4Params(
            orderdate_from=dt.date(1997, 1, 2),
            orderdate_until=dt.date(1997, 1, 2),
        )
        tetris_rows, pushdown_rows, pushed = self.run_q4(data, params)
        assert tetris_rows == pushdown_rows == []
        assert pushed.build_rows == 0
        assert pushed.probe.stats.regions_read == 0


# ----------------------------------------------------------------------
# batched joins replay the row-at-a-time loop
# ----------------------------------------------------------------------
class Ticks:
    """A stand-in disk for the joins' telemetry: the clock ticks on every
    batch pull, ``taken`` counts the output rows the consumer has taken
    and ``stamp`` is what a read-ahead coordinator watches."""

    def __init__(self):
        self.clock = 0
        self.taken = 0
        self.stamp = 0


class Cut(Operator):
    """A sorted input handed over in the given batches; notes at every
    batch pull how many output rows the consumer had taken by then."""

    def __init__(self, ticks, cuts):
        self.ticks = ticks
        self.cuts = cuts
        self.pulls = []

    def batches(self):
        ticks = self.ticks
        for batch in [*self.cuts, None]:
            self.pulls.append(ticks.taken)
            ticks.clock += 1
            ticks.stamp += 1
            if batch is None:
                return
            yield list(batch)


class ToyCoordinator:
    """The event-driven coordinator's contract in miniature: a call
    reconciles iff the stamp moved since the last reconcile began, and a
    reconcile sometimes moves the stamp itself (a submitted read)."""

    def __init__(self, ticks, seed):
        self.ticks = ticks
        self.rng = random.Random(seed)
        self.reconciled_at = None
        self.log = []
        self.closed = False

    def advise(self, side):
        if self.closed or self.ticks.stamp == self.reconciled_at:
            return False
        self.reconciled_at = self.ticks.stamp
        self.log.append((side, self.ticks.clock))
        if self.rng.random() < 0.5:
            self.ticks.stamp += 1
        return True

    def close(self):
        self.closed = True


@st.composite
def cut_input(draw, side):
    """Rows ``(key, side, position)`` ascending on a duplicate-heavy key,
    cut into random non-empty batches."""
    keys = sorted(draw(st.lists(st.integers(0, 9), max_size=30)))
    rows = [(key, side, position) for position, key in enumerate(keys)]
    cuts, at = [], 0
    while at < len(rows):
        size = draw(st.integers(1, 7))
        cuts.append(rows[at : at + size])
        at += size
    return cuts


def run_cut(join_cls, left_cuts, right_cuts, seed):
    """Drain ``join_cls`` over two cut inputs row by row; everything the
    run leaves behind that the two loops must agree on."""
    ticks = Ticks()
    left, right = Cut(ticks, left_cuts), Cut(ticks, right_cuts)
    first = lambda row: row[0]  # noqa: E731
    if join_cls in (MergeSemiJoin, RowMergeSemiJoin):
        coordinator = ToyCoordinator(ticks, seed)
        join = join_cls(left, right, first, first, disk=ticks, prefetch=coordinator)
    else:
        coordinator = None
        join = join_cls(left, right, first, first, disk=ticks)
    rows = []
    for row in join:
        ticks.taken += 1
        rows.append(row)
    return {
        "rows": rows,
        "event": join.last_event,
        "pulls": (left.pulls, right.pulls),
        "reconciles": None if coordinator is None else coordinator.log,
    }


class TestBatchedJoinsReplayTheRowLoop:
    """Output rows, :class:`JoinEvent` fields, the output handed over
    before every batch pull of either input and — for the semi-join —
    every reconcile of the coordinator equal the row-at-a-time joins in
    ``tests/oracles.py``."""

    PAIRS = [
        (MergeJoin, RowMergeJoin),
        (MergeSemiJoin, RowMergeSemiJoin),
        (HashJoin, RowHashJoin),
    ]

    @pytest.mark.parametrize("backend", kernels.available_backends())
    @pytest.mark.parametrize(
        "batched,reference", PAIRS, ids=[pair[0].__name__ for pair in PAIRS]
    )
    @settings(max_examples=150)
    @given(
        left=cut_input("l"),
        right=cut_input("r"),
        seed=st.integers(0, 2**16),
    )
    def test_same_rows_events_and_pulls(
        self, backend, batched, reference, left, right, seed
    ):
        with kernels.use_backend(backend):
            got = run_cut(batched, left, right, seed)
            expected = run_cut(reference, left, right, seed)
        assert got == expected
        assert got["event"] is not None

    def test_joins_define_no_row_loop(self):
        """The Tetris operator and the three joins implement ``batches()``
        only: no ``__iter__`` of their own beside the derived one."""
        wanted = {"TetrisOperator", "MergeJoin", "MergeSemiJoin", "HashJoin"}
        found = set()
        for module in (join_module, scan_module):
            tree = ast.parse(inspect.getsource(module))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name in wanted | {
                    "_InstrumentedJoin"
                }:
                    found.add(node.name)
                    methods = {
                        item.name
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                    }
                    assert "__iter__" not in methods, node.name
        assert wanted <= found


# ----------------------------------------------------------------------
# dual-cursor prefetching
# ----------------------------------------------------------------------
class PollingDualCursor(DualCursorPrefetcher):
    """The coordinator as it was before ``advise`` became event-driven:
    both sweeps re-projected and both windows reconciled before *every*
    row pull.  It survives only here, as the reference the engine's
    coordinator must be indistinguishable from."""

    def advise(self, index):
        if self._closed:
            return
        order = [index] + [
            side for side in range(len(self._sides)) if side != index
        ]
        for side_index in order:
            scan, prefetcher = self._sides[side_index]
            upcoming = scan.cursor.upcoming_page_ids(prefetcher.depth)
            # the old body also called SweepPrefetcher.retain(upcoming) to
            # free window slots of pages no longer projected.  The sweep
            # marks every page consumed itself, so there never were any —
            # which is what licensed deleting retain().
            assert prefetcher.outstanding <= set(upcoming)
            prefetcher.top_up(scan.cursor)


class TestDualCursorPrefetch:
    def q4_world(self, data, *, pool=256, devices=4, prefetch_depth=8):
        db = Database(
            ICDE99_TESTBED,
            buffer_pages=pool,
            devices=devices,
            prefetch_depth=prefetch_depth,
        )
        order_ub = plans.build_order_ub(db, data)
        lineitem_ub = plans.build_lineitem_ub_q4(db, data)
        db.reset_measurement()
        return db, order_ub, lineitem_ub

    def run_pipelined(self, data, *, prefetch):
        db, order_ub, lineitem_ub = self.q4_world(data)
        before = db.disk.snapshot()
        pipelined = plans.q4_pipelined_plan(
            db, order_ub, lineitem_ub, Q4Params(), prefetch=prefetch
        )
        rows = list(pipelined.plan)
        elapsed = (db.disk.snapshot() - before).time
        return rows, elapsed, pipelined

    def test_output_identical_and_not_slower(self, data):
        solo_rows, solo_elapsed, _ = self.run_pipelined(data, prefetch=False)
        dual_rows, dual_elapsed, pipelined = self.run_pipelined(
            data, prefetch=True
        )
        assert dual_rows == solo_rows == reference_q4(data, Q4Params())
        assert dual_elapsed <= solo_elapsed * (1 + 1e-9)

    def test_scans_restored_after_drain(self, data):
        _, _, pipelined = self.run_pipelined(data, prefetch=True)
        assert pipelined.prefetch is not None
        assert pipelined.left.scan.cursor.window is None
        assert pipelined.right.scan.cursor.window is None

    def test_no_prefetch_database_degrades_to_none(self, data):
        db, order_ub, lineitem_ub = self.q4_world(data, devices=1, prefetch_depth=0)
        pipelined = plans.q4_pipelined_plan(
            db, order_ub, lineitem_ub, Q4Params(), prefetch=True
        )
        assert pipelined.prefetch is None
        assert list(pipelined.plan) == reference_q4(data, Q4Params())

    # -- event-driven advise == polling advise, observable for observable

    LEFT_ROWS = make_rows(150, seed=5)
    RIGHT_ROWS = make_rows(400, seed=6)
    #: pool x depth x devices; pool 16 lets the two windows swallow it
    GRID = [
        (pool, depth, devices)
        for pool in (16, 64, 256)
        for depth in (1, 4, 8)
        for devices in (1, 4)
    ]
    FAULTS = {
        "transient": FaultPlan(seed=3, transient_rate=0.08),
        "latency": FaultPlan(seed=4, latency_rate=0.2),
        # seed 7 rots a data page on its first read in every world; seed
        # 5 only ever fired on a warm re-read, which a 64-frame pool no
        # longer makes once scans stop parking index pages in it
        "corrupt": FaultPlan(seed=7, corrupt_rate=0.04),
    }

    def synthetic_world(self, pool, depth, devices, **stack):
        db = Database(
            buffer_pages=pool, devices=devices, prefetch_depth=depth, **stack
        )
        tables = []
        for name, rows in (("l", self.LEFT_ROWS), ("r", self.RIGHT_ROWS)):
            table = db.create_ub_table(name, make_schema(), DIMS, 8)
            table.bulk_load(rows)
            tables.append(table)
        db.reset_measurement()
        if stack.get("fault_plan") is not None:
            db.arm_faults()
        return db, tables

    def observe(self, db, join, sides):
        """Everything a run leaves behind that a caller could look at."""
        before = db.disk.snapshot()
        try:
            outcome = list(join)
        except StorageError as error:
            outcome = (type(error).__name__, str(error))
        pool = db.buffer
        return {
            "outcome": outcome,
            "page_order": [list(side.scan.page_access_order) for side in sides],
            "io": db.disk.snapshot() - before,  # clock, reads, ledger, faults
            "fault_log": list(getattr(db.disk, "fault_log", ())),
            "pool": (
                pool.prefetch_issued,
                pool.prefetch_claimed,
                pool.prefetch_cancelled,
                pool.hits,
                pool.misses,
            ),
        }

    def run_synthetic(self, coordinator, join_cls, pool, depth, devices, **stack):
        """A cold semi-join, then a warm one on the same pool; each side
        reads a prefix of the event-point loop's pages, in its order."""
        db, (left_table, right_table) = self.synthetic_world(
            pool, depth, devices, **stack
        )
        runs = []
        for _ in range(2):
            left = TetrisOperator(left_table, {"a2": (100, 900)}, "a1")
            # the right side ends early, so windows are still loaded at close
            right = TetrisOperator(right_table, {"a1": (0, 800)}, "a1")
            dual = coordinator.for_operators(left, right)
            assert type(dual) is coordinator
            join = join_cls(
                left,
                right,
                left_key=lambda row: row[0],
                right_key=lambda row: row[0],
                disk=db.disk,
                prefetch=dual,
            )
            runs.append(self.observe(db, join, (left, right)))
            for side in (left, right):
                scan = side.scan
                order = scan.page_access_order
                assert order == event_point_order(
                    scan.ubtree, scan.space, scan.sort_dims
                )[: len(order)]
        return runs

    @pytest.mark.parametrize("pool,depth,devices", GRID)
    def test_event_driven_advise_matches_polling(self, pool, depth, devices):
        reference = self.run_synthetic(
            PollingDualCursor, RowMergeSemiJoin, pool, depth, devices
        )
        got = self.run_synthetic(
            DualCursorPrefetcher, MergeSemiJoin, pool, depth, devices
        )
        assert got == reference, (pool, depth, devices)
        cold, warm = got
        assert cold["outcome"] and warm["outcome"]
        assert cold["io"].prefetch.prefetch_issued > 0

    @pytest.mark.parametrize("replicas", [0, 2])
    @pytest.mark.parametrize("kind", sorted(FAULTS))
    def test_event_driven_advise_matches_polling_under_faults(self, kind, replicas):
        for pool, depth in ((16, 8), (64, 4)):
            stack = {"fault_plan": self.FAULTS[kind], "replicas": replicas}
            reference = self.run_synthetic(
                PollingDualCursor, RowMergeSemiJoin, pool, depth, 4, **stack
            )
            got = self.run_synthetic(
                DualCursorPrefetcher, MergeSemiJoin, pool, depth, 4, **stack
            )
            assert got == reference, (kind, replicas, pool, depth)
            assert got[-1]["fault_log"], "the plan never fired: vacuous"

    #: the harness's Q4 windows (30, 90 and 180 days) at four starts each
    Q4_WINDOWS = [
        Q4Params(start, start + dt.timedelta(days=days))
        for days in (30, 90, 180)
        for start in (
            ORDERDATE_LO + (ORDERDATE_HI - ORDERDATE_LO - dt.timedelta(days)) * k / 3
            for k in range(4)
        )
    ]

    def test_event_driven_advise_matches_polling_on_q4(self, data, monkeypatch):
        """The real plan over its triangular space: the default window
        cold then warm, then the harness's twelve windows on one pool.
        Without the replay of the unsettled row steps after a batch pull
        the 180-day window at the third start diverges."""
        windows = [Q4Params(), Q4Params(), *self.Q4_WINDOWS]

        def run():
            db, order_ub, lineitem_ub = self.q4_world(data, pool=64)
            runs = []
            for params in windows:
                pipelined = plans.q4_pipelined_plan(
                    db, order_ub, lineitem_ub, params, prefetch=True
                )
                runs.append(
                    self.observe(
                        db, pipelined.plan, (pipelined.left, pipelined.right)
                    )
                )
            return runs, type(pipelined.prefetch)

        got, coordinator = run()
        assert coordinator is DualCursorPrefetcher
        # the reference: the row loop, reconciling before every pull
        monkeypatch.setattr(plans, "DualCursorPrefetcher", PollingDualCursor)
        monkeypatch.setattr(plans, "MergeSemiJoin", RowMergeSemiJoin)
        reference, coordinator = run()
        assert coordinator is PollingDualCursor
        for params, got_run, reference_run in zip(windows, got, reference):
            assert got_run == reference_run, params
        assert got[0]["outcome"] == reference_q4(data, Q4Params())

    # -- the read-ahead's requests to the device queues, pinned

    #: ``case -> [calls, sha256]`` of the scheduler's call sequence per
    #: case below, recorded at the commit before the windows became
    #: slices of the region cursor's schedule
    IO_RECORDING = pathlib.Path(__file__).parent / "golden" / "dual_cursor_io.json"

    def io_cases(self):
        cases = {
            f"grid-{pool}-{depth}-{devices}": (pool, depth, devices, {})
            for pool, depth, devices in self.GRID
        }
        for kind, plan in self.FAULTS.items():
            for replicas in (0, 2):
                for pool, depth in ((16, 8), (64, 4)):
                    stack = {"fault_plan": plan, "replicas": replicas}
                    cases[f"{kind}-{replicas}-{pool}-{depth}"] = (pool, depth, 4, stack)
        return cases

    def io_sequence(self, case, data, monkeypatch):
        """Every ``IOScheduler`` submit, claim, cancel and demand read of
        one case, in order: page, outcome and the clock after it."""
        calls = []
        originals = {
            name: getattr(IOScheduler, name)
            for name in ("submit", "claim", "cancel", "read")
        }
        for name, original in originals.items():

            def recorded(scheduler, page_id, *args, _name=name, _call=original, **kw):
                outcome = None
                try:
                    result = _call(scheduler, page_id, *args, **kw)
                    outcome = result if isinstance(result, bool) else result is not None
                    return result
                except StorageError as error:
                    outcome = type(error).__name__
                    raise
                finally:
                    calls.append((_name, page_id, outcome, repr(scheduler.stats.time)))

            monkeypatch.setattr(IOScheduler, name, recorded)
        if case == "q4":
            db, order_ub, lineitem_ub = self.q4_world(data, pool=64)
            for params in [Q4Params(), Q4Params(), *self.Q4_WINDOWS]:
                pipelined = plans.q4_pipelined_plan(
                    db, order_ub, lineitem_ub, params, prefetch=True
                )
                self.observe(db, pipelined.plan, (pipelined.left, pipelined.right))
        else:
            pool, depth, devices, stack = self.io_cases()[case]
            self.run_synthetic(
                DualCursorPrefetcher, MergeSemiJoin, pool, depth, devices, **stack
            )
        digest = hashlib.sha256(repr(calls).encode()).hexdigest()
        return [len(calls), digest]

    @pytest.mark.parametrize(
        "case",
        ["q4"]
        + [f"grid-{pool}-{depth}-{devices}" for pool, depth, devices in GRID]
        + [
            f"{kind}-{replicas}-{pool}-{depth}"
            for kind in sorted(FAULTS)
            for replicas in (0, 2)
            for pool, depth in ((16, 8), (64, 4))
        ],
    )
    def test_scheduler_sees_the_recorded_sequence(self, case, data, monkeypatch):
        recording = json.loads(self.IO_RECORDING.read_text())
        assert self.io_sequence(case, data, monkeypatch) == recording[case]

    # -- and the poll must not creep back: count, don't time

    def test_projects_per_consumed_region_not_per_row(self, data, monkeypatch):
        calls = dict.fromkeys(
            ("project", "top_ups", "open", "advise", "reconciles", "pulls"), 0
        )
        project, top_up = RegionCursor.upcoming_page_ids, SweepPrefetcher.top_up
        batches = TetrisOperator.batches

        def counting_project(cursor, count):
            calls["project"] += 1
            return project(cursor, count)

        def counting_top_up(prefetcher, cursor):
            calls["top_ups"] += 1
            calls["open"] += len(prefetcher.outstanding) < prefetcher.depth
            return top_up(prefetcher, cursor)

        def counting_batches(operator):
            pulled = batches(operator)
            while True:
                calls["pulls"] += 1
                batch = next(pulled, None)
                if batch is None:
                    return
                yield batch

        monkeypatch.setattr(RegionCursor, "upcoming_page_ids", counting_project)
        monkeypatch.setattr(SweepPrefetcher, "top_up", counting_top_up)
        monkeypatch.setattr(TetrisOperator, "batches", counting_batches)

        db, order_ub, lineitem_ub = self.q4_world(data, pool=64)
        pipelined = plans.q4_pipelined_plan(
            db, order_ub, lineitem_ub, Q4Params(), prefetch=True
        )
        # shadow advise on the instance, the way the benchmark harness
        # times it: the join must look it up at call time
        advise = pipelined.prefetch.advise

        def counting_advise(side):
            calls["advise"] += 1
            reconciled = advise(side)
            calls["reconciles"] += reconciled
            return reconciled

        pipelined.prefetch.advise = counting_advise
        assert list(pipelined.plan) == reference_q4(data, Q4Params())

        regions = (
            pipelined.left.stats.regions_read + pipelined.right.stats.regions_read
        )
        reconciles = calls["reconciles"]
        # a reconcile tops both windows, a sweep its own once per region
        assert calls["top_ups"] == 2 * reconciles + regions
        # a consumed region makes one reconcile that issues reads and one
        # that finds nothing left to do; 4 covers the opening pair
        assert 0 < reconciles <= 2 * regions + 4
        # a window is a slice of its cursor's schedule, projected only by
        # a top-up that finds it open — plus, once per side, the first
        # top-up checking the window against the schedule it came from.
        # A full window projects nothing.
        assert calls["project"] == calls["open"] + 2
        assert calls["project"] < calls["top_ups"]
        # the join advises before each batch pull, then row by row until
        # one call finds nothing to do: apart from the calls that
        # reconciled, at most two per batch pull
        assert calls["advise"] <= 2 * calls["pulls"] + reconciles
        rows = pipelined.left.stats.tuples_output + pipelined.right.stats.tuples_output
        assert calls["advise"] < rows / 4


# ----------------------------------------------------------------------
# co-partitioned sharded joins
# ----------------------------------------------------------------------
class TestCoPartitionedJoin:
    LEFT_ROWS = make_rows(420, seed=5)
    RIGHT_ROWS = make_rows(700, seed=6)

    def serial_stream(self, rows):
        db = Database(buffer_pages=64)
        table = db.create_ub_table("serial", make_schema(), DIMS, 32)
        table.bulk_load(rows)
        return [row for _, row in table.tetris_scan(None, "a1")]

    def oracle(self, kind):
        left = self.serial_stream(self.LEFT_ROWS)
        right = self.serial_stream(self.RIGHT_ROWS)
        join_cls = MergeJoin if kind == "inner" else MergeSemiJoin
        return list(
            join_cls(
                left, right, left_key=lambda r: r[0], right_key=lambda r: r[0]
            )
        )

    def make_pair(self, *, shards, copies=1):
        left = ShardedDatabase(
            make_schema(), DIMS, "a1", shards=shards, copies=copies
        )
        left.load(self.LEFT_ROWS)
        right = ShardedDatabase(
            make_schema(), DIMS, "a1", shards=shards, copies=copies
        )
        right.load(self.RIGHT_ROWS)
        return left, right

    @pytest.mark.parametrize("kind", ["inner", "semi"])
    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_bit_identical_to_serial_join(self, kind, shards):
        left, right = self.make_pair(shards=shards)
        result = CoPartitionedJoin(left, right, kind=kind).run()
        assert result.rows == self.oracle(kind)
        assert not result.degraded
        assert not result.partial
        assert sum(result.per_shard_rows) == len(result.rows)

    def test_one_event_per_surviving_leg_with_clocks(self):
        left, right = self.make_pair(shards=4)
        result = CoPartitionedJoin(left, right, kind="inner").run()
        assert len(result.join_events) == 4  # one per surviving leg
        for event in result.join_events:
            assert event.operator == "merge-join"
            assert event.shard is not None
            if event.rows:
                assert event.time_to_first is not None
                assert event.time_to_first >= 0.0

    def test_mismatched_slabs_rejected(self):
        left, _ = self.make_pair(shards=2)
        _, right = self.make_pair(shards=3)
        with pytest.raises(ValueError):
            CoPartitionedJoin(left, right)

    def test_failover_mid_join_is_bit_identical(self):
        left, right = self.make_pair(shards=3, copies=2)
        right.kill_copy(1, 0, after_rows=25)
        result = CoPartitionedJoin(left, right, kind="inner").run()
        assert result.rows == self.oracle("inner")
        assert result.degraded
        assert not result.partial

    def test_last_copy_death_raises_typed_error(self):
        left, right = self.make_pair(shards=3, copies=1)
        right.kill_copy(1, 0, after_rows=10)
        with pytest.raises(ShardFailedError):
            CoPartitionedJoin(left, right, kind="inner").run()

    def test_allow_partial_never_silently_drops(self):
        left, right = self.make_pair(shards=3, copies=1)
        right.kill_copy(1, 0, after_rows=10)
        result = CoPartitionedJoin(left, right, kind="inner").run(
            allow_partial=True
        )
        assert result.partial
        assert result.failed_ranges
        encoder = make_schema().attribute("a1").encoder
        lost = {
            row[:3]
            for row in self.oracle("inner")
            if any(
                lo <= encoder.encode(row[0]) <= hi
                for lo, hi in result.failed_ranges
            )
        }
        surviving = [
            row
            for row in self.oracle("inner")
            if row[:3] not in lost
        ]
        assert result.rows == surviving
