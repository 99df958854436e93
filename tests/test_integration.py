"""End-to-end integration tests: the paper's claims on a shared substrate."""

import random

import pytest

from repro.core.query_space import QueryBox
from repro.costmodel import SECTION_4_PARAMS, c_tetris, tetris_regions
from repro.planner import RelationStats, choose_plan
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.relational.operators import (
    ExternalMergeSort,
    FirstTupleTimer,
    FullTableScan,
    IOTScan,
    TetrisOperator,
)
from repro.storage import ICDE99_ANALYSIS


def build_world(rows=6000, domain_bits=10, page_capacity=40, seed=0):
    """One relation in three physical organizations on one simulated disk."""
    schema = Schema(
        [
            Attribute("a1", IntEncoder(0, (1 << domain_bits) - 1)),
            Attribute("a2", IntEncoder(0, (1 << domain_bits) - 1)),
            Attribute("payload", IntEncoder(0, 10**9)),
        ]
    )
    rng = random.Random(seed)
    data = [
        (rng.randrange(1 << domain_bits), rng.randrange(1 << domain_bits), i)
        for i in range(rows)
    ]
    db = Database(ICDE99_ANALYSIS, buffer_pages=64)
    heap = db.create_heap_table("heap", schema, page_capacity)
    heap.load(data)
    iot_a1 = db.create_iot("iot_a1", schema, key=("a1", "a2"), page_capacity=page_capacity)
    iot_a1.load(data)
    iot_a2 = db.create_iot("iot_a2", schema, key=("a2", "a1"), page_capacity=page_capacity)
    iot_a2.load(data)
    ub = db.create_ub_table("ub", schema, dims=("a1", "a2"), page_capacity=page_capacity)
    ub.load(data)
    return db, data, heap, iot_a1, iot_a2, ub


@pytest.fixture(scope="module")
def world():
    return build_world()


def measure(db, plan):
    db.reset_measurement()
    timer = FirstTupleTimer(plan, db.disk)
    rows = list(timer)
    return rows, timer


class TestSortWithRestriction:
    """Sorting on A2 with a 50 % restriction on A1 (the Fig. 4-2 scenario)."""

    LIMIT = 511  # a1 <= 511 of 0..1023 -> 50 %

    def test_all_methods_same_multiset_and_order(self, world):
        db, data, heap, iot_a1, iot_a2, ub = world
        expected = sorted(
            (r for r in data if r[0] <= self.LIMIT), key=lambda r: r[1]
        )

        tetris_rows, _ = measure(
            db, TetrisOperator(ub, {"a1": (0, self.LIMIT)}, "a2")
        )
        fts_rows, _ = measure(
            db,
            ExternalMergeSort(
                FullTableScan(heap, predicate=lambda r: r[0] <= self.LIMIT),
                key=lambda r: r[1],
                disk=db.disk,
                memory_pages=8,
                page_capacity=40,
            ),
        )
        iot_rows, _ = measure(
            db, IOTScan(iot_a2, predicate=lambda r: r[0] <= self.LIMIT)
        )
        for rows in (tetris_rows, fts_rows, iot_rows):
            assert [r[1] for r in rows] == [r[1] for r in expected]
            assert sorted(rows) == sorted(expected)

    def test_tetris_is_fastest_and_pipelined(self, world):
        db, data, heap, iot_a1, iot_a2, ub = world

        tetris_op = TetrisOperator(ub, {"a1": (0, self.LIMIT)}, "a2")
        _, tetris_timer = measure(db, tetris_op)
        _, fts_timer = measure(
            db,
            ExternalMergeSort(
                FullTableScan(heap, predicate=lambda r: r[0] <= self.LIMIT),
                key=lambda r: r[1],
                disk=db.disk,
                memory_pages=8,
                page_capacity=40,
            ),
        )
        _, iot_timer = measure(
            db, IOTScan(iot_a2, predicate=lambda r: r[0] <= self.LIMIT)
        )

        # response time: Tetris wins (paper Fig. 4-2 at s1 = 50 %)
        assert tetris_timer.elapsed < fts_timer.elapsed
        assert tetris_timer.elapsed < iot_timer.elapsed
        # pipelining: first tuple orders of magnitude earlier than FTS-sort
        assert tetris_timer.time_to_first < fts_timer.time_to_first / 10

    def test_tetris_cache_sublinear(self, world):
        db, data, heap, iot_a1, iot_a2, ub = world
        op = TetrisOperator(ub, {"a1": (0, self.LIMIT)}, "a2")
        rows, _ = measure(db, op)
        # cache is far below the result size (the sqrt law of Section 4.4)
        assert op.stats.max_cache_tuples < len(rows) / 4

    def test_no_temporary_storage_for_tetris(self, world):
        db, data, heap, iot_a1, iot_a2, ub = world
        db.reset_measurement()
        before = db.disk.snapshot()
        list(TetrisOperator(ub, {"a1": (0, self.LIMIT)}, "a2"))
        delta = db.disk.snapshot() - before
        assert delta.pages_written == 0


class TestCostModelValidation:
    """Section 4.2: 'this rather complicated cost function describes the
    actual behavior of the UB-Tree very accurately'."""

    def test_region_count_within_model_factor(self, world):
        db, data, heap, iot_a1, iot_a2, ub = world
        for selectivity in (0.25, 0.5, 1.0):
            limit = int(selectivity * 1024) - 1
            op = TetrisOperator(ub, {"a1": (0, limit)}, "a2")
            db.reset_measurement()
            list(op)
            predicted = tetris_regions(ub.page_count, [(0.0, selectivity), (0.0, 1.0)])
            measured = op.stats.regions_read
            assert 0.4 <= measured / predicted <= 2.5, (selectivity, measured, predicted)

    def test_measured_time_tracks_model(self, world):
        db, data, heap, iot_a1, iot_a2, ub = world
        op = TetrisOperator(ub, {"a1": (0, 511)}, "a2")
        db.reset_measurement()
        before = db.disk.snapshot()
        list(op)
        measured = (db.disk.snapshot() - before).time
        predicted = c_tetris(ub.page_count, [(0.0, 0.5), (0.0, 1.0)], SECTION_4_PARAMS)
        assert 0.4 <= measured / predicted <= 2.5


class TestPlannerAgainstSimulation:
    def test_planner_pick_is_near_optimal_when_executed(self, world):
        """Executing the optimizer's pick comes out at (or within a small
        factor of) the best measured alternative.  At this toy scale the
        model sits near the Tetris/FTS-sort crossover of Figure 4-2, so we
        assert near-optimality rather than one specific winner.
        """
        db, data, heap, iot_a1, iot_a2, ub = world
        stats = RelationStats(
            pages=heap.page_count,
            attributes=("a1", "a2"),
            heap_instance="heap",
            iot_instances=(("a1", "iot_a1"), ("a2", "iot_a2")),
            ub_instance="ub",
            ub_fill_factor=ub.page_count / heap.page_count,
        )
        from repro.costmodel import CostParameters

        params = CostParameters(memory_pages=8)
        plan = choose_plan(stats, {"a1": (0.0, 0.5)}, "a2", params)
        assert plan.method in ("tetris", "fts-sort")  # the two contenders

        _, tetris_timer = measure(db, TetrisOperator(ub, {"a1": (0, 511)}, "a2"))
        _, fts_timer = measure(
            db,
            ExternalMergeSort(
                FullTableScan(heap, predicate=lambda r: r[0] <= 511),
                key=lambda r: r[1],
                disk=db.disk,
                memory_pages=8,
                page_capacity=40,
            ),
        )
        measured = {"tetris": tetris_timer.elapsed, "fts-sort": fts_timer.elapsed}
        best = min(measured.values())
        assert measured[plan.method] <= 1.5 * best

    def test_planner_picks_tetris_at_paper_scale(self, world):
        """At the paper's 125k-page scale the model picks Tetris outright."""
        stats = RelationStats(
            pages=125_000,
            attributes=("a1", "a2"),
            heap_instance="heap",
            iot_instances=(("a1", "iot_a1"), ("a2", "iot_a2")),
            ub_instance="ub",
        )
        plan = choose_plan(stats, {"a1": (0.0, 0.5)}, "a2", SECTION_4_PARAMS)
        assert plan.method == "tetris"
