"""Tests for the plan executor: optimizer choice -> running operators."""

import random

import pytest

from repro.costmodel import CostParameters
from repro.planner import PhysicalDesign, plan_sorted_query
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.relational.rowsize import page_capacity_for, row_bytes


def build_design(rows=3000, seed=0):
    schema = Schema(
        [
            Attribute("a1", IntEncoder(0, 1023)),
            Attribute("a2", IntEncoder(0, 1023)),
            Attribute("v", IntEncoder(0, 10**9)),
        ]
    )
    rng = random.Random(seed)
    data = [
        (rng.randrange(1024), rng.randrange(1024), i) for i in range(rows)
    ]
    db = Database(buffer_pages=64)
    heap = db.create_heap_table("heap", schema, 40)
    heap.load(data)
    iot_a1 = db.create_iot("iot_a1", schema, key=("a1", "a2"), page_capacity=40)
    iot_a1.load(data)
    iot_a2 = db.create_iot("iot_a2", schema, key=("a2", "a1"), page_capacity=40)
    iot_a2.load(data)
    ub = db.create_ub_table("ub", schema, dims=("a1", "a2"), page_capacity=40)
    ub.load(data)
    design = PhysicalDesign(
        attributes=("a1", "a2"),
        heap=heap,
        iots={"a1": iot_a1, "a2": iot_a2},
        ub=ub,
    )
    return db, design, data


@pytest.fixture(scope="module")
def world():
    return build_design()


PARAMS = CostParameters(memory_pages=8)


class TestPhysicalDesign:
    def test_relation_stats_derivation(self, world):
        db, design, data = world
        stats = design.relation_stats()
        assert stats.pages == design.heap.page_count
        assert stats.ub_instance == "ub"
        assert dict(stats.iot_instances) == {"a1": "iot_a1", "a2": "iot_a2"}
        assert stats.ub_fill_factor == pytest.approx(
            design.ub.page_count / design.heap.page_count
        )

    def test_normalized_restrictions(self, world):
        db, design, data = world
        normalized = design.normalized_restrictions({"a1": (0, 511)})
        lo, hi = normalized["a1"]
        assert lo == pytest.approx(0.0)
        assert hi == pytest.approx(0.5)
        open_ended = design.normalized_restrictions({"a2": (256, None)})
        assert open_ended["a2"][0] == pytest.approx(0.25)
        assert open_ended["a2"][1] == pytest.approx(1.0)

    def test_rejects_empty_design(self):
        with pytest.raises(ValueError):
            PhysicalDesign(attributes=("a",))

    def test_rejects_mislabeled_iot(self, world):
        db, design, data = world
        with pytest.raises(ValueError):
            PhysicalDesign(
                attributes=("a1", "a2"),
                iots={"a2": design.iots["a1"]},
            )


class TestExecution:
    def check(self, world, restrictions, sort_attr, expected_method=None, **kwargs):
        db, design, data = world
        db.reset_measurement()
        plan = plan_sorted_query(design, restrictions, sort_attr, PARAMS, **kwargs)
        if expected_method is not None:
            assert plan.choice.method == expected_method
        rows = list(plan.operator)
        position = design.schema.position(sort_attr)
        values = [row[position] for row in rows]
        assert values == sorted(values)

        def passes(row):
            for attr, (lo, hi) in (restrictions or {}).items():
                value = row[design.schema.position(attr)]
                if lo is not None and value < lo:
                    return False
                if hi is not None and value > hi:
                    return False
            return True

        assert len(rows) == sum(1 for row in data if passes(row))
        return plan

    def test_moderate_restriction_runs_tetris(self, world):
        plan = self.check(world, {"a1": (0, 511)}, "a2")
        assert plan.choice.method in ("tetris", "fts-sort")

    def test_tight_restriction_runs_iot(self, world):
        self.check(world, {"a1": (0, 3)}, "a2", expected_method="iot-sort")

    def test_presorted_iot_path(self, world):
        self.check(world, {"a2": (0, 3)}, "a2", expected_method="iot-presorted")

    def test_unrestricted_sort(self, world):
        self.check(world, None, "a1")

    def test_pipelined_requirement(self, world):
        plan = self.check(
            world, {"a1": (0, 3)}, "a2", require_pipelined=True
        )
        assert not plan.choice.blocking

    def test_results_identical_across_methods(self, world):
        db, design, data = world
        results = {}
        for method_design in (
            PhysicalDesign(attributes=("a1", "a2"), heap=design.heap),
            PhysicalDesign(attributes=("a1", "a2"), ub=design.ub),
            PhysicalDesign(attributes=("a1", "a2"), iots=dict(design.iots)),
        ):
            plan = plan_sorted_query(
                method_design, {"a1": (100, 600)}, "a2", PARAMS
            )
            rows = list(plan.operator)
            results[plan.choice.method] = [
                (row[1], row[0], row[2]) for row in rows
            ]
        baseline = next(iter(results.values()))
        for method, rows in results.items():
            assert sorted(rows) == sorted(baseline), method


class TestRowSize:
    def make_schema(self):
        return Schema(
            [
                Attribute("k", IntEncoder(0, 2**20 - 1)),  # 20 bits -> 3 bytes
                Attribute("v", IntEncoder(0, 255)),  # 8 bits -> 1 byte
            ]
        )

    def test_row_bytes(self):
        schema = self.make_schema()
        assert row_bytes(schema) == 3 + 1 + 8  # data + default overhead
        assert row_bytes(schema, extra_payload_bytes=50) == 62

    def test_page_capacity(self):
        schema = self.make_schema()
        capacity = page_capacity_for(schema)
        assert capacity == (8192 - 96) // 12

    def test_capacity_floor(self):
        schema = self.make_schema()
        assert page_capacity_for(schema, extra_payload_bytes=10**6) == 2

    def test_string_encoder_width(self):
        from repro.relational.rowsize import encoder_bytes
        from repro.relational.schema import StringEncoder

        assert encoder_bytes(StringEncoder(prefix_chars=7)) == 7
