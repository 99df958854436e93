"""Tests for Database and the table organizations."""

import random

import pytest

from repro.core.query_space import QueryBox
from repro.relational import (
    Attribute,
    Database,
    IntEncoder,
    Schema,
)

from oracles import rows_of


def make_schema():
    return Schema(
        [
            Attribute("a", IntEncoder(0, 63)),
            Attribute("b", IntEncoder(0, 63)),
            Attribute("c", IntEncoder(0, 1000)),
        ]
    )


def make_rows(count=200, seed=0):
    rng = random.Random(seed)
    return [(rng.randrange(64), rng.randrange(64), i) for i in range(count)]


class TestDatabase:
    def test_register_rejects_duplicates(self):
        db = Database()
        schema = make_schema()
        db.create_heap_table("t", schema, 10)
        with pytest.raises(ValueError):
            db.create_heap_table("t", schema, 10)

    def test_tables_registry(self):
        db = Database()
        table = db.create_heap_table("t", make_schema(), 10)
        assert db.tables["t"] is table

    def test_reset_measurement_drops_buffer(self):
        db = Database()
        table = db.create_heap_table("t", make_schema(), 10)
        table.load(make_rows(20))
        db.buffer.get(table.heap.page_ids[0])
        assert len(db.buffer) > 0
        db.reset_measurement()
        assert len(db.buffer) == 0

    def test_clock_exposed(self):
        db = Database()
        assert db.clock == 0.0
        db.disk.advance_clock(2.0)
        assert db.clock == pytest.approx(2.0)


class TestHeapTable:
    def test_scan_returns_all_rows(self):
        db = Database()
        table = db.create_heap_table("t", make_schema(), 10)
        rows = make_rows(100)
        table.load(rows)
        assert len(table) == 100
        # one list per page, in physical order
        assert list(table.scan()) == [rows[at : at + 10] for at in range(0, 100, 10)]
        assert table.page_count == 10

    def test_no_query_box(self):
        db = Database()
        table = db.create_heap_table("t", make_schema(), 10)
        with pytest.raises(NotImplementedError):
            table.build_query_box({"a": (0, 1)})


class TestIOTTable:
    def test_scan_sorted_by_key(self):
        db = Database()
        table = db.create_iot("t", make_schema(), key=("b", "a"), page_capacity=10)
        rows = make_rows(150)
        table.load(rows)
        out = list(table.scan_leading())
        assert out == sorted(rows, key=lambda r: (r[1], r[0]))

    def test_scan_leading_range(self):
        db = Database()
        table = db.create_iot("t", make_schema(), key=("a", "c"), page_capacity=10)
        rows = make_rows(150)
        table.load(rows)
        out = list(table.scan_leading(10, 20))
        expected = sorted(
            (r for r in rows if 10 <= r[0] <= 20), key=lambda r: (r[0], r[2])
        )
        assert out == expected

    def test_scan_leading_open_ends(self):
        db = Database()
        table = db.create_iot("t", make_schema(), key=("a",), page_capacity=10)
        rows = make_rows(60)
        table.load(rows)
        assert len(list(table.scan_leading(None, 31))) == sum(
            1 for r in rows if r[0] <= 31
        )
        assert len(list(table.scan_leading(32, None))) == sum(
            1 for r in rows if r[0] >= 32
        )


class TestUBTable:
    def test_tetris_scan_dict_restrictions(self):
        db = Database()
        table = db.create_ub_table("t", make_schema(), dims=("a", "b"), page_capacity=10)
        rows = make_rows(200)
        table.load(rows)
        scan = table.tetris_scan({"b": (8, 40)}, "a")
        out = [row for _, row in scan]
        assert [r[0] for r in out] == sorted(r[0] for r in out)
        assert len(out) == sum(1 for r in rows if 8 <= r[1] <= 40)

    def test_build_query_box_encodes_values(self):
        db = Database()
        table = db.create_ub_table("t", make_schema(), dims=("a", "b"), page_capacity=10)
        box = table.build_query_box({"a": (3, 9)})
        assert isinstance(box, QueryBox)
        assert (box.lo, box.hi) == ((3, 0), (9, 63))

    def test_build_query_box_rejects_non_dims(self):
        db = Database()
        table = db.create_ub_table("t", make_schema(), dims=("a", "b"), page_capacity=10)
        with pytest.raises(KeyError):
            table.build_query_box({"c": (0, 5)})

    def test_range_query_rows(self):
        db = Database()
        table = db.create_ub_table("t", make_schema(), dims=("a", "b"), page_capacity=10)
        rows = make_rows(200)
        table.load(rows)
        out = sorted(rows_of(table.range_query({"a": (0, 15), "b": (16, 63)})))
        expected = sorted(r for r in rows if r[0] <= 15 and r[1] >= 16)
        assert out == expected

    def test_comparison_space(self):
        db = Database()
        table = db.create_ub_table("t", make_schema(), dims=("a", "b"), page_capacity=10)
        rows = make_rows(150)
        table.load(rows)
        from repro.core.query_space import IntersectionSpace

        space = IntersectionSpace(
            [table.build_query_box(None), table.comparison_space("a", "<", "b")]
        )
        out = sorted(rows_of(table.range_query(space)))
        assert out == sorted(r for r in rows if r[0] < r[1])
