"""Tests for bottom-up bulk loading of B+-trees, IOTs and UB-Trees."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree
from repro.core import QueryBox, UBTree, ZSpace, tetris_sorted
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.storage import BufferPool, SimulatedDisk

from oracles import point_query, rows_of, search


def make_tree(leaf_capacity=4, fanout=4):
    disk = SimulatedDisk()
    return BPlusTree(BufferPool(disk, 128), leaf_capacity, fanout=fanout), disk


class TestBPlusTreeBulkLoad:
    def test_roundtrip(self):
        tree, _ = make_tree()
        pairs = [(k, k * 2) for k in range(100)]
        tree.bulk_load(pairs)
        tree.check_invariants()
        assert rows_of(tree.range_scan()) == pairs
        assert tree.record_count == 100

    def test_empty_input(self):
        tree, _ = make_tree()
        tree.bulk_load([])
        assert tree.record_count == 0
        assert rows_of(tree.range_scan()) == []

    def test_single_record(self):
        tree, _ = make_tree()
        tree.bulk_load([(5, "x")])
        assert search(tree, 5) == ["x"]
        tree.check_invariants()

    def test_fill_factor_controls_leaf_count(self):
        full, _ = make_tree(leaf_capacity=10)
        full.bulk_load([(k, k) for k in range(200)])
        loose, _ = make_tree(leaf_capacity=10)
        loose.bulk_load([(k, k) for k in range(200)], fill=0.5)
        assert loose.leaf_count > full.leaf_count
        loose.check_invariants()

    def test_equal_keys_kept_together(self):
        tree, _ = make_tree(leaf_capacity=4)
        pairs = [(k // 6, k) for k in range(60)]  # runs of 6 equal keys
        tree.bulk_load(pairs)
        tree.check_invariants()
        assert tree.overflow_pages > 0
        for key in range(10):
            assert len(search(tree, key)) == 6

    def test_rejects_unsorted(self):
        tree, _ = make_tree()
        with pytest.raises(ValueError):
            tree.bulk_load([(2, "a"), (1, "b")])

    def test_rejects_non_empty_tree(self):
        tree, _ = make_tree()
        tree.insert(1, "a")
        with pytest.raises(RuntimeError):
            tree.bulk_load([(2, "b")])

    def test_rejects_bad_fill(self):
        tree, _ = make_tree()
        with pytest.raises(ValueError):
            tree.bulk_load([(1, "a")], fill=0.0)

    def test_inserts_after_bulk_load(self):
        tree, _ = make_tree(leaf_capacity=4)
        tree.bulk_load([(k, k) for k in range(0, 100, 2)])
        for k in range(1, 100, 2):
            tree.insert(k, k)
        tree.check_invariants()
        assert [k for k, _ in rows_of(tree.range_scan())] == list(range(100))

    def test_deep_tree(self):
        tree, _ = make_tree(leaf_capacity=2, fanout=3)
        tree.bulk_load([(k, k) for k in range(500)])
        tree.check_invariants()
        assert tree.height >= 4
        assert [k for k, _ in rows_of(tree.range_scan(100, 110))] == list(range(100, 111))


@given(st.lists(st.integers(0, 300), max_size=300), st.floats(0.3, 1.0))
@settings(max_examples=60, deadline=None)
def test_bulk_load_matches_model(keys, fill):
    tree, _ = make_tree(leaf_capacity=5, fanout=4)
    pairs = sorted((k, k) for k in keys)
    tree.bulk_load(pairs, fill=fill)
    tree.check_invariants()
    assert rows_of(tree.range_scan()) == pairs


class TestUBTreeBulkLoad:
    def test_same_queries_as_insert_loading(self):
        rng = random.Random(3)
        points = [(rng.randrange(32), rng.randrange(32)) for _ in range(500)]
        bulk = UBTree(BufferPool(SimulatedDisk(), 128), ZSpace([5, 5]), 4)
        bulk.bulk_load((p, i) for i, p in enumerate(points))
        bulk.check_invariants()
        grown = UBTree(BufferPool(SimulatedDisk(), 128), ZSpace([5, 5]), 4)
        for i, p in enumerate(points):
            grown.insert(p, i)
        box = QueryBox((3, 5), (27, 30))
        assert sorted(rows_of(bulk.range_query(box))) == sorted(rows_of(grown.range_query(box)))

    def test_fewer_regions_than_insert_loading(self):
        rng = random.Random(4)
        points = [(rng.randrange(64), rng.randrange(64)) for _ in range(1500)]
        bulk = UBTree(BufferPool(SimulatedDisk(), 128), ZSpace([6, 6]), 8)
        bulk.bulk_load((p, i) for i, p in enumerate(points))
        grown = UBTree(BufferPool(SimulatedDisk(), 128), ZSpace([6, 6]), 8)
        for i, p in enumerate(points):
            grown.insert(p, i)
        assert bulk.region_count < grown.region_count

    def test_tetris_on_bulk_loaded_tree(self):
        rng = random.Random(5)
        points = [(rng.randrange(32), rng.randrange(32)) for _ in range(400)]
        tree = UBTree(BufferPool(SimulatedDisk(), 128), ZSpace([5, 5]), 4)
        tree.bulk_load((p, i) for i, p in enumerate(points))
        box = QueryBox((0, 4), (31, 28))
        out = list(tetris_sorted(tree, box, 1))
        values = [p[1] for p, _ in out]
        assert values == sorted(values)
        assert len(out) == sum(1 for p in points if 4 <= p[1] <= 28)

    def test_unhashable_payloads(self):
        tree = UBTree(BufferPool(SimulatedDisk(), 16), ZSpace([3, 3]), 4)
        tree.bulk_load([((1, 1), {"a": 1}), ((1, 1), {"b": 2})])
        assert len(point_query(tree, (1, 1))) == 2


class TestTableBulkLoad:
    def make_db(self):
        schema = Schema(
            [Attribute("a", IntEncoder(0, 63)), Attribute("b", IntEncoder(0, 63))]
        )
        rng = random.Random(6)
        rows = [(rng.randrange(64), rng.randrange(64)) for _ in range(300)]
        return Database(), schema, rows

    def test_ub_table_bulk(self):
        db, schema, rows = self.make_db()
        table = db.create_ub_table("u", schema, dims=("a", "b"), page_capacity=8)
        table.bulk_load(rows)
        assert len(table) == 300
        assert sorted(rows_of(table.range_query(None))) == sorted(rows)

    def test_iot_table_bulk(self):
        db, schema, rows = self.make_db()
        table = db.create_iot("i", schema, key=("a", "b"), page_capacity=8)
        table.bulk_load(rows)
        assert rows_of(table.scan_leading()) == sorted(rows)
        table.tree.check_invariants()
