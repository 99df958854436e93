"""Robustness and failure-injection tests: edges, misuse, degenerate shapes."""

import pytest

from repro.core import QueryBox, UBTree, ZSpace, tetris_sorted
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.relational.operators import ExternalMergeSort, TetrisOperator
from repro.storage import BufferPool, DiskParameters, SimulatedDisk

from oracles import PredicateSpace, rows_of


class TestDegenerateShapes:
    def test_one_dimensional_space(self):
        """d = 1: the Tetris order degenerates to the plain key order and
        the sweep behaves like a clustered index scan."""
        disk = SimulatedDisk()
        tree = UBTree(BufferPool(disk, 64), ZSpace([5]), page_capacity=3)
        for value in [17, 3, 29, 3, 8, 31, 0]:
            tree.insert((value,), value)
        out = [p[0] for p, _ in tetris_sorted(tree, QueryBox((2,), (30,)), 0)]
        assert out == [3, 3, 8, 17, 29]

    def test_one_bit_dimensions(self):
        disk = SimulatedDisk()
        tree = UBTree(BufferPool(disk, 64), ZSpace([1, 1]), page_capacity=2)
        for point in [(0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]:
            tree.insert(point, None)
        tree.check_invariants()
        assert len(rows_of(tree.range_query(QueryBox((0, 0), (1, 1))))) == 5
        assert len(rows_of(tree.range_query(QueryBox((1, 1), (1, 1))))) == 2

    def test_page_capacity_two(self):
        disk = SimulatedDisk()
        tree = UBTree(BufferPool(disk, 64), ZSpace([4, 4]), page_capacity=2)
        import random

        rng = random.Random(0)
        for index in range(120):
            tree.insert((rng.randrange(16), rng.randrange(16)), index)
        tree.check_invariants()
        out = list(tetris_sorted(tree, QueryBox((0, 0), (15, 15)), 0))
        assert len(out) == 120

    def test_single_tuple_table(self):
        disk = SimulatedDisk()
        tree = UBTree(BufferPool(disk, 16), ZSpace([3, 3]), page_capacity=4)
        tree.insert((5, 2), "only")
        out = list(tetris_sorted(tree, QueryBox((0, 0), (7, 7)), 1))
        assert out == [((5, 2), "only")]

    def test_box_outside_data(self):
        disk = SimulatedDisk()
        tree = UBTree(BufferPool(disk, 16), ZSpace([4, 4]), page_capacity=4)
        for x in range(8):
            tree.insert((x, x), x)
        # a box in an empty corner: regions visited but nothing matches
        out = list(tetris_sorted(tree, QueryBox((12, 0), (15, 3)), 0))
        assert out == []

    def test_degenerate_line_box(self):
        disk = SimulatedDisk()
        tree = UBTree(BufferPool(disk, 64), ZSpace([4, 4]), page_capacity=3)
        import random

        rng = random.Random(2)
        points = [(rng.randrange(16), rng.randrange(16)) for _ in range(100)]
        for i, p in enumerate(points):
            tree.insert(p, i)
        line = QueryBox((7, 0), (7, 15))  # a single column
        out = [p for p, _ in tetris_sorted(tree, line, 1)]
        assert out == sorted((p for p in points if p[0] == 7), key=lambda p: p[1])


class TestMisuse:
    def test_freed_page_access_raises(self):
        disk = SimulatedDisk()
        page = disk.allocate(4)
        disk.free(page.page_id)
        with pytest.raises(KeyError):
            disk.read(page.page_id)

    def test_write_unallocated_page_raises(self):
        from repro.storage import Page

        disk = SimulatedDisk()
        with pytest.raises(KeyError):
            disk.write(Page(99, 4))

    def test_encoder_violation_surfaces_at_insert(self):
        schema = Schema([Attribute("a", IntEncoder(0, 15)), Attribute("b", IntEncoder(0, 15))])
        db = Database()
        table = db.create_ub_table("t", schema, dims=("a", "b"), page_capacity=4)
        with pytest.raises(ValueError):
            table.insert((99, 0))

    def test_restriction_outside_domain_raises(self):
        schema = Schema([Attribute("a", IntEncoder(0, 15)), Attribute("b", IntEncoder(0, 15))])
        db = Database()
        table = db.create_ub_table("t", schema, dims=("a", "b"), page_capacity=4)
        with pytest.raises(ValueError):
            table.build_query_box({"a": (0, 999)})

    def test_external_sort_key_errors_propagate(self):
        disk = SimulatedDisk()
        sort = ExternalMergeSort(
            [(1,), (2,)], key=lambda r: r[5], disk=disk, memory_pages=1, page_capacity=2
        )
        with pytest.raises(IndexError):
            list(sort)

    def test_tetris_predicate_space_exceptions_propagate(self):
        disk = SimulatedDisk()
        tree = UBTree(BufferPool(disk, 16), ZSpace([3, 3]), page_capacity=4)
        tree.insert((1, 1), None)

        def bomb(point):
            raise RuntimeError("predicate failure")

        from repro.core.query_space import IntersectionSpace

        space = IntersectionSpace(
            [QueryBox.full(tree.space.coord_max), PredicateSpace(2, bomb)]
        )
        with pytest.raises(RuntimeError):
            list(tetris_sorted(tree, space, 0))


class TestBufferPressure:
    def test_tiny_buffer_pool_still_correct(self):
        """With a one-frame pool every access is a miss; results and the
        page-once property must survive."""
        import random

        disk = SimulatedDisk()
        tree = UBTree(BufferPool(disk, 1), ZSpace([4, 4]), page_capacity=3)
        rng = random.Random(4)
        points = [(rng.randrange(16), rng.randrange(16)) for _ in range(150)]
        for i, p in enumerate(points):
            tree.insert(p, i)
        tree.tree.buffer.drop_all()
        box = QueryBox((2, 2), (13, 13))
        scan = tetris_sorted(tree, box, 1)
        out = list(scan)
        assert len(out) == sum(1 for p in points if box.contains_point(p))
        assert len(scan.page_access_order) == len(set(scan.page_access_order))

    def test_interleaved_scans_share_the_disk(self):
        """Two concurrent consumers on different tables interleave reads;
        both streams stay correct and the clock only moves forward."""
        schema = Schema(
            [Attribute("a", IntEncoder(0, 63)), Attribute("b", IntEncoder(0, 63))]
        )
        db = Database(DiskParameters())
        import random

        rng = random.Random(5)
        rows = [(rng.randrange(64), rng.randrange(64)) for _ in range(400)]
        t1 = db.create_ub_table("t1", schema, dims=("a", "b"), page_capacity=8)
        t1.load(rows)
        t2 = db.create_ub_table("t2", schema, dims=("a", "b"), page_capacity=8)
        t2.load(rows)
        db.reset_measurement()
        s1 = iter(TetrisOperator(t1, None, "a"))
        s2 = iter(TetrisOperator(t2, None, "b"))
        out1, out2 = [], []
        clock = db.disk.clock
        for _ in range(400):
            out1.append(next(s1))
            out2.append(next(s2))
            assert db.disk.clock >= clock
            clock = db.disk.clock
        assert [r[0] for r in out1] == sorted(r[0] for r in out1)
        assert [r[1] for r in out2] == sorted(r[1] for r in out2)


class TestOperatorEdges:
    def test_external_sort_empty_input(self):
        disk = SimulatedDisk()
        sort = ExternalMergeSort(
            [], key=lambda r: r[0], disk=disk, memory_pages=1, page_capacity=4
        )
        assert list(sort) == []
        assert disk.stats.pages_written == 0

    def test_external_sort_single_row(self):
        disk = SimulatedDisk()
        sort = ExternalMergeSort(
            [(7,)], key=lambda r: r[0], disk=disk, memory_pages=1, page_capacity=4
        )
        assert list(sort) == [(7,)]

    def test_sort_reiterable(self):
        """A fresh iteration of the same operator re-runs the sort."""
        disk = SimulatedDisk()
        rows = [(3,), (1,), (2,)]
        sort = ExternalMergeSort(
            list(rows), key=lambda r: r[0], disk=disk, memory_pages=4, page_capacity=4
        )
        assert list(sort) == [(1,), (2,), (3,)]
        assert list(sort) == [(1,), (2,), (3,)]
