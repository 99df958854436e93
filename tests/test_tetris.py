"""Tests for the Tetris algorithm: order, single-access, the event-point
order oracle, stats."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QueryBox, TetrisScan, UBTree, ZSpace, tetris_sorted
from repro.core.query_space import ComparisonSpace, IntersectionSpace
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.relational.operators import Limit, TetrisOperator
from repro.storage import BufferPool, DiskParameters, SimulatedDisk

from oracles import PredicateSpace, event_point_order, read_seeks


@pytest.fixture(params=["eager"])
def sorted_scan(request):
    """:func:`tetris_sorted` for the scan's one schedule, the eager one;
    after the test, every scan it built has read a prefix of the pages
    of the paper's event-point loop, in that loop's order."""
    built = []

    def build(ubtree, space, dim):
        scan = tetris_sorted(ubtree, space, dim)
        built.append((scan, ubtree, space, dim))
        return scan

    yield build
    for scan, ubtree, space, dim in built:
        order = scan.page_access_order
        assert order == event_point_order(ubtree, space, dim)[: len(order)]


def make_ubtree(bits=(4, 4), page_capacity=4, buffer_pages=512):
    disk = SimulatedDisk()
    pool = BufferPool(disk, buffer_pages)
    return UBTree(pool, ZSpace(bits), page_capacity=page_capacity), disk


def fill(ubtree, count, seed=0, bits=(4, 4)):
    rng = random.Random(seed)
    points = []
    for index in range(count):
        point = tuple(rng.randrange(1 << b) for b in bits)
        points.append(point)
        ubtree.insert(point, index)
    return points


def expected_sorted(points, box, dim):
    inside = [(p, i) for i, p in enumerate(points) if box.contains_point(p)]
    inside.sort(key=lambda entry: entry[0][dim])
    return inside


class TestSortedOutput:
    def test_full_universe_sorted(self, sorted_scan):
        ubtree, _ = make_ubtree(page_capacity=3)
        points = fill(ubtree, 120, seed=1)
        box = QueryBox.full(ubtree.space.coord_max)
        for dim in (0, 1):
            out = list(sorted_scan(ubtree, box, dim))
            values = [p[dim] for p, _ in out]
            assert values == sorted(values)
            assert len(out) == len(points)

    def test_restricted_sorted(self, sorted_scan):
        ubtree, _ = make_ubtree(page_capacity=3)
        points = fill(ubtree, 150, seed=2)
        box = QueryBox((3, 2), (12, 13))
        out = list(sorted_scan(ubtree, box, 1))
        assert [p[1] for p, _ in out] == sorted(p[1] for p, _ in out)
        assert sorted(map(repr, out)) == sorted(
            map(repr, expected_sorted(points, box, 1))
        )

    def test_empty_result(self, sorted_scan):
        ubtree, _ = make_ubtree()
        fill(ubtree, 20, seed=4)
        empty = QueryBox((9, 9), (3, 3))
        scan = sorted_scan(ubtree, empty, 0)
        assert list(scan) == []
        assert scan.stats.regions_read == 0

    def test_empty_table(self, sorted_scan):
        ubtree, _ = make_ubtree()
        box = QueryBox.full(ubtree.space.coord_max)
        out = list(sorted_scan(ubtree, box, 1))
        assert out == []

    def test_three_dimensions(self, sorted_scan):
        ubtree, _ = make_ubtree(bits=(3, 3, 3), page_capacity=4)
        points = fill(ubtree, 150, seed=5, bits=(3, 3, 3))
        box = QueryBox((0, 2, 1), (7, 6, 5))
        for dim in range(3):
            out = list(sorted_scan(ubtree, box, dim))
            values = [p[dim] for p, _ in out]
            assert values == sorted(values)
            assert len(out) == len(expected_sorted(points, box, dim))

    def test_unequal_bit_lengths(self, sorted_scan):
        ubtree, _ = make_ubtree(bits=(2, 6), page_capacity=3)
        points = fill(ubtree, 120, seed=6, bits=(2, 6))
        box = QueryBox((0, 10), (3, 50))
        out = list(sorted_scan(ubtree, box, 1))
        assert [p[1] for p, _ in out] == sorted(p[1] for p, _ in out)
        assert len(out) == len(expected_sorted(points, box, 1))

    def test_stable_payloads_preserved(self, sorted_scan):
        ubtree, _ = make_ubtree(page_capacity=3)
        ubtree.insert((2, 2), "a")
        ubtree.insert((2, 2), "b")
        box = QueryBox.full(ubtree.space.coord_max)
        out = list(sorted_scan(ubtree, box, 0))
        assert sorted(payload for _, payload in out) == ["a", "b"]


class TestIOBehaviour:
    def test_each_page_read_exactly_once(self, sorted_scan):
        ubtree, disk = make_ubtree(page_capacity=3, buffer_pages=4)
        fill(ubtree, 200, seed=7)
        ubtree.tree.buffer.drop_all()
        box = QueryBox((2, 2), (13, 13))
        scan = sorted_scan(ubtree, box, 1)
        before = disk.snapshot()
        list(scan)
        delta = disk.snapshot() - before
        # no page id repeats, and priced reads equal distinct pages
        assert len(scan.page_access_order) == len(set(scan.page_access_order))
        assert delta.pages_read == len(scan.page_access_order)
        assert read_seeks(delta) == delta.pages_read  # all random accesses
        assert delta.pages_written == 0  # no external sort

    def test_reads_only_overlapping_regions(self, sorted_scan):
        ubtree, _ = make_ubtree(page_capacity=2)
        fill(ubtree, 150, seed=8)
        box = QueryBox((0, 0), (3, 3))  # small corner
        scan = sorted_scan(ubtree, box, 0)
        list(scan)
        overlapping = sum(1 for _ in ubtree.regions_overlapping(box))
        assert scan.stats.regions_read == overlapping
        assert scan.stats.regions_read < ubtree.region_count

    def test_cache_smaller_than_result(self, sorted_scan):
        ubtree, _ = make_ubtree(bits=(6, 6), page_capacity=4)
        points = fill(ubtree, 600, seed=9, bits=(6, 6))
        box = QueryBox.full(ubtree.space.coord_max)
        scan = sorted_scan(ubtree, box, 1)
        out = list(scan)
        # the Tetris cache holds one slice, far less than the result
        assert scan.stats.max_cache_tuples < len(out)

    def test_first_output_before_last_read(self, sorted_scan):
        ubtree, disk = make_ubtree(bits=(5, 5), page_capacity=3)
        fill(ubtree, 400, seed=10, bits=(5, 5))
        ubtree.tree.buffer.drop_all()
        box = QueryBox.full(ubtree.space.coord_max)
        scan = sorted_scan(ubtree, box, 0)
        iterator = iter(scan)
        next(iterator)
        first_clock = disk.clock
        for _ in iterator:
            pass
        assert first_clock < disk.clock  # pipelined: output before the end
        assert scan.stats.time_to_first is not None
        assert scan.stats.time_to_first < scan.stats.elapsed

    def test_slices_counted(self, sorted_scan):
        ubtree, _ = make_ubtree(page_capacity=3)
        fill(ubtree, 120, seed=11)
        box = QueryBox.full(ubtree.space.coord_max)
        scan = sorted_scan(ubtree, box, 1)
        list(scan)
        assert scan.stats.slices >= 2
        assert scan.stats.cache_pages(3) >= 1


class TestRowConsumerStopsMidSlice:
    """A slice is handed over whole, and counted so.

    A row consumer may stop anywhere inside a slice: ``tuples_output``
    is then the rows of every slice it was handed, the one it stopped
    in included, ``slices`` the slices it finished, and both clocks are
    the disk clock of the last page the sweep had to read to get that
    far.
    """

    def _table(self):
        schema = Schema(
            [Attribute("a", IntEncoder(0, 63)), Attribute("b", IntEncoder(0, 63))]
        )
        db = Database(DiskParameters())
        rng = random.Random(5)
        table = db.create_ub_table("t", schema, dims=("a", "b"), page_capacity=8)
        table.load([(rng.randrange(64), rng.randrange(64)) for _ in range(400)])
        return db, table

    def _wide_slice(self, db, table):
        """``(first, length, finished)`` of a slice of >= 4 rows that is
        not the first one: its first row's stream index, its row count
        and how many slices were complete when it was cut."""
        db.reset_measurement()
        operator = TetrisOperator(table, None, "a")
        # ``slices`` ticks when the generator is resumed past a slice's
        # last row, so a row pulled at count ``s`` belongs to slice ``s``
        finished = [operator.stats.slices for _ in operator]
        assert operator.stats.tuples_output == len(finished) == 400
        for slice_id in range(1, max(finished) + 1):
            if finished.count(slice_id) >= 4:
                return finished.index(slice_id), finished.count(slice_id), slice_id
        raise AssertionError("no multi-row slice to stop in")

    @pytest.mark.parametrize("offset", [0, 1, 2, "last"])
    def test_bare_next(self, offset):
        db, table = self._table()
        first, length, finished = self._wide_slice(db, table)
        # pulls ending on the previous slice's last row, this slice's
        # first row, a middle one, and its last one
        pulls = first + (length if offset == "last" else offset)
        db.reset_measurement()
        operator = TetrisOperator(table, None, "a")
        stats = operator.stats
        rows = iter(operator)
        start = db.disk.clock
        next(rows)
        first_clock = db.disk.clock
        assert first_clock > start
        for _ in range(pulls - 1):
            next(rows)
        # stopping inside the wide slice counts all of it
        assert stats.tuples_output == (first if offset == 0 else first + length)
        assert stats.slices == (finished - 1 if offset == 0 else finished)
        assert stats.start_clock == start
        assert stats.first_output_clock == first_clock
        # no page is read between two rows of one slice
        assert stats.end_clock == db.disk.clock > first_clock
        assert stats.max_cache_tuples >= length

    def test_limit_over_operator(self):
        db, table = self._table()
        first, length, finished = self._wide_slice(db, table)
        expected = list(TetrisOperator(table, None, "a"))[: first + 1]
        db.reset_measurement()
        operator = TetrisOperator(table, None, "a")
        start = db.disk.clock
        assert list(Limit(operator, first + 1)) == expected
        # Limit stops at its last row without looking ahead: that row
        # is the wide slice's first, and the slice was handed over whole
        assert operator.stats.tuples_output == first + length
        assert operator.stats.slices == finished
        assert operator.stats.start_clock == start
        assert start < operator.stats.first_output_clock < operator.stats.end_clock
        assert operator.stats.end_clock == db.disk.clock


class TestStrategyEquivalence:
    """The scan reads the pages of the paper's event-point loop, in its
    order (the class keeps the name of the two-strategy comparison the
    oracle replaced)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_same_pages_same_stream(self, seed):
        ubtree, _ = make_ubtree(page_capacity=3)
        points = fill(ubtree, 150, seed=seed)
        rng = random.Random(seed + 100)
        lo = (rng.randrange(8), rng.randrange(8))
        hi = tuple(rng.randrange(l, 16) for l in lo)
        box = QueryBox(lo, hi)
        for dim in (0, 1):
            scan = tetris_sorted(ubtree, box, dim)
            out = list(scan)
            assert scan.page_access_order == event_point_order(ubtree, box, dim)
            assert scan.stats.regions_read == len(scan.page_access_order)
            assert [p[dim] for p, _ in out] == sorted(p[dim] for p, _ in out)
            assert sorted(out) == sorted(expected_sorted(points, box, dim))

    def test_equivalence_on_triangular_space(self):
        ubtree, _ = make_ubtree(page_capacity=3)
        fill(ubtree, 150, seed=42)
        space = IntersectionSpace(
            [QueryBox.full(ubtree.space.coord_max), ComparisonSpace(2, 0, "<", 1)]
        )
        scan = tetris_sorted(ubtree, space, 1)
        list(scan)
        assert scan.page_access_order == event_point_order(ubtree, space, 1)
        assert scan.stats.regions_skipped > 0

    def test_event_point_order_at_scale(self):
        """15,000 rows on a 256x256 grid: the eager schedule reads all
        773 pages the event-point loop reads, in its order."""
        ubtree, _ = make_ubtree(bits=(8, 8), page_capacity=16, buffer_pages=256)
        fill(ubtree, 15_000, seed=3, bits=(8, 8))
        box = QueryBox((0, 32), (191, 223))
        scan = tetris_sorted(ubtree, box, 1)
        rows = sum(1 for _ in scan)
        assert len(scan.page_access_order) == 773
        assert scan.page_access_order == event_point_order(ubtree, box, 1)
        assert rows == 8492


class TestNonRectangularSpaces:
    def test_triangular_output(self, sorted_scan):
        ubtree, _ = make_ubtree(page_capacity=3)
        points = fill(ubtree, 200, seed=12)
        space = IntersectionSpace(
            [QueryBox.full(ubtree.space.coord_max), ComparisonSpace(2, 0, "<", 1)]
        )
        out = list(sorted_scan(ubtree, space, 1))
        assert [p[1] for p, _ in out] == sorted(p[1] for p, _ in out)
        expected = sorted((p, i) for i, p in enumerate(points) if p[0] < p[1])
        assert sorted(out) == expected

    def test_triangular_skips_regions(self, sorted_scan):
        ubtree, _ = make_ubtree(page_capacity=3)
        fill(ubtree, 300, seed=13)
        space = IntersectionSpace(
            [QueryBox.full(ubtree.space.coord_max), ComparisonSpace(2, 0, ">", 1)]
        )
        scan = sorted_scan(ubtree, space, 0)
        list(scan)
        assert scan.stats.regions_skipped > 0
        assert scan.stats.regions_read < ubtree.region_count

    def test_predicate_space_no_pruning_but_correct(self, sorted_scan):
        ubtree, _ = make_ubtree(page_capacity=3)
        points = fill(ubtree, 100, seed=14)
        space = IntersectionSpace(
            [
                QueryBox.full(ubtree.space.coord_max),
                PredicateSpace(2, lambda p: (p[0] + p[1]) % 3 == 0),
            ]
        )
        out = list(sorted_scan(ubtree, space, 0))
        expected = sorted(
            ((p, i) for i, p in enumerate(points) if (p[0] + p[1]) % 3 == 0),
            key=lambda e: e[0][0],
        )
        assert len(out) == len(expected)
        assert [p[0] for p, _ in out] == [p[0] for p, _ in expected]


class TestValidation:
    def test_rejects_bad_sort_dim(self):
        ubtree, _ = make_ubtree()
        box = QueryBox.full(ubtree.space.coord_max)
        with pytest.raises(ValueError):
            TetrisScan(ubtree, box, 5)


@st.composite
def tetris_cases(draw):
    dims = draw(st.integers(2, 3))
    bits = tuple(draw(st.integers(2, 4)) for _ in range(dims))
    count = draw(st.integers(0, 80))
    seed = draw(st.integers(0, 10_000))
    lo = tuple(draw(st.integers(0, (1 << b) - 1)) for b in bits)
    hi = tuple(draw(st.integers(low, (1 << b) - 1)) for low, b in zip(lo, bits))
    dim = draw(st.integers(0, dims - 1))
    return bits, count, seed, lo, hi, dim


@given(tetris_cases())
@settings(max_examples=60, deadline=None)
def test_tetris_property(case):
    """The scan reads the event-point loop's pages in its order and
    produces a correctly sorted, complete stream."""
    bits, count, seed, lo, hi, dim = case
    ubtree, _ = make_ubtree(bits=bits, page_capacity=3)
    points = fill(ubtree, count, seed=seed, bits=bits)
    box = QueryBox(lo, hi)
    scan = tetris_sorted(ubtree, box, dim)
    out = list(scan)
    assert scan.page_access_order == event_point_order(ubtree, box, dim)
    values = [p[dim] for p, _ in out]
    assert values == sorted(values)
    expected = expected_sorted(points, box, dim)
    assert len(out) == len(expected)
    assert sorted(map(repr, out)) == sorted(map(repr, expected))
