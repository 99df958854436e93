"""Tests for the relational operators: sort, joins, grouping, plumbing."""

import random
from functools import reduce
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.relational.operators import (
    Count,
    ExternalMergeSort,
    FirstTupleTimer,
    HashJoin,
    InMemorySort,
    Limit,
    MergeJoin,
    MergeSemiJoin,
    Operator,
    ScalarAggregate,
    SortedGroupBy,
    Sum,
)
from repro.storage import DiskParameters, SimulatedDisk

from oracles import allocated_pages


class Batched(Operator):
    """An operator whose unit is the given lists of rows."""

    def __init__(self, lists):
        self.lists = lists

    def batches(self):
        return iter(self.lists)


def cut_at(rows, cuts):
    """``rows`` cut into lists at the positions ``cuts`` (empty lists
    between repeated cuts are dropped, as an operator never yields one)."""
    bounds = [0, *sorted({cut for cut in cuts if 0 < cut < len(rows)}), len(rows)]
    return [rows[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------
class TestPlumbing:
    def test_limit(self):
        out = list(Limit(iter([(i,) for i in range(10)]), 3))
        assert out == [(0,), (1,), (2,)]

    def test_limit_larger_than_input(self):
        assert list(Limit([(1,)], 5)) == [(1,)]

    def test_in_memory_sort(self):
        rows = [(3,), (1,), (2,)]
        assert list(InMemorySort(rows, key=lambda r: r[0])) == [(1,), (2,), (3,)]
        # a descending order is a negated key, as in Q3's tail
        assert list(InMemorySort(rows, key=lambda r: -r[0])) == [(3,), (2,), (1,)]

    def test_first_tuple_timer(self):
        disk = SimulatedDisk()

        def stream():
            disk.advance_clock(1.0)
            yield (1,)
            disk.advance_clock(2.0)
            yield (2,)

        timer = FirstTupleTimer(stream(), disk)
        assert list(timer) == [(1,), (2,)]
        assert timer.time_to_first == pytest.approx(1.0)
        assert timer.elapsed == pytest.approx(3.0)
        assert timer.row_count == 2

    def test_first_tuple_timer_empty(self):
        disk = SimulatedDisk()
        timer = FirstTupleTimer([], disk)
        assert list(timer) == []
        assert timer.time_to_first is None
        assert timer.elapsed == pytest.approx(0.0)


# ----------------------------------------------------------------------
# external merge sort
# ----------------------------------------------------------------------
def run_sort(rows, memory_pages=2, page_capacity=4, merge_degree=2):
    disk = SimulatedDisk(DiskParameters(t_pi=0.01, t_tau=0.001, prefetch=4))
    sort = ExternalMergeSort(
        rows,
        key=lambda r: r[0],
        disk=disk,
        memory_pages=memory_pages,
        page_capacity=page_capacity,
        merge_degree=merge_degree,
    )
    return list(sort), sort, disk


class TestExternalMergeSort:
    def test_fits_in_memory_no_spill(self):
        rows = [(i,) for i in range(5)]
        random.Random(0).shuffle(rows)
        out, sort, disk = run_sort(rows, memory_pages=4, page_capacity=4)
        assert out == [(i,) for i in range(5)]
        assert not sort.stats.spilled
        assert disk.stats.pages_written == 0

    def test_spills_and_sorts(self):
        rows = [(i,) for i in range(100)]
        random.Random(1).shuffle(rows)
        out, sort, disk = run_sort(rows, memory_pages=2, page_capacity=4)
        assert out == [(i,) for i in range(100)]
        assert sort.stats.spilled
        assert sort.stats.runs_created == 13  # ceil(100 / 8)
        assert disk.stats.category("temp").pages_written > 0

    def test_duplicates_preserved(self):
        rows = [(1,), (1,), (2,), (1,)]
        out, _, _ = run_sort(rows, memory_pages=1, page_capacity=2)
        assert out == [(1,), (1,), (1,), (2,)]

    def test_higher_merge_degree_fewer_passes(self):
        rows = [(i,) for i in range(200)]
        random.Random(3).shuffle(rows)
        _, binary, _ = run_sort(list(rows), memory_pages=1, page_capacity=4, merge_degree=2)
        _, wide, _ = run_sort(list(rows), memory_pages=1, page_capacity=4, merge_degree=8)
        assert wide.stats.merge_passes < binary.stats.merge_passes

    def test_temp_pages_freed_after_completion(self):
        rows = [(i,) for i in range(100)]
        random.Random(4).shuffle(rows)
        disk = SimulatedDisk()
        sort = ExternalMergeSort(
            rows, key=lambda r: r[0], disk=disk, memory_pages=1, page_capacity=4
        )
        allocated_before = allocated_pages(disk)
        list(sort)
        # all temp pages are dropped again (only extent remainders differ)
        assert sort._live_temp_pages == 0

    def test_peak_temp_tracks_both_generations(self):
        rows = [(i,) for i in range(128)]
        random.Random(5).shuffle(rows)
        out, sort, _ = run_sort(rows, memory_pages=1, page_capacity=4)
        data_pages = 128 // 4
        assert sort.stats.peak_temp_pages >= data_pages
        assert out == sorted(out)

    def test_temp_writes_priced_sequentially(self):
        rows = [(i,) for i in range(64)]
        random.Random(6).shuffle(rows)
        _, _, disk = run_sort(rows, memory_pages=2, page_capacity=4)
        temp = disk.stats.category("temp")
        # far fewer seeks than pages: prefetch-sized sequential bursts
        assert temp.write_seeks < temp.pages_written
        assert temp.read_seeks < temp.pages_read

    def test_blocking_behaviour(self):
        """No output row appears before all input was consumed (when spilling)."""
        consumed = []

        def source():
            for i in range(40):
                consumed.append(i)
                yield (40 - i,)

        disk = SimulatedDisk()
        sort = ExternalMergeSort(
            source(), key=lambda r: r[0], disk=disk, memory_pages=1, page_capacity=4
        )
        iterator = iter(sort)
        next(iterator)
        assert len(consumed) == 40

    def test_rejects_bad_parameters(self):
        disk = SimulatedDisk()
        with pytest.raises(ValueError):
            ExternalMergeSort([], key=lambda r: r, disk=disk, memory_pages=0, page_capacity=4)
        with pytest.raises(ValueError):
            ExternalMergeSort(
                [], key=lambda r: r, disk=disk, memory_pages=1, page_capacity=4, merge_degree=1
            )


@given(
    st.lists(st.integers(0, 100), max_size=300),
    st.integers(1, 3),
    st.integers(2, 4),
)
@settings(max_examples=60, deadline=None)
def test_external_sort_matches_sorted(values, memory_pages, merge_degree):
    rows = [(v,) for v in values]
    out, _, _ = run_sort(
        rows, memory_pages=memory_pages, page_capacity=4, merge_degree=merge_degree
    )
    assert out == sorted(rows, key=lambda r: r[0])


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------
class TestJoins:
    def test_merge_join_basic(self):
        left = [(1, "a"), (2, "b"), (4, "d")]
        right = [(2, "x"), (3, "y"), (4, "z")]
        out = list(
            MergeJoin(left, right, left_key=lambda r: r[0], right_key=lambda r: r[0])
        )
        assert out == [(2, "b", 2, "x"), (4, "d", 4, "z")]

    def test_merge_join_duplicates_cross_product(self):
        left = [(1, "a"), (1, "b")]
        right = [(1, "x"), (1, "y"), (1, "z")]
        out = list(
            MergeJoin(left, right, left_key=lambda r: r[0], right_key=lambda r: r[0])
        )
        assert len(out) == 6

    def test_merge_join_empty_sides(self):
        assert list(MergeJoin([], [(1,)], lambda r: r[0], lambda r: r[0])) == []
        assert list(MergeJoin([(1,)], [], lambda r: r[0], lambda r: r[0])) == []

    def test_merge_join_custom_combine(self):
        out = list(
            MergeJoin(
                [(1, "a")],
                [(1, "x")],
                left_key=lambda r: r[0],
                right_key=lambda r: r[0],
                combine=lambda l, r: (l[1], r[1]),
            )
        )
        assert out == [("a", "x")]

    def test_hash_join_matches_merge_join(self):
        rng = random.Random(7)
        left = sorted((rng.randrange(20), i) for i in range(50))
        right = sorted((rng.randrange(20), i) for i in range(50))
        merge = list(
            MergeJoin(left, right, left_key=lambda r: r[0], right_key=lambda r: r[0])
        )
        hashed = list(
            HashJoin(left, right, build_key=lambda r: r[0], probe_key=lambda r: r[0])
        )
        assert sorted(merge) == sorted(hashed)

    def test_merge_semi_join(self):
        left = [(1,), (2,), (3,), (4,)]
        right = [(2,), (2,), (4,), (9,)]
        out = list(
            MergeSemiJoin(left, right, left_key=lambda r: r[0], right_key=lambda r: r[0])
        )
        assert out == [(2,), (4,)]

    def test_merge_semi_join_right_exhausted(self):
        left = [(1,), (5,), (9,)]
        right = [(1,)]
        out = list(
            MergeSemiJoin(left, right, left_key=lambda r: r[0], right_key=lambda r: r[0])
        )
        assert out == [(1,)]


@given(
    st.lists(st.tuples(st.integers(0, 10), st.integers(0, 99)), max_size=60),
    st.lists(st.tuples(st.integers(0, 10), st.integers(0, 99)), max_size=60),
)
@settings(max_examples=100, deadline=None)
def test_merge_join_matches_nested_loop(left_raw, right_raw):
    left = sorted(left_raw)
    right = sorted(right_raw)
    expected = sorted(
        l + r for l in left for r in right if l[0] == r[0]
    )
    out = sorted(
        MergeJoin(left, right, left_key=lambda r: r[0], right_key=lambda r: r[0])
    )
    assert out == expected


# ----------------------------------------------------------------------
# grouping and aggregation
# ----------------------------------------------------------------------
class TestGrouping:
    def test_sorted_group_by(self):
        rows = [(1, 10), (1, 20), (2, 5), (3, 1), (3, 2)]
        out = list(
            SortedGroupBy(
                rows,
                key=lambda r: (r[0],),
                aggregates=[Sum(lambda r: r[1]), Count()],
            )
        )
        assert out == [(1, 30, 2), (2, 5, 1), (3, 3, 2)]

    def test_scalar_aggregate(self):
        rows = [(i,) for i in range(10)]
        out = list(ScalarAggregate(rows, [Sum(lambda r: r[0]), Count()]))
        assert out == [(45, 10)]

    def test_scalar_aggregate_empty(self):
        out = list(ScalarAggregate([], [Sum(lambda r: r[0]), Count()]))
        assert out == [(0, 0)]

    @pytest.mark.parametrize("cuts", [(), (1,), (2,), (1, 2)])
    def test_float_sum_folds_left_to_right(self, cuts):
        """1e16 + 1.0 rounds back to 1e16, so row-at-a-time addition
        gives 0.0; builtin ``sum()`` on Python >= 3.12 compensates and
        would give 1.0.  No batch boundary may change that."""
        values = [1e16, 1.0, -1e16]
        rows = [(0, value) for value in values]
        source = Batched(cut_at(rows, cuts))
        assert list(ScalarAggregate(source, [Sum(lambda r: r[1])])) == [(0.0,)]
        grouped = SortedGroupBy(rows, key=lambda r: (r[0],), aggregates=[Sum(lambda r: r[1])])
        assert list(grouped) == [(0, 0.0)]

    @pytest.mark.parametrize("backend", kernels.available_backends())
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.floats(-1e17, 1e17, allow_nan=False) | st.integers(-(10**20), 10**20),
            ),
            max_size=40,
        ),
        cuts=st.lists(st.integers(0, 40), max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_folds_equal_a_row_at_a_time_reduce(self, backend, rows, cuts):
        """Any batch boundaries give the row-at-a-time fold, exactly."""
        rows.sort(key=itemgetter(0))

        def reference(group):
            return reduce(lambda acc, row: acc + row[1], group, 0), len(group)

        aggregates = [Sum(itemgetter(1)), Count()]
        with kernels.use_backend(backend):
            scalar = list(ScalarAggregate(Batched(cut_at(rows, cuts)), aggregates))
            grouped = list(SortedGroupBy(rows, key=lambda r: (r[0],), aggregates=aggregates))
        assert scalar == [reference(rows)]
        assert grouped == [
            (key, *reference(list(group)))
            for key, group in groupby(rows, key=itemgetter(0))
        ]

    def test_group_by_empty_input(self):
        assert list(SortedGroupBy([], key=lambda r: (r[0],), aggregates=[Count()])) == []
