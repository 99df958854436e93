"""Focused unit tests for corners not covered elsewhere."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.bptree import BPlusTree
from repro.core import QueryBox, UBTree, ZSpace, tetris_sorted
from repro.core.tetris import TetrisStats
from repro.relational.schema import DateEncoder

from oracles import DecimalEncoder
from repro.storage import BufferPool, SimulatedDisk
from repro.storage.stats import CategoryStats, IOStats


class TestIOStatsArithmetic:
    def test_category_subtraction(self):
        a = CategoryStats(pages_read=10, pages_written=4, read_seeks=3)
        b = CategoryStats(pages_read=6, pages_written=1, read_seeks=2)
        d = a - b
        assert (d.pages_read, d.pages_written, d.read_seeks) == (4, 3, 1)

    def test_iostats_subtraction_with_new_categories(self):
        later = IOStats(time=5.0)
        later.category("data").pages_read = 7
        later.category("temp").pages_written = 3
        earlier = IOStats(time=2.0)
        earlier.category("data").pages_read = 2
        d = later - earlier
        assert d.time == pytest.approx(3.0)
        assert d.categories["data"].pages_read == 5
        assert d.categories["temp"].pages_written == 3

    def test_copy_is_deep(self):
        stats = IOStats()
        stats.category("data").pages_read = 1
        snapshot = stats.copy()
        stats.category("data").pages_read = 99
        assert snapshot.categories["data"].pages_read == 1

    def test_aggregate_properties(self):
        stats = IOStats()
        stats.category("a").pages_read = 2
        stats.category("a").read_seeks = 2
        stats.category("b").pages_written = 5
        stats.category("b").write_seeks = 1
        assert stats.pages_read == 2
        assert stats.pages_written == 5
        seeks = [c.read_seeks + c.write_seeks for c in stats.categories.values()]
        assert sum(seeks) == 3


class TestSplitIndex:
    def test_prefers_middle(self):
        assert BPlusTree._split_index([1, 2, 3, 4]) == 2

    def test_avoids_equal_key_boundary(self):
        # middle boundary splits equal keys; nearest clean boundary wins
        assert BPlusTree._split_index([1, 2, 2, 3]) in (1, 3)

    def test_all_equal_returns_none(self):
        assert BPlusTree._split_index([7, 7, 7, 7]) is None

    def test_two_distinct(self):
        assert BPlusTree._split_index([1, 2]) == 1


class TestTetrisStats:
    def test_time_to_first_none_without_output(self):
        stats = TetrisStats()
        assert stats.time_to_first is None
        assert stats.elapsed == 0.0

    def test_cache_pages_rounds_up(self):
        stats = TetrisStats(max_cache_tuples=81)
        assert stats.cache_pages(80) == 2
        assert TetrisStats(max_cache_tuples=80).cache_pages(80) == 1
        assert TetrisStats(max_cache_tuples=0).cache_pages(80) == 0


class TestEncoderRoundtrips:
    @given(st.integers(0, 2556))  # 1992-01-01 .. 1998-12-31 inclusive
    @settings(max_examples=100, deadline=None)
    def test_date_roundtrip_property(self, offset):
        encoder = DateEncoder(dt.date(1992, 1, 1), dt.date(1998, 12, 31))
        day = dt.date(1992, 1, 1) + dt.timedelta(days=offset)
        assert encoder.decode(encoder.encode(day)) == day

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_decimal_roundtrip_property(self, cents):
        encoder = DecimalEncoder(0.0, 100.0, scale=2)
        value = cents / 100
        assert encoder.decode(encoder.encode(value)) == pytest.approx(value)

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_decimal_order_preserving(self, a, b):
        encoder = DecimalEncoder(0.0, 100.0, scale=2)
        ea, eb = encoder.encode(a / 100), encoder.encode(b / 100)
        assert (ea < eb) == (a < b)


class TestScanStatsConsistency:
    def test_tetris_stats_internally_consistent(self):
        import random

        disk = SimulatedDisk()
        tree = UBTree(BufferPool(disk, 64), ZSpace([5, 5]), page_capacity=4)
        rng = random.Random(11)
        for index in range(300):
            tree.insert((rng.randrange(32), rng.randrange(32)), index)
        box = QueryBox((4, 4), (27, 27))
        scan = tetris_sorted(tree, box, 0)
        out = list(scan)
        stats = scan.stats
        assert stats.tuples_output == len(out)
        assert stats.regions_read == len(scan.page_access_order)
        assert stats.regions_read <= stats.regions_examined
        assert stats.max_cache_tuples <= stats.tuples_output
        assert stats.start_clock <= stats.first_output_clock <= stats.end_clock
        assert stats.slices >= 1

    def test_page_reads_equal_priced_io(self):
        import random

        disk = SimulatedDisk()
        tree = UBTree(BufferPool(disk, 4), ZSpace([5, 5]), page_capacity=4)
        rng = random.Random(12)
        for index in range(200):
            tree.insert((rng.randrange(32), rng.randrange(32)), index)
        tree.tree.buffer.drop_all()
        before = disk.snapshot()
        scan = tetris_sorted(tree, QueryBox((0, 0), (31, 31)), 1)
        list(scan)
        delta = disk.snapshot() - before
        assert delta.pages_read == scan.stats.regions_read
        assert delta.time == pytest.approx(
            scan.stats.regions_read * (disk.params.t_pi + disk.params.t_tau)
        )
