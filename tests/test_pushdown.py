"""Tests for box-cover restriction pushdown (``repro.planner.pushdown``).

The load-bearing claims: a key cover is always a *superset* of the
qualifying key set within its interval budget (pushdown may read too
much, never too little), the :class:`IntervalUnionSpace` it produces is
exact (not conservative), and a Tetris sweep restricted by a pushdown
space returns exactly the rows whose encoded key the space contains —
while genuinely skipping the regions it rules out.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.query_space import IntervalUnionSpace
from repro.planner.pushdown import (
    DEFAULT_COVER_BUDGET,
    KeyCover,
    build_key_cover,
    pushdown_space,
)
from repro.relational import Attribute, Database, IntEncoder, Schema

DIMS = ("a1", "a2")


def make_schema() -> Schema:
    return Schema(
        [
            Attribute("a1", IntEncoder(0, 1023)),
            Attribute("a2", IntEncoder(0, 1023)),
            Attribute("v", IntEncoder(0, 10**9)),
        ]
    )


def make_table(rows, page_capacity: int = 32):
    db = Database(buffer_pages=64)
    table = db.create_ub_table("t", make_schema(), DIMS, page_capacity)
    table.bulk_load(rows)
    return db, table


def covers(cover: KeyCover, key: int) -> bool:
    return any(lo <= key <= hi for lo, hi in cover.intervals)


# ----------------------------------------------------------------------
# cover construction
# ----------------------------------------------------------------------
class TestBuildKeyCover:
    def test_empty_keys(self):
        cover = build_key_cover([], budget=8)
        assert cover.intervals == ()
        assert cover.key_count == 0
        assert cover.covered_values == 0
        assert not cover.is_hull

    def test_consecutive_keys_coalesce_to_one_run(self):
        cover = build_key_cover([5, 6, 7, 8], budget=8)
        assert cover.intervals == ((5, 8),)
        assert cover.natural_runs == 1
        assert cover.key_count == 4

    def test_duplicates_ignored(self):
        cover = build_key_cover([3, 3, 3, 4], budget=8)
        assert cover.intervals == ((3, 4),)
        assert cover.key_count == 2

    def test_within_budget_runs_stay_exact(self):
        cover = build_key_cover([1, 2, 10, 11, 50], budget=3)
        assert cover.intervals == ((1, 2), (10, 11), (50, 50))
        assert cover.covered_values == cover.key_count == 5

    def test_budgeting_absorbs_smallest_gaps(self):
        # runs [1,1] [4,4] [100,100] [103,103]: the huge middle gap is
        # the one separator worth keeping under budget=2
        cover = build_key_cover([1, 4, 100, 103], budget=2)
        assert cover.intervals == ((1, 4), (100, 103))
        assert cover.natural_runs == 4

    def test_budget_one_is_convex_hull(self):
        cover = build_key_cover([7, 100, 900], budget=1)
        assert cover.intervals == ((7, 900),)
        assert cover.is_hull

    def test_single_run_is_not_a_hull(self):
        assert not build_key_cover([1, 2, 3], budget=1).is_hull

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            build_key_cover([1], budget=0)

    @given(
        st.lists(st.integers(0, 1023), max_size=120),
        st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_cover_is_a_bounded_superset(self, keys, budget):
        cover = build_key_cover(keys, budget)
        assert len(cover.intervals) <= budget
        # sorted, disjoint, non-touching
        for (_, hi), (lo, _) in zip(cover.intervals, cover.intervals[1:]):
            assert hi < lo
        for key in keys:
            assert covers(cover, key)
        assert cover.covered_values >= cover.key_count
        # deterministic: the same key set always yields the same cover
        assert build_key_cover(list(reversed(keys)), budget) == cover


# ----------------------------------------------------------------------
# the interval-union query space is exact
# ----------------------------------------------------------------------
class TestIntervalUnionSpace:
    COORD_MAX = (1023, 1023)

    def make_space(self, keys, budget=8, dim=0):
        cover = build_key_cover(keys, budget)
        return IntervalUnionSpace(self.COORD_MAX, dim, cover.intervals)

    @given(
        st.lists(st.integers(0, 1023), max_size=60),
        st.integers(0, 1),
        st.lists(
            st.tuples(st.integers(0, 1023), st.integers(0, 1023)), max_size=30
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_contains_point_matches_brute_force(self, keys, dim, points):
        space = self.make_space(keys, dim=dim)
        for point in points:
            expected = any(
                lo <= point[dim] <= hi for lo, hi in space.intervals
            )
            assert space.contains_point(point) == expected

    @given(
        st.lists(st.integers(0, 1023), max_size=60),
        st.lists(
            st.tuples(st.integers(0, 1023), st.integers(0, 1023)), max_size=20
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_intersects_box_matches_brute_force(self, keys, ranges):
        space = self.make_space(keys)
        for a, b in ranges:
            lo, hi = min(a, b), max(a, b)
            expected = any(
                run_lo <= hi and lo <= run_hi
                for run_lo, run_hi in space.intervals
            )
            assert space.intersects_box((lo, 0), (hi, 1023)) == expected

    def test_empty_space_has_inverted_bounding_box(self):
        space = IntervalUnionSpace(self.COORD_MAX, 0, ())
        assert space.is_empty
        lo, hi = space.bounding_box()
        assert lo[0] > hi[0]
        assert not space.intersects_box((0, 0), self.COORD_MAX)

    def test_bounding_box_clamps_to_hull(self):
        space = IntervalUnionSpace(self.COORD_MAX, 0, ((10, 20), (50, 60)))
        lo, hi = space.bounding_box()
        assert (lo[0], hi[0]) == (10, 60)
        assert (lo[1], hi[1]) == (0, 1023)

    def test_rejects_unsorted_or_overlapping_intervals(self):
        with pytest.raises(ValueError):
            IntervalUnionSpace(self.COORD_MAX, 0, ((10, 20), (15, 30)))
        with pytest.raises(ValueError):
            IntervalUnionSpace(self.COORD_MAX, 0, ((20, 10),))
        with pytest.raises(ValueError):
            IntervalUnionSpace(self.COORD_MAX, 0, ((0, 2000),))

    @pytest.mark.skipif(
        "numpy" not in kernels.available_backends(),
        reason="numpy backend unavailable",
    )
    def test_backends_agree_on_space_filtering(self):
        rng = random.Random(17)
        keys = [rng.randrange(1024) for _ in range(40)]
        space = self.make_space(keys, budget=6)
        points = [
            (rng.randrange(1024), rng.randrange(1024)) for _ in range(500)
        ]
        with kernels.use_backend("python"):
            pure = kernels.get_backend().filter_space_batch(space, points)
        with kernels.use_backend("numpy"):
            vectorized = kernels.get_backend().filter_space_batch(space, points)
        assert pure == vectorized


# ----------------------------------------------------------------------
# pushdown_space: encoding, validation, sweep integration
# ----------------------------------------------------------------------
class TestPushdownSpace:
    def make_rows(self, count=500, seed=11):
        rng = random.Random(seed)
        return [
            (rng.randrange(1024), rng.randrange(1024), i) for i in range(count)
        ]

    def test_rejects_non_dimension_attribute(self):
        _, table = make_table(self.make_rows(50))
        with pytest.raises(ValueError):
            pushdown_space(table, "v", [1, 2, 3])

    def test_empty_keys_give_empty_space(self):
        _, table = make_table(self.make_rows(50))
        space, cover = pushdown_space(table, "a1", [])
        assert space.is_empty
        assert cover.key_count == 0
        assert list(table.tetris_scan(None, "a2", pushdown=space)) == []

    def test_default_budget_bounds_intervals(self):
        _, table = make_table(self.make_rows(200))
        keys = list(range(0, 1024, 2))  # 512 natural runs
        space, cover = pushdown_space(table, "a1", keys)
        assert cover.budget == DEFAULT_COVER_BUDGET
        assert len(space.intervals) <= DEFAULT_COVER_BUDGET

    def test_sweep_returns_exactly_the_covered_rows(self):
        rows = self.make_rows(800)
        _, table = make_table(rows)
        keys = sorted({row[0] for row in rows if 100 <= row[0] <= 180})
        space, _ = pushdown_space(table, "a1", keys)
        plain = list(table.tetris_scan(None, "a2"))
        expected = [
            (point, row) for point, row in plain if space.contains_point(point)
        ]
        _, fresh = make_table(rows)
        space, _ = pushdown_space(fresh, "a1", keys)
        pushed = fresh.tetris_scan(None, "a2", pushdown=space)
        assert list(pushed) == expected
        assert pushed.stats.pages_skipped_by_pushdown > 0

    def test_pushdown_composes_with_restrictions(self):
        rows = self.make_rows(800)
        _, table = make_table(rows)
        keys = [row[0] for row in rows if row[0] < 64]
        space, _ = pushdown_space(table, "a1", keys)
        restricted = {"a2": (200, 700)}
        pushed = list(
            table.tetris_scan(restricted, "a2", pushdown=space)
        )
        _, fresh = make_table(rows)
        expected = [
            (point, row)
            for point, row in fresh.tetris_scan(restricted, "a2")
            if space.contains_point(point)
        ]
        assert pushed == expected

    def test_both_backends_and_strategies_agree(self):
        rows = self.make_rows(600)
        reference = None
        for backend in kernels.available_backends():
            with kernels.use_backend(backend):
                for strategy in ("eager", "sweep"):
                    _, table = make_table(rows)
                    keys = [row[0] for row in rows if row[0] % 5 == 0]
                    space, _ = pushdown_space(table, "a1", keys)
                    got = list(
                        table.tetris_scan(
                            None, "a2", strategy=strategy, pushdown=space
                        )
                    )
                    if reference is None:
                        reference = got
                    assert got == reference
