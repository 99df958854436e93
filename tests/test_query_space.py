"""Tests for query spaces: boxes, half-spaces, intersections.

Membership of the built-in spaces is the kernels' job (the pure
backend's ``filter_space_batch`` is the reference) and box pruning is
:func:`box_meets`; both are held to the definitions here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.query_space import (
    ComparisonSpace,
    IntersectionSpace,
    QueryBox,
    box_is_empty,
    box_meets,
)

from oracles import PredicateSpace


def contains(space, point):
    """Membership by the pure kernel, the reference for every space."""
    return kernels.backend("python").filter_space_batch(space, [point]) == [0]


# ----------------------------------------------------------------------
# QueryBox
# ----------------------------------------------------------------------
class TestQueryBox:
    def test_contains_point(self):
        box = QueryBox((1, 2), (5, 6))
        assert box.contains_point((1, 2))
        assert box.contains_point((5, 6))
        assert box.contains_point((3, 4))
        assert not box.contains_point((0, 4))
        assert not box.contains_point((3, 7))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            QueryBox((1, 2), (3,))

    def test_full(self):
        box = QueryBox.full((7, 15))
        assert box.lo == (0, 0)
        assert box.hi == (7, 15)

    def test_with_range_is_a_cluster(self):
        box = QueryBox.full((7, 15)).restricted(1, 3, 9)
        assert box.lo == (0, 3)
        assert box.hi == (7, 9)

    def test_intersects_box(self):
        box = QueryBox((2, 2), (4, 4))
        assert box_meets(box, (4, 4), (9, 9))
        assert box_meets(box, (0, 0), (2, 2))
        assert not box_meets(box, (5, 0), (9, 9))

    def test_clamp(self):
        a = QueryBox((0, 0), (5, 5))
        b = QueryBox((3, 2), (8, 4))
        assert IntersectionSpace([a, b]).bounding_box() == ((3, 2), (5, 4))

    def test_clamp_empty(self):
        a = QueryBox((0, 0), (2, 2))
        b = QueryBox((5, 5), (8, 8))
        assert box_is_empty(IntersectionSpace([a, b]).bounding_box())

    def test_restricted(self):
        box = QueryBox((0, 0), (9, 9)).restricted(1, 3, 5)
        assert box.lo == (0, 3)
        assert box.hi == (9, 5)


# ----------------------------------------------------------------------
# ComparisonSpace (the triangular Q4 space)
# ----------------------------------------------------------------------
class TestComparisonSpace:
    def test_contains_point(self):
        space = ComparisonSpace(3, 0, "<", 2)
        assert space.contains_point((1, 9, 5))
        assert not space.contains_point((5, 9, 5))
        assert not space.contains_point((6, 9, 5))

    def test_all_operators(self):
        for op, point, expected in [
            ("<", (1, 2), True),
            ("<", (2, 2), False),
            ("<=", (2, 2), True),
            (">", (3, 2), True),
            (">", (2, 2), False),
            (">=", (2, 2), True),
        ]:
            space = ComparisonSpace(2, 0, op, 1)
            assert space.contains_point(point) == expected, (op, point)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ComparisonSpace(2, 0, "!=", 1)
        with pytest.raises(ValueError):
            ComparisonSpace(2, 0, "<", 0)
        with pytest.raises(ValueError):
            ComparisonSpace(2, 0, "<", 5)

    def test_unbounded(self):
        assert ComparisonSpace(2, 0, "<", 1).bounding_box() is None

    def test_intersects_box_exact(self):
        space = ComparisonSpace(2, 0, "<", 1)
        # box entirely above the diagonal
        assert box_meets(space, (0, 5), (2, 9))
        # box entirely below the diagonal
        assert not box_meets(space, (5, 0), (9, 3))
        # box touching the diagonal only at equality: x0 == x1 not allowed
        assert not box_meets(space, (4, 4), (4, 4))
        assert box_meets(ComparisonSpace(2, 0, "<=", 1), (4, 4), (4, 4))

    def test_intersects_box_greater(self):
        space = ComparisonSpace(2, 0, ">", 1)
        assert box_meets(space, (5, 0), (9, 3))
        assert not box_meets(space, (0, 5), (2, 9))

    def test_exhaustive_against_brute_force(self):
        space = ComparisonSpace(2, 0, "<", 1)
        for x_lo in range(4):
            for x_hi in range(x_lo, 4):
                for y_lo in range(4):
                    for y_hi in range(y_lo, 4):
                        brute = any(
                            x < y
                            for x in range(x_lo, x_hi + 1)
                            for y in range(y_lo, y_hi + 1)
                        )
                        assert (
                            box_meets(space, (x_lo, y_lo), (x_hi, y_hi)) == brute
                        )


# ----------------------------------------------------------------------
# PredicateSpace and IntersectionSpace
# ----------------------------------------------------------------------
class TestComposites:
    def test_predicate_space(self):
        space = PredicateSpace(2, lambda p: (p[0] + p[1]) % 2 == 0)
        assert space.contains_point((1, 1))
        assert not space.contains_point((1, 2))
        assert space.intersects_box((0, 0), (0, 0))  # conservative
        assert space.bounding_box() is None

    def test_intersection_membership(self):
        space = IntersectionSpace(
            [QueryBox((0, 0), (5, 5)), ComparisonSpace(2, 0, "<", 1)]
        )
        assert contains(space, (1, 3))
        assert not contains(space, (3, 1))
        assert not contains(space, (1, 6))

    def test_intersection_bounding_box(self):
        space = IntersectionSpace(
            [QueryBox((0, 2), (5, 9)), QueryBox((1, 0), (9, 7))]
        )
        assert space.bounding_box() == ((1, 2), (5, 7))

    def test_intersection_with_unbounded_part(self):
        space = IntersectionSpace(
            [QueryBox((1, 1), (4, 4)), ComparisonSpace(2, 0, "<", 1)]
        )
        assert space.bounding_box() == ((1, 1), (4, 4))

    def test_intersection_of_unbounded_only(self):
        space = IntersectionSpace([ComparisonSpace(2, 0, "<", 1)])
        assert space.bounding_box() is None

    def test_intersection_flattens(self):
        inner = IntersectionSpace([QueryBox((0, 0), (3, 3))])
        outer = IntersectionSpace([inner, QueryBox((1, 1), (5, 5))])
        assert len(outer.parts) == 2

    def test_intersection_rejects_empty_and_mixed_dims(self):
        with pytest.raises(ValueError):
            IntersectionSpace([])
        with pytest.raises(ValueError):
            IntersectionSpace([QueryBox((0,), (1,)), QueryBox((0, 0), (1, 1))])

    def test_intersects_box_is_conservative(self):
        space = IntersectionSpace(
            [QueryBox((0, 0), (9, 9)), ComparisonSpace(2, 0, "<", 1)]
        )
        assert box_meets(space, (0, 5), (3, 9))
        assert not box_meets(space, (5, 0), (9, 3))


@given(
    st.tuples(st.integers(0, 15), st.integers(0, 15)),
    st.tuples(st.integers(0, 15), st.integers(0, 15)),
    st.tuples(st.integers(0, 15), st.integers(0, 15)),
)
@settings(max_examples=200, deadline=None)
def test_box_membership_matches_definition(a, b, point):
    lo = tuple(min(x, y) for x, y in zip(a, b))
    hi = tuple(max(x, y) for x, y in zip(a, b))
    box = QueryBox(lo, hi)
    expected = all(l <= p <= h for p, l, h in zip(point, lo, hi))
    assert box.contains_point(point) == expected
