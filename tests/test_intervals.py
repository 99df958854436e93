"""Tests for IntervalSet, the retrieved space Φ."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import IntervalSet


def intervals(phi):
    """All intervals of ``phi`` in ascending order."""
    return list(zip(phi._lows, phi._highs))


def covered(phi):
    """Total number of integers ``phi`` covers."""
    return sum(hi - lo + 1 for lo, hi in intervals(phi))


def test_empty():
    phi = IntervalSet()
    assert len(phi) == 0
    assert phi.containing(5) is None
    assert covered(phi) == 0


def test_single_interval():
    phi = IntervalSet()
    phi.add(3, 7)
    assert intervals(phi) == [(3, 7)]
    assert phi.containing(3) == (3, 7)
    assert phi.containing(7) == (3, 7)
    assert phi.containing(2) is None
    assert phi.containing(8) is None
    assert covered(phi) == 5


def test_disjoint_intervals_stay_separate():
    phi = IntervalSet()
    phi.add(0, 2)
    phi.add(10, 12)
    assert intervals(phi) == [(0, 2), (10, 12)]
    assert len(phi) == 2


def test_adjacent_intervals_merge():
    phi = IntervalSet()
    phi.add(0, 4)
    phi.add(5, 9)
    assert intervals(phi) == [(0, 9)]


def test_overlapping_intervals_merge():
    phi = IntervalSet()
    phi.add(0, 6)
    phi.add(4, 9)
    assert intervals(phi) == [(0, 9)]


def test_bridging_interval_merges_neighbours():
    phi = IntervalSet()
    phi.add(0, 2)
    phi.add(8, 10)
    phi.add(3, 7)
    assert intervals(phi) == [(0, 10)]


def test_contained_interval_is_absorbed():
    phi = IntervalSet()
    phi.add(0, 10)
    phi.add(3, 5)
    assert intervals(phi) == [(0, 10)]


def test_inverted_interval_rejected():
    phi = IntervalSet()
    with pytest.raises(ValueError):
        phi.add(5, 3)


def test_single_point_intervals():
    phi = IntervalSet()
    phi.add(5, 5)
    phi.add(7, 7)
    assert intervals(phi) == [(5, 5), (7, 7)]
    phi.add(6, 6)
    assert intervals(phi) == [(5, 7)]


@given(
    st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 30)),
        min_size=0,
        max_size=40,
    ),
    st.integers(0, 230),
)
@settings(max_examples=300, deadline=None)
def test_matches_set_model(raw_intervals, probe):
    """IntervalSet behaves like a plain set of covered integers."""
    phi = IntervalSet()
    model: set[int] = set()
    for start, width in raw_intervals:
        phi.add(start, start + width)
        model.update(range(start, start + width + 1))
        # invariants: intervals sorted, disjoint, non-adjacent
        spans = intervals(phi)
        for (al, ah), (bl, bh) in zip(spans, spans[1:]):
            assert ah + 1 < bl
    assert (phi.containing(probe) is not None) == (probe in model)
    assert covered(phi) == len(model)
    hit = phi.containing(probe)
    if hit is not None:
        lo, hi = hit
        assert lo <= probe <= hi
        assert all(value in model for value in (lo, hi))
        assert lo - 1 not in model and hi + 1 not in model
