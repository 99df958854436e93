"""Property-based tests of the Section 4 cost model."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.costmodel import (
    CostParameters,
    c_fts,
    c_fts_sort,
    c_iot,
    c_sort,
    c_tetris,
    l_splits,
    n_intervals,
    n_regions_dim,
    p_incomplete,
    tetris_cache_pages,
    tetris_regions,
)

from oracles import c_scan

pages_strategy = st.integers(16, 2_000_000)
dims_strategy = st.integers(1, 5)
fraction = st.floats(0.0, 1.0, allow_nan=False)


@given(pages_strategy, dims_strategy)
@settings(max_examples=200, deadline=None)
def test_split_counts_sum_to_total(pages, dims):
    total = sum(l_splits(dims, pages, j) for j in range(1, dims + 1))
    assert total == int(math.log2(pages))


@given(pages_strategy, dims_strategy)
@settings(max_examples=200, deadline=None)
def test_incomplete_split_probability_bounds(pages, dims):
    probabilities = [p_incomplete(dims, pages, j) for j in range(1, dims + 1)]
    assert sum(1 for p in probabilities if p > 0) <= 1
    for p in probabilities:
        assert 0.0 <= p < 1.0


@given(fraction, fraction, st.integers(0, 12))
@settings(max_examples=300, deadline=None)
def test_n_intervals_bounds(a, b, splits):
    y, z = min(a, b), max(a, b)
    value = n_intervals(y, z, splits)
    assert 0 <= value <= (1 << splits)
    # full range covers every cell
    assert n_intervals(0.0, 1.0, splits) == (1 << splits)


@given(pages_strategy, fraction, fraction)
@settings(max_examples=200, deadline=None)
def test_region_count_monotone_in_range(pages, a, b):
    y, z = min(a, b), max(a, b)
    narrow = n_regions_dim(2, pages, y, z, 1)
    wide = n_regions_dim(2, pages, 0.0, 1.0, 1)
    assert 0 <= narrow <= wide + 1e-9


@given(pages_strategy, fraction)
@settings(max_examples=200, deadline=None)
def test_tetris_cost_scales_with_selectivity(pages, selectivity):
    restricted = c_tetris(pages, [(0.0, selectivity), (0.0, 1.0)])
    unrestricted = c_tetris(pages, [(0.0, 1.0), (0.0, 1.0)])
    assert restricted <= unrestricted + 1e-9


@given(pages_strategy)
@settings(max_examples=100, deadline=None)
def test_cache_never_exceeds_regions(pages):
    ranges = [(0.0, 0.5), (0.0, 1.0)]
    cache = tetris_cache_pages(pages, ranges, 1)
    total = tetris_regions(pages, ranges)
    assert cache <= total + 1e-9


@given(st.integers(1, 100_000), st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_scan_cheaper_than_random_per_page(k, prefetch):
    params = CostParameters(prefetch=prefetch)
    assume(k >= prefetch)
    sequential = c_scan(k, params)
    random_cost = k * (params.t_pi + params.t_tau)
    assert sequential <= random_cost + 1e-9


@given(pages_strategy, fraction)
@settings(max_examples=150, deadline=None)
def test_fts_sort_dominates_fts(pages, selectivity):
    assert c_fts_sort(pages, [selectivity, 1.0]) >= c_fts(pages) - 1e-9


@given(pages_strategy, fraction, fraction)
@settings(max_examples=150, deadline=None)
def test_sort_cost_monotone_in_selectivity(pages, a, b):
    low, high = min(a, b), max(a, b)
    assert c_sort(pages, [low, 1.0]) <= c_sort(pages, [high, 1.0]) + 1e-9


@given(pages_strategy, fraction)
@settings(max_examples=150, deadline=None)
def test_iot_linear_in_selectivity(pages, selectivity):
    full = c_iot(pages, 1.0)
    part = c_iot(pages, selectivity)
    assert part == pytest.approx(full * selectivity, rel=1e-9, abs=1e-9)


@given(pages_strategy, dims_strategy, st.data())
@settings(max_examples=100, deadline=None)
def test_tetris_regions_bounded_by_grid(pages, dims, data):
    """The region-count product never exceeds twice the split grid size
    (the interpolation adds at most the finer grid's increment)."""
    ranges = [
        (0.0, data.draw(st.floats(0.0, 1.0, allow_nan=False))) for _ in range(dims)
    ]
    ranges = [(lo, max(lo, hi)) for lo, hi in ranges]
    value = tetris_regions(pages, ranges)
    grid = 1 << int(math.log2(pages))
    assert value <= 2 * grid + 1
