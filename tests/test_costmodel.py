"""Tests for the Section 4 cost model: formula values, shapes, crossovers."""

import math

import pytest

from repro.costmodel import (
    CostParameters,
    SECTION_4_PARAMS,
    SECTION_5_PARAMS,
    c_fts,
    c_fts_sort,
    c_iot,
    c_iot_sort,
    c_sort,
    c_tetris,
    l_splits,
    l_splits_lower,
    merge_sort_temp_pages,
    n_intervals,
    n_regions_dim,
    p_incomplete,
    p_sort,
    result_pages,
    tetris_cache_pages,
    tetris_first_response,
    tetris_regions,
)

from oracles import c_scan


class TestBasicFormulas:
    def test_c_scan(self):
        # ceil(k/C)*t_pi + max(k, C)*t_tau with C=16
        assert c_scan(32) == pytest.approx(2 * 0.010 + 32 * 0.001)
        assert c_scan(1) == pytest.approx(0.010 + 16 * 0.001)
        assert c_scan(0) == 0.0
        # a whole number of prefetch units is a full table scan
        assert c_scan(32) == pytest.approx(c_fts(32))

    def test_c_fts_paper_value(self):
        # 125k pages at (10ms/16 + 1ms) = 203.1s — the FTS line of Fig. 4-2
        assert c_fts(125_000) == pytest.approx(203.125)

    def test_c_iot_linear_in_selectivity(self):
        assert c_iot(125_000, 1.0) == pytest.approx(125_000 * 0.011)
        assert c_iot(125_000, 0.2) == pytest.approx(0.2 * 125_000 * 0.011)
        assert c_iot(125_000, 0.0) == 0.0

    def test_result_pages(self):
        assert result_pages(1000, [0.5, 0.2]) == pytest.approx(100.0)
        assert result_pages(1000, []) == 1000.0

    def test_p_sort_zero_when_in_memory(self):
        params = CostParameters(memory_pages=4096)
        assert p_sort(1000, [0.5], params) == 0.0

    def test_p_sort_formula(self):
        params = CostParameters(memory_pages=1000, merge_degree=2)
        data = 16_000.0  # 16x memory -> log2(16) = 4 passes
        value = p_sort(32_000, [0.5], params)
        assert value == pytest.approx(2 * data * 4)

    def test_c_fts_sort_additive(self):
        params = SECTION_4_PARAMS
        assert c_fts_sort(125_000, [0.5], params) == pytest.approx(
            c_fts(125_000, params) + c_sort(125_000, [0.5], params)
        )

    def test_c_iot_sort_additive_and_presorted(self):
        params = SECTION_4_PARAMS
        full = c_iot_sort(125_000, [0.2, 1.0], params)
        assert full == pytest.approx(
            c_iot(125_000, 0.2, params) + c_sort(125_000, [0.2, 1.0], params)
        )
        presorted = c_iot_sort(125_000, [0.2, 1.0], params, sort_on_leading=True)
        assert presorted == pytest.approx(c_iot(125_000, 0.2, params))

    def test_section5_params(self):
        assert SECTION_5_PARAMS.t_pi == pytest.approx(0.008)
        assert SECTION_5_PARAMS.t_tau == pytest.approx(0.0007)


class TestRegionModel:
    def test_l_splits_distribution(self):
        # P = 125000 -> floor(log2) = 16 splits; d=2 -> 8 each
        assert l_splits_lower(2, 125_000) == 8
        assert l_splits(2, 125_000, 1) == 8
        assert l_splits(2, 125_000, 2) == 8
        # d=3 -> 16 = 3*5 + 1: dim 1 gets the extra split
        assert l_splits(3, 125_000, 1) == 6
        assert l_splits(3, 125_000, 2) == 5
        assert l_splits(3, 125_000, 3) == 5

    def test_l_splits_sum_invariant(self):
        for pages in (100, 1000, 125_000, 7):
            for dims in (1, 2, 3, 4):
                total = sum(l_splits(dims, pages, j) for j in range(1, dims + 1))
                assert total == int(math.log2(pages))

    def test_p_incomplete(self):
        # P = 3 * 2^14: fraction 1.5 -> probability 0.5 on the next dim
        pages = 3 * (1 << 14)  # floor(log2) = 15
        dims = 3  # 15 = 3*5, remainder 0 -> incomplete split on dim 1
        assert p_incomplete(dims, pages, 1) == pytest.approx(0.5)
        assert p_incomplete(dims, pages, 2) == 0.0

    def test_n_intervals_full_range(self):
        assert n_intervals(0.0, 1.0, 3) == 8

    def test_n_intervals_partial(self):
        assert n_intervals(0.0, 0.5, 3) == 5  # cells 0..4 by the paper's formula
        assert n_intervals(0.5, 1.0, 3) == 4
        assert n_intervals(1.0, 1.0, 1) == 1

    def test_n_intervals_rejects_bad_range(self):
        with pytest.raises(ValueError):
            n_intervals(0.6, 0.5, 3)
        with pytest.raises(ValueError):
            n_intervals(-0.1, 0.5, 3)

    def test_n_regions_monotone_in_selectivity(self):
        previous = 0.0
        for selectivity in (0.1, 0.3, 0.5, 0.8, 1.0):
            value = n_regions_dim(2, 125_000, 0.0, selectivity, 1)
            assert value >= previous
            previous = value

    def test_tetris_regions_product(self):
        ranges = [(0.0, 0.5), (0.0, 1.0)]
        expected = n_regions_dim(2, 125_000, 0.0, 0.5, 1) * n_regions_dim(
            2, 125_000, 0.0, 1.0, 2
        )
        assert tetris_regions(125_000, ranges) == pytest.approx(expected)

    def test_c_tetris_prices_random_accesses(self):
        ranges = [(0.0, 1.0), (0.0, 1.0)]
        regions = tetris_regions(125_000, ranges)
        assert c_tetris(125_000, ranges) == pytest.approx(0.011 * regions)

    def test_unrestricted_tetris_covers_about_all_pages(self):
        # with (0,1) ranges the model counts every region (2^16 for 125k pages
        # plus the incomplete-split fraction)
        regions = tetris_regions(125_000, [(0.0, 1.0), (0.0, 1.0)])
        assert 65_000 <= regions <= 131_072


class TestIntermediateStorage:
    def test_merge_sort_temp_linear(self):
        assert merge_sort_temp_pages(125_000, [0.2]) == pytest.approx(25_000)

    def test_tetris_cache_excludes_sort_dim(self):
        ranges = [(0.0, 0.2), (0.0, 1.0)]
        cache = tetris_cache_pages(125_000, ranges, 1)
        assert cache == pytest.approx(n_regions_dim(2, 125_000, 0.0, 0.2, 1))

    def test_tetris_cache_sqrt_shape(self):
        """cache ≈ sqrt(P * s1 * s2) for 2-d UB-Trees (Section 4.4)."""
        pages = 1 << 16
        cache = tetris_cache_pages(pages, [(0.0, 1.0), (0.0, 1.0)], 1)
        assert cache == pytest.approx(math.sqrt(pages), rel=0.01)

    def test_tetris_first_response_much_smaller_than_total(self):
        ranges = [(0.0, 0.2), (0.0, 1.0)]
        first = tetris_first_response(125_000, ranges, 1)
        total = c_tetris(125_000, ranges)
        assert first < total / 50


class TestPaperShapes:
    """The qualitative claims of Figures 4-2 and 4-3, as assertions."""

    PAGES = 125_000

    def line(self, selectivity):
        ranges = [(0.0, selectivity), (0.0, 1.0)]
        selectivities = [selectivity, 1.0]
        return {
            "tetris": c_tetris(self.PAGES, ranges),
            "fts-sort": c_fts_sort(self.PAGES, selectivities),
            "iot-a1-sort": c_iot_sort(self.PAGES, selectivities),
            "iot-a2": c_iot_sort(
                self.PAGES, [1.0, selectivity], sort_on_leading=True
            ),
        }

    def test_tetris_beats_fts_sort_everywhere(self):
        for selectivity in (0.05, 0.2, 0.5, 0.8, 1.0):
            costs = self.line(selectivity)
            assert costs["tetris"] < costs["fts-sort"], selectivity

    def test_iot_on_restricted_attr_wins_only_when_selective(self):
        selective = self.line(0.01)
        assert selective["iot-a1-sort"] < selective["fts-sort"]
        unselective = self.line(0.8)
        assert unselective["iot-a1-sort"] > unselective["fts-sort"]

    def test_iot_on_sort_attr_competitive_only_without_restriction(self):
        open_costs = self.line(1.0)
        # unrestricted: the presorted IOT pays all pages at random
        assert open_costs["iot-a2"] == pytest.approx(self.PAGES * 0.011)
        restricted = self.line(0.2)
        assert restricted["iot-a2"] > restricted["tetris"] * 3

    def test_table_size_scaling_keeps_ordering(self):
        """Figure 4-3: at s1 = 20 %, Tetris is cheapest once the sort spills."""
        for pages in (50_000, 125_000, 500_000):
            ranges = [(0.0, 0.2), (0.0, 1.0)]
            selectivities = [0.2, 1.0]
            tetris = c_tetris(pages, ranges)
            assert tetris < c_fts_sort(pages, selectivities)
            assert tetris < c_iot_sort(
                pages, [1.0, 0.2], sort_on_leading=True
            )

    def test_small_tables_sort_in_memory_and_fts_wins(self):
        """Below the work-memory threshold the merge factor is zero and a
        plain prefetched scan beats per-region random accesses — the left
        edge of Figure 4-3."""
        pages = 10_000  # restricted data (2 000 pages) < M = 4 096 pages
        assert c_sort(pages, [0.2, 1.0]) == 0.0
        assert c_fts_sort(pages, [0.2, 1.0]) < c_tetris(
            pages, [(0.0, 0.2), (0.0, 1.0)]
        )
