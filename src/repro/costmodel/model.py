"""The analytic cost model of Section 4, formula by formula.

All response times are in seconds, sizes in pages.  Restrictions are
given as normalized ranges ``(y_j, z_j) ⊆ [0, 1]`` per attribute, exactly
as the paper's ``n_j`` function expects.

Two printing errors of the paper are corrected here and documented:

* the figure lists ``c_iot_sort = c_fts + c_sort`` — clearly a typo for
  ``c_iot + c_sort`` (the surrounding text discusses the IOT retrieval
  phase costing ``s_1 · P`` random accesses);
* the completed-splits condition is printed as
  ``⌊log₂P⌋ mod d ≤ j`` which does not distribute the remainder splits
  to exactly ``r = ⌊log₂P⌋ mod d`` dimensions; we use ``j ≤ r``
  (1-indexed), which is the unique reading consistent with the
  companion rule ``p_j ≠ 0 iff j = r + 1`` (the *next* splitting
  dimension is the first without a completed extra split).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..storage.disk import DiskParameters

Range = tuple[float, float]


@dataclass(frozen=True)
class CostParameters:
    """Device and sort parameters of the analysis (Section 4.3 defaults)."""

    t_pi: float = 0.010  #: positioning time (s)
    t_tau: float = 0.001  #: transfer time per page (s)
    prefetch: int = 16  #: pages per positioning op (``C``)
    memory_pages: int = 4096  #: sort work memory ``M`` (32 MB of 8 kB pages)
    merge_degree: int = 2  #: merge fan-in ``m``

    @classmethod
    def from_disk(
        cls,
        params: DiskParameters,
        memory_pages: int = 4096,
        merge_degree: int = 2,
    ) -> "CostParameters":
        return cls(
            t_pi=params.t_pi,
            t_tau=params.t_tau,
            prefetch=params.prefetch,
            memory_pages=memory_pages,
            merge_degree=merge_degree,
        )


#: The exact parameter set of Section 4.3 (10 ms / 1 ms / C=16 / 32 MB / m=2).
SECTION_4_PARAMS = CostParameters()

#: The SUN testbed of Section 5 (8 ms positioning, 0.7 ms transfer).
SECTION_5_PARAMS = CostParameters(t_pi=0.008, t_tau=0.0007)


# ----------------------------------------------------------------------
# Section 4.1: the basic access costs
# ----------------------------------------------------------------------


def c_fts(pages: int, params: CostParameters = SECTION_4_PARAMS) -> float:
    """``c_fts = (t_π/C + t_τ) · P`` — full table scan with prefetching."""
    return (params.t_pi / params.prefetch + params.t_tau) * pages


def c_iot(
    pages: int, selectivity_leading: float, params: CostParameters = SECTION_4_PARAMS
) -> float:
    """``c_iot = s_1 · P · (t_π + t_τ)`` — random access per IOT page."""
    return selectivity_leading * pages * (params.t_pi + params.t_tau)


# ----------------------------------------------------------------------
# Section 4.2: external sorting
# ----------------------------------------------------------------------
def result_pages(pages: int, selectivities: Sequence[float]) -> float:
    """``P · Π s_i`` — pages of the restricted data."""
    result = float(pages)
    for selectivity in selectivities:
        result *= selectivity
    return result


def p_sort(
    pages: int,
    selectivities: Sequence[float],
    params: CostParameters = SECTION_4_PARAMS,
) -> float:
    """``P_sort = 2 · (P·Πs_i) · log_m(P·Πs_i / M)`` — merge-sort page traffic.

    Zero when the restricted data fits into work memory (``M > P·Πs_i``):
    "sorting takes place in main memory [and] the merge sort factor is
    reduced to zero".
    """
    data = result_pages(pages, selectivities)
    if data <= params.memory_pages or data <= 0:
        return 0.0
    passes = math.log(data / params.memory_pages, params.merge_degree)
    return 2.0 * data * passes


def c_sort(
    pages: int,
    selectivities: Sequence[float],
    params: CostParameters = SECTION_4_PARAMS,
) -> float:
    """``c_sort = (t_π/C + t_τ) · P_sort`` — sequential run/merge traffic."""
    return (params.t_pi / params.prefetch + params.t_tau) * p_sort(
        pages, selectivities, params
    )


def c_fts_sort(
    pages: int,
    selectivities: Sequence[float],
    params: CostParameters = SECTION_4_PARAMS,
) -> float:
    """Full table scan retrieval plus external merge sort."""
    return c_fts(pages, params) + c_sort(pages, selectivities, params)


def c_iot_sort(
    pages: int,
    selectivities: Sequence[float],
    params: CostParameters = SECTION_4_PARAMS,
    *,
    sort_on_leading: bool = False,
) -> float:
    """IOT retrieval (restricted on ``A_1``) plus external merge sort.

    With ``sort_on_leading`` the IOT already delivers the requested sort
    order and the merge-sort factor is zero (Section 4.2).
    """
    leading = selectivities[0] if selectivities else 1.0
    retrieval = c_iot(pages, leading, params)
    if sort_on_leading:
        return retrieval
    return retrieval + c_sort(pages, selectivities, params)


# ----------------------------------------------------------------------
# Section 4.2: the UB-Tree / Tetris region-count model
# ----------------------------------------------------------------------
def l_splits_lower(dims: int, pages: int) -> int:
    """``l_j↓(d, P) = ⌊⌊log₂P⌋ / d⌋`` — completed split rounds."""
    if pages < 1:
        return 0
    return int(math.log2(pages)) // dims


def l_splits(dims: int, pages: int, dim_index: int) -> int:
    """``l_j(d, P)`` — completed recursive splits in attribute ``j``.

    ``dim_index`` is 1-based like the paper's ``j``.  The remainder
    ``r = ⌊log₂P⌋ mod d`` extra split levels go to the first ``r``
    attributes (see module docstring on the paper's typo).
    """
    if pages < 1:
        return 0
    remainder = int(math.log2(pages)) % dims
    lower = l_splits_lower(dims, pages)
    return lower + 1 if dim_index <= remainder else lower


def p_incomplete(dims: int, pages: int, dim_index: int) -> float:
    """``p_j(d, P)`` — probability of an incomplete split in ``A_j``."""
    if pages < 1:
        return 0.0
    remainder = int(math.log2(pages)) % dims
    if dim_index != remainder + 1:
        return 0.0
    return pages / (1 << int(math.log2(pages))) - 1.0


def n_intervals(y: float, z: float, splits: int) -> float:
    """``n(y_j, z_j, l_j)`` — grid cells of ``2^l`` intersected by ``[y, z]``."""
    if not 0.0 <= y <= z <= 1.0:
        raise ValueError(f"normalized range [{y}, {z}] invalid")
    cells = 1 << splits
    if z == 1.0 and y != 1.0:
        return cells - math.ceil(y * cells)
    return math.floor(z * cells) - math.ceil(y * cells) + 1


def n_regions_dim(
    dims: int, pages: int, y: float, z: float, dim_index: int
) -> float:
    """``n_j(d, P, y_j, z_j)`` — Z-regions hit by the restriction on ``A_j``."""
    splits = l_splits(dims, pages, dim_index)
    base = n_intervals(y, z, splits)
    finer = n_intervals(y, z, splits + 1)
    return base + (finer - base) * p_incomplete(dims, pages, dim_index)


def tetris_regions(pages: int, ranges: Sequence[Range]) -> float:
    """``Π_j n_j`` — total Z-regions the Tetris algorithm retrieves."""
    dims = len(ranges)
    product = 1.0
    for position, (y, z) in enumerate(ranges):
        product *= n_regions_dim(dims, pages, y, z, position + 1)
    return product


def c_tetris(
    pages: int,
    ranges: Sequence[Range],
    params: CostParameters = SECTION_4_PARAMS,
) -> float:
    """``c_tetris = (t_π + t_τ) · Π_j n_j`` — one random access per region."""
    return (params.t_pi + params.t_tau) * tetris_regions(pages, ranges)


# ----------------------------------------------------------------------
# Section 4.4: intermediate storage and pipelining
# ----------------------------------------------------------------------
def merge_sort_temp_pages(pages: int, selectivities: Sequence[float]) -> float:
    """Temporary storage of FTS-/IOT-sort: ``P · Π s_i`` pages."""
    return result_pages(pages, selectivities)


def tetris_cache_pages(
    pages: int, ranges: Sequence[Range], sort_dim: int
) -> float:
    """``cache_tetris = Π_{i≠j} n_i`` — one slice's worth of regions."""
    dims = len(ranges)
    product = 1.0
    for position, (y, z) in enumerate(ranges):
        if position == sort_dim:
            continue
        product *= n_regions_dim(dims, pages, y, z, position + 1)
    return product


def tetris_first_response(
    pages: int,
    ranges: Sequence[Range],
    sort_dim: int,
    params: CostParameters = SECTION_4_PARAMS,
) -> float:
    """Time until the first slice is complete: ``cache · (t_π + t_τ)``."""
    return (params.t_pi + params.t_tau) * tetris_cache_pages(
        pages, ranges, sort_dim
    )
