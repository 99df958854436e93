"""ASCII visualizations of Z-region partitionings and Tetris sweeps.

Figure 3-6 of the paper shows a visualization tool's rendering of the
sweep — "the processing order of the regions reminds us of the Tetris
computer game".  This module reproduces that view in plain text for 2-D
spaces: each cell of the universe is labelled with the index of the
Z-region covering it, and a sweep snapshot marks retrieved regions.
"""

from __future__ import annotations

from typing import Sequence

from ..core.query_space import QueryBox
from ..core.ubtree import UBTree

_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_partitioning(ubtree: UBTree, *, max_cells: int = 64) -> str:
    """The Z-region id of every universe cell, dimension 0 horizontal.

    Only practical for small 2-D spaces (tests, examples, docs); raises
    for anything wider than ``max_cells`` per side.
    """
    space = ubtree.space
    if space.dims != 2:
        raise ValueError("rendering supports two-dimensional spaces only")
    width = space.coord_max[0] + 1
    height = space.coord_max[1] + 1
    if width > max_cells or height > max_cells:
        raise ValueError(f"universe {width}x{height} too large to render")

    regions = list(ubtree.regions())
    lines = []
    for y in range(height - 1, -1, -1):  # origin at the bottom-left
        row = []
        for x in range(width):
            address = space.z_address((x, y))
            index = _region_index(regions, address)
            row.append(_GLYPHS[index % len(_GLYPHS)])
        lines.append("".join(row))
    return "\n".join(lines)


def render_sweep(
    ubtree: UBTree,
    box: QueryBox,
    retrieved_pages: Sequence[int],
    *,
    max_cells: int = 64,
) -> str:
    """Snapshot of a sweep: ``#`` retrieved, ``·`` pending in-box, `` `` outside."""
    space = ubtree.space
    if space.dims != 2:
        raise ValueError("rendering supports two-dimensional spaces only")
    width = space.coord_max[0] + 1
    height = space.coord_max[1] + 1
    if width > max_cells or height > max_cells:
        raise ValueError(f"universe {width}x{height} too large to render")

    regions = list(ubtree.regions())
    retrieved = set(retrieved_pages)
    lines = []
    for y in range(height - 1, -1, -1):
        row = []
        for x in range(width):
            if not box.contains_point((x, y)):
                row.append(" ")
                continue
            address = space.z_address((x, y))
            region = regions[_region_index(regions, address)]
            row.append("#" if region.page_id in retrieved else "·")
        lines.append("".join(row))
    return "\n".join(lines)


def _region_index(regions, address: int) -> int:
    lo, hi = 0, len(regions) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if regions[mid].last < address:
            lo = mid + 1
        else:
            hi = mid
    return lo
