"""The paper's own guarantees about a Tetris scan, as runtime invariants.

Section 3 promises more than a sorted stream: every overlapping page is
read *exactly once*, the cache stays sub-linear, the first tuple leaves
after one slice.  This module holds the ones the engine asserts while it
runs: at most one fetch per page (the one a read-ahead bug breaks before
anything else) and, at a scan's end, at least one read per owed region.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import check
from .parity import tree_region

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.query_space import QuerySpace
    from ..core.ubtree import UBTree
    from ..storage.prefetch import SweepPrefetcher


class FetchOnceChecker:
    """Each data page reaches one restricted scan through at most one fetch.

    The scan's page walk reports every page right *before* it demands
    it.  A page demanded twice breaks the guarantee outright (Z-regions
    are disjoint, so the schedule never repeats one).  So does a page that
    sits in the scan's read-ahead window — an async read was issued on
    the scan's behalf and not consumed yet — but is no longer resident:
    that transfer was thrown away (the pending frame was evicted or
    dropped) and the demand read about to happen is the page's second.
    A submission that is still resident is claimed, not re-read, so the
    claim counts as the one fetch.
    """

    __slots__ = ("_demanded",)

    def __init__(self) -> None:
        self._demanded: set[int] = set()

    def observe(self, page_id: int, window: "SweepPrefetcher | None") -> None:
        """The scan is about to demand ``page_id`` through ``window``."""
        check(
            page_id not in self._demanded,
            f"restricted scan demanded page {page_id} twice",
        )
        self._demanded.add(page_id)
        if window is not None and page_id in window.outstanding:
            check(
                page_id in window.pool,
                f"page {page_id} was prefetched for this scan, lost its frame "
                "before the scan reached it and is being fetched a second "
                "time",
            )


class CoverageChecker:
    """Every region a restricted scan owes is read at least once.

    The scan reports each page right before it reads it, with its
    region's first address; the checker records the interval the page
    covers in the tree *now*, so a stale schedule claims no more than it
    read.  At a natural end every region of the tree as it is then that
    meets the box and is wanted (``ZRegion.classify``) must lie inside
    one of them.  Like ``ScheduleChecker`` it walks the tree with
    ``disk.peek`` descents and ``next_in_box``.
    """

    def __init__(
        self,
        ubtree: "UBTree",
        space: "QuerySpace",
        pushdown: "QuerySpace | None" = None,
    ) -> None:
        from ..core.intervals import IntervalSet

        self._ubtree, self._space, self._pushdown = ubtree, space, pushdown
        self._read = IntervalSet()

    def observe(self, first: int, page_id: int) -> None:
        """The scan reads ``page_id`` for the region starting at ``first``."""
        region = tree_region(self._ubtree, first)
        if (region.first, region.page_id) == (first, page_id):
            self._read.add(region.first, region.last)

    def finish(self) -> None:
        """The scan ran to its end: nothing it owes may be unread."""
        curve, space = self._ubtree.space.z, self._space
        lo, hi = space.bounding_box() or self._ubtree.space.universe_box()
        z_address = None if any(a > b for a, b in zip(lo, hi)) else curve.encode(lo)
        while z_address is not None:
            region = tree_region(self._ubtree, z_address)
            covered = self._read.containing(region.first)
            check(
                not region.classify(curve, space, self._pushdown)[1]
                or (covered is not None and covered[1] >= region.last),
                f"restricted scan ended without reading {region!r}, which "
                "meets its box and holds rows it owes",
            )
            z_address = curve.next_in_box(region.last + 1, lo, hi)
