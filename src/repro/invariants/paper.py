"""The paper's own guarantees about a Tetris scan, as runtime invariants.

Section 3 promises more than a sorted stream: every overlapping page is
read *exactly once*, the cache stays sub-linear, the first tuple leaves
after one slice.  This module holds the ones the engine asserts while it
runs; the first is the one a read-ahead bug breaks before anything else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import check

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..storage.prefetch import SweepPrefetcher


class FetchOnceChecker:
    """Each data page reaches one Tetris scan through at most one fetch.

    The sweep reports every page right *before* it demands it.  A page
    demanded twice breaks the guarantee outright (Z-regions are
    disjoint, so the schedule never repeats one).  So does a page that
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
        """The sweep is about to demand ``page_id`` through ``window``."""
        check(
            page_id not in self._demanded,
            f"Tetris scan demanded page {page_id} twice",
        )
        self._demanded.add(page_id)
        if window is not None and page_id in window.outstanding:
            check(
                page_id in window.pool,
                f"page {page_id} was prefetched for this Tetris scan, lost "
                "its frame before the sweep reached it and is being fetched "
                "a second time",
            )
