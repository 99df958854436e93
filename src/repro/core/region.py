"""Z-regions: the unit of the UB-Tree's space partitioning.

A Z-region ``[α : β]`` is the part of the universe covered by an interval
on the Z-curve (Section 3.3).  Each Z-region maps onto exactly one disk
page.  Regions are recovered from the separator keys of the underlying
B+-tree, so this class is a value object; the tree remains the source of
truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from .intervals import IntervalSet
from .query_space import QueryBox, QuerySpace, box_meets

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..storage.prefetch import SweepPrefetcher
    from .curves import Curve


@dataclass(frozen=True)
class ZRegion:
    """An address interval ``[first, last]`` stored on page ``page_id``."""

    first: int
    last: int
    page_id: int

    def __post_init__(self) -> None:
        if self.first > self.last:
            raise ValueError(f"inverted Z-region [{self.first}:{self.last}]")

    def contains(self, z_address: int) -> bool:
        return self.first <= z_address <= self.last

    def classify(
        self, curve: "Curve", space: QuerySpace, pushdown: "QuerySpace | None"
    ) -> tuple[bool, bool]:
        """``(in_space, in_cover)`` for a region that meets ``space``'s
        bounding box — the two pruning verdicts of a restricted scan.

        ``in_space``: the local restriction wants this page (a plain box
        is its own bounding box, so the test is skipped).  ``in_cover``:
        it does, and a pushed-down join-key cover — if any — does not
        rule the page out either.  A region meets a space iff one of the
        aligned boxes its Z-interval decomposes into does (:func:`box_meets`).
        """
        first, last = self.first, self.last
        in_space = isinstance(space, QueryBox) or any(
            box_meets(space, lo, hi) for lo, hi in curve.interval_boxes(first, last)
        )
        in_cover = in_space and (
            pushdown is None
            or any(
                box_meets(pushdown, lo, hi)
                for lo, hi in curve.interval_boxes(first, last)
            )
        )
        return in_space, in_cover

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZRegion[{self.first}:{self.last}]@page{self.page_id}"


class RegionDirectory:
    """Every Z-region of a UB-Tree at one structure epoch, as columns.

    The paper's sweep assumes the index levels are cached and picks the
    next region with bit operations alone; this is that assumption made
    explicit: ``firsts[i] .. lasts[i]`` on ``page_ids[i]``, in Z-order,
    tiling the whole address space.  It holds what depends on the tree
    and not on a query, so one snapshot serves every scan until the
    tree's ``structure_epoch`` moves; batch kernels may memoize derived
    geometry (the aligned-block boxes of every region) against the
    instance.  A restricted scan takes its regions from here and reads
    no index page; it trusts an entry while the tree's epoch is the
    snapshot's, and under ``REPRO_CHECKS=1`` holds each one to a
    ``disk.peek`` descent of the tree, which stays the source of truth.
    """

    __slots__ = ("curve", "firsts", "lasts", "page_ids", "epoch", "__weakref__")

    def __init__(
        self,
        curve: "Curve",
        lasts: Sequence[int],
        page_ids: Sequence[int],
        epoch: int,
    ) -> None:
        self.curve = curve
        self.lasts = list(lasts)
        self.firsts = [0] + [last + 1 for last in self.lasts[:-1]]
        self.page_ids = list(page_ids)
        self.epoch = epoch

    def __len__(self) -> int:
        return len(self.lasts)

    def region(self, index: int) -> ZRegion:
        return ZRegion(self.firsts[index], self.lasts[index], self.page_ids[index])


#: one scheduled region: ``(first, last, page_id, barrier)``, the barrier
#: being the emission bound that holds once the region is read
ScheduledRegion = tuple[int, int, int, "int | None"]


class RegionCursor:
    """A restricted scan's region schedule: columns and a ``position``.

    ``entries`` holds ``(first, last, page_id, barrier)`` in retrieval
    order and ``page_ids`` the ids alone, so a read-ahead window is the
    slice ``page_ids[position:position + k]``; the entries before
    ``position`` are the scan's read set Φ.  ``schedule(read)`` lists
    the regions to read, none inside ``read``.  Every pull and peek
    compares the tree's ``structure_epoch`` with the schedule's; on a
    move the rest — lookahead included — is scheduled again minus Φ,
    so a row present when the scan starts comes out exactly once and a
    row inserted during it at most once (``docs/ALGORITHM.md`` §3).
    ``window`` is a read-ahead window a join coordinator lent the scan,
    which the scan's page walk borrows instead of opening its own.
    """

    __slots__ = (
        "tree", "entries", "page_ids", "position", "epoch", "window", "_schedule"
    )

    def __init__(
        self,
        tree: Any,
        schedule: "Callable[[IntervalSet], Iterable[ScheduledRegion]]",
    ) -> None:
        self.tree = tree  #: anything with a ``structure_epoch``
        self.entries: list[ScheduledRegion] = []
        self.page_ids: list[int] = []
        self.position = 0
        self.epoch: int | None = None  #: the tree's, when last scheduled
        self.window: "SweepPrefetcher | None" = None
        self._schedule = schedule

    def __iter__(self) -> "RegionCursor":
        return self

    def __next__(self) -> ScheduledRegion:
        if self.epoch != self.tree.structure_epoch:
            self._take_schedule()
        position = self.position
        if position == len(self.entries):
            raise StopIteration
        self.position = position + 1
        return self.entries[position]

    def upcoming_page_ids(self, count: int) -> list[int]:
        """The next ``count`` page ids (fewer near the end), not consumed:
        a slice of the column."""
        if self.epoch != self.tree.structure_epoch:
            self._take_schedule()
        return self.page_ids[self.position : self.position + count]

    def _take_schedule(self) -> None:
        position, entries = self.position, self.entries
        read = IntervalSet()
        for first, last, _, _ in islice(entries, position):
            read.add(first, last)
        del entries[position:], self.page_ids[position:]
        self.epoch = self.tree.structure_epoch
        entries.extend(self._schedule(read))
        self.page_ids.extend(entry[2] for entry in islice(entries, position, None))
