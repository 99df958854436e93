"""The Tetris algorithm (Section 3): sorted reading without external sort.

Given a UB-Tree-organized relation, a query space ``Q`` and a sort
attribute ``A_j``, the algorithm delivers the qualifying tuples in sort
order of ``A_j`` while

* reading only the Z-region pages that overlap ``Q``,
* reading each such page **exactly once** (one random access each), and
* caching only the tuples of the currently open *slice* — the sub-linear
  Tetris cache of Section 4.4.

The paper's sweep (Figure 3-7) finds each next event point
``min { T_j(x) | x ∈ Q, x ∉ Φ }`` with BIGMIN.  Z-regions are disjoint,
so that point always lies in the unread region with the smallest static
key ``min T_j over (region ∩ Q)``: the scan enumerates the overlapping
regions (index-only), keys each one and reads them in the order of the
sorted schedule, which is the page order of the event-point loop.  The
tests keep that loop as the order oracle (``event_point_order`` in
``tests/oracles.py``) and hold every scan's page order to it.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterator, Sequence

# module import (not ``from ..kernels import get_backend``): kernels and
# core import each other, so the attribute must resolve at call time
from .. import invariants, kernels
from ..storage.errors import StorageError
from .curves import Curve
from .intervals import IntervalSet
from .query_space import QuerySpace
from .region import RegionCursor, ScheduledRegion
from .ubtree import UBTree

SortedTuple = tuple[tuple[int, ...], Any]
#: one completed slice: the tetris-curve keys it was ordered by and its
#: tuples, two parallel lists
Slice = tuple[list[int], list[SortedTuple]]


@dataclass
class TetrisStats:
    """Instrumentation of one Tetris run (Tables 5-1 and 5-2 metrics)."""

    regions_examined: int = 0  #: regions the schedule examined
    regions_read: int = 0  #: data pages actually fetched (random accesses)
    regions_skipped: int = 0  #: pruned by non-rectangular geometry
    #: pruned *only* because of a pushed-down join-key cover — pages the
    #: local restriction would have read but no join match can live on
    pages_skipped_by_pushdown: int = 0
    #: rows of the slices handed out, whoever consumed them
    tuples_output: int = 0
    #: cuts handed out, each counted once the consumer asks for the next:
    #: one per completed slice by default, while one cut of a held sweep
    #: (:meth:`TetrisScan.slices`) spans many of the paper's slices
    slices: int = 0
    #: peak count of tuples the run buffer held — the Tetris cache by
    #: default, about the whole result on a held sweep, which keeps
    #: everything after its first slice
    max_cache_tuples: int = 0
    first_output_clock: float | None = None  #: simulated time of first tuple
    start_clock: float = 0.0
    end_clock: float = 0.0  #: simulated time the last slice was completed

    @property
    def elapsed(self) -> float:
        return self.end_clock - self.start_clock

    @property
    def time_to_first(self) -> float | None:
        if self.first_output_clock is None:
            return None
        return self.first_output_clock - self.start_clock

    def cache_pages(self, page_capacity: int) -> int:
        """Peak cache expressed in pages (how the paper reports it)."""
        return -(-self.max_cache_tuples // page_capacity)


class TetrisScan:
    """Iterator over ``(point, payload)`` pairs in ``A_j`` sort order.

    Consume it like any iterator — or slice by slice, with the sort keys
    alongside, through :meth:`slices`; ``stats`` fills in as the sweep
    progresses and is final once iteration ends.

    Parameters
    ----------
    ubtree:
        The multidimensionally organized relation.
    space:
        Restrictions — a :class:`QueryBox` or any composite
        :class:`QuerySpace` (e.g. including the triangular
        ``COMMITDATE < RECEIPTDATE`` half-space of Q4).
    sort_dim:
        Index of the sort attribute ``A_j`` — or a sequence of indexes
        for a composite (multi-column) sort order, lexicographic in the
        listed attributes.
    pushdown:
        An optional extra restriction pushed down from the *other* side
        of a join — typically the
        :class:`~repro.core.query_space.IntervalUnionSpace` built by
        :func:`repro.planner.pushdown.pushdown_space` over the already
        evaluated side's qualifying join keys.  It is conjoined with
        ``space`` for tuple filtering, and regions that pass the local
        restriction but miss the pushdown are skipped without I/O,
        counted separately in ``stats.pages_skipped_by_pushdown``.
    """

    def __init__(
        self,
        ubtree: UBTree,
        space: QuerySpace,
        sort_dim: "int | Sequence[int]",
        *,
        pushdown: "QuerySpace | None" = None,
    ) -> None:
        sort_dims = (sort_dim,) if isinstance(sort_dim, int) else tuple(sort_dim)
        if not sort_dims:
            raise ValueError("at least one sort dimension required")
        if len(set(sort_dims)) != len(sort_dims):
            raise ValueError("duplicate sort dimensions")
        for dim in sort_dims:
            if not 0 <= dim < ubtree.space.dims:
                raise ValueError(f"sort dimension {dim} out of range")
        if pushdown is not None and pushdown.dims != ubtree.space.dims:
            raise ValueError(
                f"pushdown space has {pushdown.dims} dims, "
                f"table has {ubtree.space.dims}"
            )
        self.ubtree = ubtree
        self.space = space
        self.pushdown = pushdown
        #: what tuples are actually filtered against: the local
        #: restriction conjoined with any pushed-down join-key cover
        self.effective_space = (
            space if pushdown is None else space.intersect(pushdown)
        )
        self.sort_dims = sort_dims
        self.sort_dim = sort_dims[0]
        self.stats = TetrisStats()

        self.tetris_curve: Curve = ubtree.space.tetris(sort_dims)

        self._page_reads: list[int] = []  # page access order, for tests
        #: the region schedule, shared by iteration and every projection
        #: (read-ahead windows), so none disturbs the retrieval order
        self.cursor = RegionCursor(ubtree.tree, self._eager_schedule)

    @property
    def page_access_order(self) -> list[int]:
        """Page ids in retrieval order (what the tests hold to the
        event-point oracle)."""
        return self._page_reads

    def slices(self, *, held: bool = False) -> Iterator[Slice]:
        """The sweep's output in its own unit: one ``(keys, rows)`` pair
        per completed slice.

        ``rows`` are the slice's ``(point, payload)`` pairs in sort
        order and ``keys`` their addresses on :attr:`tetris_curve` —
        the keys the run buffer ordered them by, ascending within and
        across slices.  Every slice is non-empty.  A slice counts as
        output when it is handed over (``stats.tuples_output``, both
        clocks), whether the consumer then takes all of its rows or
        not; ``stats.slices`` ticks once the consumer asks for the next
        one.

        By default the run buffer is cut at every barrier that has a
        key below it, as the paper flushes its cache at every event
        point.  ``held=True`` is for a consumer that keeps every row:
        the first completed slice is still cut at once, then the buffer
        is cut only at the end of the walk and — before a
        :class:`StorageError` from the page walk propagates — below the
        last barrier passed.  So a consumer that drains the sweep, or
        is stopped by a fault, holds exactly the rows the every-barrier
        sweep had handed it after the same pages; only fewer, larger
        cuts are made.  A consumer that may stop on its own after some
        row count must not hold.
        """
        return self._run(self.cursor, held)

    def __iter__(self) -> Iterator[SortedTuple]:
        for _, rows in self.slices():
            yield from rows

    # ------------------------------------------------------------------
    # shared driver: read regions in Tetris order, cache, flush slices
    # ------------------------------------------------------------------
    def _run(self, cursor: RegionCursor, held: bool) -> Iterator[Slice]:
        disk = self.ubtree.tree.buffer.disk
        curve = self.tetris_curve
        space = self.effective_space
        stats = self.stats
        kernel = kernels.get_backend()
        stats.start_clock = disk.clock
        # the Tetris cache as DPG-style run formation: each page
        # contributes one already-sorted run of keys and rows in the
        # backend's native representation, and the buffer consolidates
        # them only when a slice actually completes — pages that merely
        # widen the open slice cost O(page) work, and the NumPy buffer
        # never round-trips entries through Python.
        run_buffer = kernel.make_run_buffer()
        # with REPRO_CHECKS=1: validate the emitted stream (membership +
        # monotonicity, and every slice key against the paper's T_j) and
        # hold every page's run to the other backend's entry for entry;
        # the page walk holds the sweep to one fetch per page
        stream_checker = (
            invariants.StreamChecker(self.sort_dims, space)
            if invariants.enabled()
            else None
        )
        slice_checker = (
            invariants.SliceChecker(self.ubtree.space, self.sort_dims)
            if invariants.enabled()
            else None
        )

        def cut(barrier: "int | None") -> Slice:
            """Everything below ``barrier``, counted as output."""
            keys, rows = run_buffer.cut(barrier)
            if rows:
                if stats.first_output_clock is None:
                    stats.first_output_clock = disk.clock
                stats.tuples_output += len(rows)
            if slice_checker is not None:
                slice_checker.observe(keys, rows)
            if stream_checker is not None:
                for point, _ in rows:
                    stream_checker.observe(point)
            return keys, rows

        # the page walk reads each scheduled region once, with sweep-ahead
        # prefetching when the pool has a scheduler (or through the window
        # a join coordinator lent the cursor); closing it — at the end, on
        # early termination or on an error here — cancels leftovers
        walk = self.ubtree.walk(cursor, self.space, self.pushdown)
        barrier: "int | None" = None  # the last barrier passed
        with closing(walk):
            try:
                for (_, _, page_id, barrier), page in walk:
                    stats.regions_read += 1
                    self._page_reads.append(page_id)

                    # the whole page in one kernel call: filter the points
                    # against the query space, key the survivors on the Tetris
                    # curve and sort them with their rows — record order breaks
                    # key ties, and the buffer keeps older runs first on ties,
                    # exactly like the per-tuple heap pushes used to
                    count, run = kernel.scan_page_run(curve, space, page)
                    if stream_checker is not None:
                        invariants.check_page_run(
                            kernel, curve, space, page, (count, run)
                        )
                    if count:
                        run_buffer.push(run)
                    if len(run_buffer) > stats.max_cache_tuples:
                        stats.max_cache_tuples = len(run_buffer)

                    # everything below the next event point can never be beaten by
                    # a tuple from an unread region: the slice is complete.  The
                    # sorted-run heads witness whether anything flushes at all.
                    if not run_buffer.has_key_below(barrier):
                        continue
                    # a held sweep cuts again only when the walk ends:
                    # every key a later page adds lies at or above this
                    # barrier and ties go to the older run, so the later
                    # cut is these cuts concatenated
                    if held and barrier is not None and stats.tuples_output:
                        continue
                    completed = cut(barrier)
                    stats.end_clock = disk.clock
                    yield completed
                    stats.slices += 1
            except StorageError:
                # hand a held consumer what the every-barrier sweep had
                # handed it before the fault, then let the fault through
                if held and run_buffer.has_key_below(barrier):
                    completed = cut(barrier)
                    stats.end_clock = disk.clock
                    yield completed
                    stats.slices += 1
                raise

        # no regions at all, or a conservative final barrier
        completed = cut(None)
        if completed[1]:
            yield completed
        stats.end_clock = disk.clock

    # ------------------------------------------------------------------
    # the eager schedule: static keys, sorted
    # ------------------------------------------------------------------
    def _eager_schedule(self, read: IntervalSet) -> list[ScheduledRegion]:
        # which regions the walk visits, which the local restriction and
        # the pushed-down cover prune (the tests are exact for the cover,
        # so every page it skips truly holds no joinable tuple), and each
        # survivor's static key — ``min T_j over (region ∩ bounding
        # box)``, static because Z-regions are disjoint — all come from
        # one batched schedule over the tree's region directory.  Regions
        # only split, so one is inside Φ iff its first address is.  The
        # counters describe the latest schedule taken.
        stats = self.stats
        stats.regions_examined = stats.regions_skipped = 0
        stats.pages_skipped_by_pushdown = 0
        keyed: list[tuple[int, int, int, int]] = []
        fresh = not read
        for region, in_space, _, key in self.ubtree.scheduled_regions(
            self.space, self.pushdown, self.tetris_curve
        ):
            stats.regions_examined += 1
            if key is not None:  # keyed iff the cover (and so the space) wants it
                if fresh or read.containing(region.first) is None:
                    keyed.append((key, region.first, region.last, region.page_id))
            elif in_space:
                stats.pages_skipped_by_pushdown += 1
            else:
                stats.regions_skipped += 1
        keyed.sort()
        barriers = [entry[0] for entry in islice(keyed, 1, None)]
        barriers.append(None)
        return [
            (first, last, page_id, barrier)
            for (_, first, last, page_id), barrier in zip(keyed, barriers)
        ]


def tetris_sorted(
    ubtree: UBTree,
    space: QuerySpace,
    sort_dim: "int | Sequence[int]",
    *,
    pushdown: "QuerySpace | None" = None,
) -> TetrisScan:
    """Convenience constructor for a :class:`TetrisScan`.

    ``sort_dim`` is the index of the sort attribute ``A_j`` — or a
    sequence of indexes for a composite (multi-column) sort order,
    lexicographic in the listed attributes with Z-order of the remaining
    ones as tiebreak (see :meth:`~repro.core.zorder.ZSpace.tetris`).
    """
    return TetrisScan(ubtree, space, sort_dim, pushdown=pushdown)
