"""The Tetris algorithm (Section 3): sorted reading without external sort.

Given a UB-Tree-organized relation, a query space ``Q`` and a sort
attribute ``A_j``, the algorithm delivers the qualifying tuples in sort
order of ``A_j`` while

* reading only the Z-region pages that overlap ``Q``,
* reading each such page **exactly once** (one random access each), and
* caching only the tuples of the currently open *slice* — the sub-linear
  Tetris cache of Section 4.4.

Two interchangeable strategies are provided:

``eager`` (default)
    Enumerate the overlapping regions (index-only), key each by
    ``min T_j over (region ∩ Q)`` — a static quantity because Z-regions
    are disjoint — and read them in the order of the sorted schedule.

``sweep``
    The paper's event-point formulation (Figure 3-7), kept as the
    literal reference implementation.  The retrieved space ``Φ`` is
    maintained as a set of merged Z-intervals; the next event point
    ``min { T_j(x) | x ∈ Q, x ∉ Φ }`` is advanced with the generic
    BIGMIN primitive, skipping already-retrieved Z-intervals by
    decomposing their complement into aligned boxes.

Because the region partitioning is disjoint, the event point always lies
in the unread region with the smallest static key, so both strategies
provably retrieve pages in the same order and emit the same stream; the
test suite asserts this equivalence property.  The two differ only in
CPU: the sweep recomputes event points against ``Φ`` and its cost grows
with the number of region/slice crossings, which is why the eager
formulation is the default (real UB-Tree implementations organize the
sweep per slice for the same reason).
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Any, Iterator, Sequence

# module import (not ``from ..kernels import get_backend``): kernels and
# core import each other, so the attribute must resolve at call time
from .. import invariants, kernels
from .curves import Curve
from .intervals import IntervalSet
from .query_space import QuerySpace, box_is_empty
from .region import RegionCursor, ScheduledRegion, ZRegion
from .ubtree import UBTree

SortedTuple = tuple[tuple[int, ...], Any]
#: one completed slice: the tetris-curve keys it was ordered by and its
#: tuples, two parallel lists
Slice = tuple[list[int], list[SortedTuple]]

_MISSING = object()  # sentinel distinguishing "not cached" from "cached None"

#: a Z-region record ``(z_address, (point, payload))`` to the tuple it holds
_payload_of = itemgetter(1)


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
    slices: int = 0  #: flush batches — completed processing ranges
    max_cache_tuples: int = 0  #: peak size of the Tetris cache
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
    strategy:
        ``"eager"`` (static region keys, sorted; the default) or
        ``"sweep"`` (event points, the paper's literal loop).
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
        strategy: str = "eager",
        pushdown: "QuerySpace | None" = None,
    ) -> None:
        if strategy not in ("sweep", "eager"):
            raise ValueError(f"unknown strategy {strategy!r}")
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
        self.strategy = strategy
        self.stats = TetrisStats()

        self.tetris_curve: Curve = ubtree.space.tetris(sort_dims)

        box = space.bounding_box()
        if box is None:
            box = ubtree.space.universe_box()
        self._box = box
        self._page_reads: list[int] = []  # page access order, for tests
        #: the region schedule, shared by iteration and every projection
        #: (read-ahead windows), so none disturbs the retrieval order
        self.cursor = RegionCursor(
            ubtree.tree,
            self._eager_schedule if strategy == "eager" else self._sweep_regions,
        )
        # sweep-strategy memos: next event beyond a covered interval, and
        # the box decomposition of an interval's complement (see
        # _skip_interval for the monotonicity argument)
        self._skip_cache: dict[tuple[int, int], int | None] = {}
        self._complement_boxes: dict[
            tuple[int, int], list[tuple[tuple[int, ...], tuple[int, ...]]]
        ] = {}

    @property
    def page_access_order(self) -> list[int]:
        """Page ids in retrieval order (used by equivalence tests)."""
        return self._page_reads

    def upcoming_regions(self, count: int) -> list[ZRegion]:
        """The projected next ``count`` Z-regions in retrieval order.

        Index-only (no data-page I/O): the schedule is computed from
        separator keys and BIGMIN alone, which is what makes sweep-ahead
        prefetching possible.  Valid before and during iteration; the
        projection shrinks as the sweep consumes regions and is empty
        once the scan is exhausted.
        """
        cursor = self.cursor
        cursor.upcoming_page_ids(0)  # takes the schedule, or re-takes a stale one
        ahead = islice(cursor.entries, cursor.position, cursor.position + count)
        return [ZRegion(first, last, page_id) for first, last, page_id, _ in ahead]

    def slices(self) -> Iterator[Slice]:
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
        """
        return self._run(self.cursor)

    def __iter__(self) -> Iterator[SortedTuple]:
        for _, rows in self.slices():
            yield from rows

    # ------------------------------------------------------------------
    # shared driver: read regions in Tetris order, cache, flush slices
    # ------------------------------------------------------------------
    def _run(self, cursor: RegionCursor) -> Iterator[Slice]:
        disk = self.ubtree.tree.buffer.disk
        curve = self.tetris_curve
        space = self.effective_space
        stats = self.stats
        kernel = kernels.get_backend()
        stats.start_clock = disk.clock
        # the Tetris cache as DPG-style run formation: each page
        # contributes one already-sorted run in the backend's native
        # representation, and the buffer consolidates them with
        # hierarchical merges only when a slice actually completes —
        # pages that merely widen the open slice cost O(page) work, and
        # the NumPy buffer never round-trips entries through Python.
        run_buffer = kernel.make_run_buffer()
        #: (point, payload) of every qualifying tuple, by arrival order
        arrivals: list[SortedTuple] = []
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
            keys, orders = run_buffer.cut(barrier)
            rows = list(map(arrivals.__getitem__, orders))
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
        with closing(walk):
            for (_, _, page_id, barrier), page in walk:
                stats.regions_read += 1
                self._page_reads.append(page_id)

                # the whole page in one kernel call: filter the points
                # against the query space, key the survivors on the Tetris
                # curve, and sort the batch — arrival order breaks key ties
                # exactly like the per-tuple heap pushes used to
                base = len(arrivals)
                count, selected, run = kernel.scan_page_run(curve, space, page, base)
                if stream_checker is not None:
                    invariants.check_page_run(
                        kernel, curve, space, page, base, (count, selected, run)
                    )
                if count:
                    arrivals.extend(
                        map(_payload_of, map(page.records.__getitem__, selected))
                    )
                    run_buffer.push(run)
                if len(run_buffer) > stats.max_cache_tuples:
                    stats.max_cache_tuples = len(run_buffer)

                # everything below the next event point can never be beaten by
                # a tuple from an unread region: the slice is complete.  The
                # sorted-run heads witness whether anything flushes at all.
                if not run_buffer.has_key_below(barrier):
                    continue
                completed = cut(barrier)
                stats.end_clock = disk.clock
                yield completed
                stats.slices += 1

        # no regions at all, or a conservative final barrier
        completed = cut(None)
        if completed[1]:
            yield completed
        stats.end_clock = disk.clock

    # ------------------------------------------------------------------
    # eager strategy: static keys, the sorted schedule
    # ------------------------------------------------------------------
    def _eager_schedule(
        self, read: IntervalSet, resume: "int | None"
    ) -> list[ScheduledRegion]:
        # which regions the walk visits, which the local restriction and
        # the pushed-down cover prune (the tests are exact for the cover,
        # so every page it skips truly holds no joinable tuple), and each
        # survivor's static key — ``min T_j over (region ∩ bounding
        # box)``, static because Z-regions are disjoint — all come from
        # one batched schedule over the tree's region directory.  Regions
        # only split, so one is inside Φ iff its first address is.  The
        # counters describe the latest schedule taken; no region left to
        # read keys below ``resume``, the last barrier handed out.
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

    # ------------------------------------------------------------------
    # sweep strategy: the paper's event-point loop
    # ------------------------------------------------------------------
    def _sweep_regions(
        self, read: IntervalSet, resume: "int | None"
    ) -> Iterator[ScheduledRegion]:
        # a re-schedule seeds Φ with the regions read and resumes at the
        # last barrier handed out: everything below it was read or pruned
        if box_is_empty(self._box):
            return
        lo, hi = self._box
        curve = self.tetris_curve
        z_space = self.ubtree.space
        phi = read
        # the next-event memo holds only while events increase
        self._skip_cache.clear()

        event = resume if read else curve.next_in_box(0, lo, hi)
        while event is not None:
            point = curve.decode(event)
            z_address = z_space.z_address(point)
            covered = phi.containing(z_address)
            if covered is None:
                region, _ = self.ubtree.region_for(z_address, charge=False)
                self.stats.regions_examined += 1
                phi.add(region.first, region.last)
                covered = (region.first, region.last)
                in_space, in_cover = region.classify(
                    z_space.z, self.space, self.pushdown
                )
                if in_cover:
                    next_event = self._skip_interval(event, covered)
                    yield region.first, region.last, region.page_id, next_event
                    event = next_event
                    continue
                if in_space:
                    self.stats.pages_skipped_by_pushdown += 1
                else:
                    self.stats.regions_skipped += 1
            event = self._skip_interval(event, covered)

    def _skip_interval(self, event: int, interval: tuple[int, int]) -> int | None:
        """Smallest Tetris address ``> event`` in the box but outside
        the covered Z-interval.

        The complement of the interval decomposes into aligned boxes;
        BIGMIN over each (intersected with the query bounding box) yields
        candidates, and the minimum wins.  O(total_bits²) bit operations,
        no I/O — the paper's "inexpensive bit operations".

        The result may still lie inside *another* already-retrieved
        interval; the sweep loop then skips again.  As an emission
        barrier it is therefore a lower bound on the true next event
        point, which only delays flushing, never corrupts order.

        Two memos keep the whole sweep near-linear in the region count:

        * the complement decomposition of an interval is cached, and
        * so is the computed next event.  Events only increase, so a
          cached answer ``c`` computed at some earlier event ``t0 <= t``
          with ``c > t`` is still the minimum beyond ``t`` — nothing of
          the complement lies in ``(t0, t]``.  When ``Φ`` merges the
          interval into a larger one, its key changes and the stale
          entries are simply never consulted again.
        """
        cached = self._skip_cache.get(interval, _MISSING)
        if cached is not _MISSING and (cached is None or cached > event):
            return cached

        curve = self.tetris_curve
        decomposition = self._complement_boxes.get(interval)
        if decomposition is None:
            decomposition = self._decompose_complement(interval)
            self._complement_boxes[interval] = decomposition
        ceilings, entries, suffix_min_floor = decomposition

        # boxes whose entire Tetris range lies below the event can never
        # supply a candidate: start at the first box with ceiling >= event
        start = bisect_left(ceilings, event)
        best: int | None = None
        for position in range(start, len(entries)):
            floor, clamped_lo, clamped_hi = entries[position]
            if best is not None and best <= suffix_min_floor[position]:
                break
            if best is not None and best <= floor:
                continue
            candidate = curve.next_in_box(event, clamped_lo, clamped_hi)
            if candidate is not None and (best is None or candidate < best):
                best = candidate
        self._skip_cache[interval] = best
        return best

    def _decompose_complement(self, interval: tuple[int, int]):
        """Aligned boxes of the interval's complement, clamped to the
        query bounding box, sorted by their *maximal* Tetris address.

        Returns ``(ceilings, entries, suffix_min_floor)`` where
        ``entries[i] = (floor_i, lo_i, hi_i)`` and ``suffix_min_floor[i]``
        is the smallest floor among ``entries[i:]`` — the early-exit
        bound for the candidate scan.
        """
        lo, hi = self._box
        curve = self.tetris_curve
        z_curve = self.ubtree.space.z
        first, last = interval
        pieces: list[tuple[int, int]] = []
        if first > 0:
            pieces.append((0, first - 1))
        if last < z_curve.address_max:
            pieces.append((last + 1, z_curve.address_max))
        raw: list[tuple[int, int, tuple[int, ...], tuple[int, ...]]] = []
        for piece_first, piece_last in pieces:
            for box_lo, box_hi in z_curve.interval_boxes(piece_first, piece_last):
                clamped_lo = tuple(max(a, b) for a, b in zip(box_lo, lo))
                clamped_hi = tuple(min(a, b) for a, b in zip(box_hi, hi))
                if any(a > b for a, b in zip(clamped_lo, clamped_hi)):
                    continue
                raw.append(
                    (
                        curve.encode_unchecked(clamped_hi),
                        curve.encode_unchecked(clamped_lo),
                        clamped_lo,
                        clamped_hi,
                    )
                )
        raw.sort(key=lambda entry: entry[0])
        ceilings = [entry[0] for entry in raw]
        entries = [(floor, lo_c, hi_c) for _, floor, lo_c, hi_c in raw]
        suffix_min_floor: list[int] = [0] * len(entries)
        running = None
        for position in range(len(entries) - 1, -1, -1):
            floor = entries[position][0]
            running = floor if running is None else min(running, floor)
            suffix_min_floor[position] = running
        return ceilings, entries, suffix_min_floor


def tetris_sorted(
    ubtree: UBTree,
    space: QuerySpace,
    sort_dim: "int | Sequence[int]",
    *,
    strategy: str = "eager",
    pushdown: "QuerySpace | None" = None,
) -> TetrisScan:
    """Convenience constructor for a :class:`TetrisScan`.

    ``sort_dim`` is the index of the sort attribute ``A_j`` — or a
    sequence of indexes for a composite (multi-column) sort order,
    lexicographic in the listed attributes with Z-order of the remaining
    ones as tiebreak (see :meth:`~repro.core.zorder.ZSpace.tetris`).
    """
    return TetrisScan(ubtree, space, sort_dim, strategy=strategy, pushdown=pushdown)
