"""Pure-Python kernel backend: the always-available fallback.

Tuple-at-a-time loops over the same byte-chunked lookup tables the
scalar :class:`~repro.core.curves.Curve` API uses.  This is the
reference semantics the NumPy backend must reproduce bit-for-bit; it is
also what runs when NumPy is not installed (the package keeps the
standard library as its only hard dependency).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice
from operator import itemgetter
from typing import Any, Sequence, TYPE_CHECKING

from ..core.query_space import (
    ComparisonSpace,
    IntersectionSpace,
    IntervalUnionSpace,
    QueryBox,
    QuerySpace,
)
from .base import KernelBackend, ScheduledRegion, SortRunBuffer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.curves import Curve
    from ..core.region import RegionDirectory, ZRegion

_entry_key = itemgetter(0)


class PureSortRunBuffer(SortRunBuffer):
    """Reference run buffer: list runs, timsort consolidation.

    ``_cache`` is one consolidated key-sorted run of ``[key, row]``
    entries and ``_pending`` the per-page sorted runs that arrived since
    the last cut.  Consolidation extends and re-sorts by key — timsort
    detects the pre-sorted runs and performs exactly the galloping
    hierarchical merge DPG prescribes, at C speed, and its stability
    keeps equal keys in push order, which is arrival order.  This is the
    semantics the NumPy buffer must reproduce bit for bit.
    """

    def __init__(self) -> None:
        self._cache: list[list[Any]] = []
        self._pending: list[list[list[Any]]] = []
        self._pending_count = 0
        #: the least buffered key (the least run head), ``None`` when empty
        self._least: "int | None" = None

    def push(self, run: Any) -> None:
        if run:
            self._pending.append(run)
            self._pending_count += len(run)
            head = run[0][0]
            if self._least is None or head < self._least:
                self._least = head

    def __len__(self) -> int:
        return len(self._cache) + self._pending_count

    def has_key_below(self, barrier: "int | None") -> bool:
        least = self._least
        return least is not None and (barrier is None or least < barrier)

    def cut(self, barrier: "int | None") -> "tuple[list[int], list[Any]]":
        if self._pending:
            for batch in self._pending:
                self._cache.extend(batch)
            self._cache.sort(key=_entry_key)
            self._pending.clear()
            self._pending_count = 0
        cache = self._cache
        cut = (
            len(cache)
            if barrier is None
            else bisect_left(cache, barrier, key=_entry_key)
        )
        head = cache[:cut]
        del cache[:cut]
        self._least = cache[0][0] if cache else None
        return [key for key, _ in head], [row for _, row in head]


class PurePythonBackend(KernelBackend):
    """Batch primitives implemented as plain Python loops."""

    name = "python"

    def encode_batch(
        self, curve: "Curve", points: Sequence[Sequence[int]]
    ) -> list[int]:
        encode = curve.encode_unchecked
        return [encode(point) for point in points]

    def decode_batch(
        self, curve: "Curve", addresses: Sequence[int]
    ) -> list[tuple[int, ...]]:
        decode = curve.decode
        return [decode(address) for address in addresses]

    def filter_box_batch(
        self,
        lo: Sequence[int],
        hi: Sequence[int],
        points: Sequence[Sequence[int]],
    ) -> list[int]:
        return [
            index
            for index, point in enumerate(points)
            if all(l <= x <= h for x, l, h in zip(point, lo, hi))
        ]

    def filter_space_batch(
        self, space: QuerySpace, points: Sequence[Sequence[int]]
    ) -> list[int]:
        # QueryBox is by far the most common space; inlining its bounds
        # avoids a method call per tuple.
        if isinstance(space, QueryBox):
            return self.filter_box_batch(space.lo, space.hi, points)
        if isinstance(space, ComparisonSpace):
            cmp = space._cmp
            left, right = space.left_dim, space.right_dim
            return [
                index
                for index, point in enumerate(points)
                if cmp(point[left], point[right])
            ]
        if isinstance(space, IntervalUnionSpace):
            starts, ends, dim = space.starts, space.ends, space.dim
            chosen: list[int] = []
            for index, point in enumerate(points):
                value = point[dim]
                slot = bisect_right(starts, value) - 1
                if slot >= 0 and value <= ends[slot]:
                    chosen.append(index)
            return chosen
        if isinstance(space, IntersectionSpace):
            selected = range(len(points))
            for part in space.parts:
                if not selected:
                    break
                kept = self.filter_space_batch(part, [points[i] for i in selected])
                selected = [selected[i] for i in kept]
            return list(selected)
        contains = space.contains_point
        return [index for index, point in enumerate(points) if contains(point)]

    def filter_space_page(self, space: QuerySpace, page: Any) -> list[int]:
        points = [record[1][0] for record in page.records]
        return self.filter_space_batch(space, points)

    def sum_products(
        self, page: Any, selection: Sequence[int], positions: tuple[int, ...]
    ) -> "int | None":
        records = page.records
        total = 0
        for index in selection:
            row = records[index][1][1]
            product = 1
            for position in positions:
                value = row[position]
                if type(value) is not int:
                    return None
                product *= value
            total += product
        return total

    def argsort_keys(self, keys: Sequence[Any]) -> list[int]:
        return sorted(range(len(keys)), key=keys.__getitem__)

    # ------------------------------------------------------------------
    # page kernels — the reference composition of the primitives above
    # (see the interface docstrings in ``base``)
    # ------------------------------------------------------------------
    def scan_page_run(
        self, curve: "Curve", space: QuerySpace, page: Any
    ) -> tuple[int, Any]:
        records = page.records
        points = [record[1][0] for record in records]
        selected = self.filter_space_batch(space, points)
        if not selected:
            return 0, []
        keys = self.encode_batch(curve, [points[index] for index in selected])
        # the pure-native run *is* the [key, (point, payload)] entry list,
        # stably sorted by key: ties keep record order
        run = [
            [keys[rank], records[selected[rank]][1]]
            for rank in self.argsort_keys(keys)
        ]
        return len(selected), run

    #: the name ``benchmarks/harness/layers.py`` still wraps; no engine or
    #: check code calls it
    scan_page = scan_page_run

    def make_run_buffer(self) -> SortRunBuffer:
        return PureSortRunBuffer()

    def scan_block(
        self, curve: "Curve", space: QuerySpace, pages: Sequence[Any]
    ) -> list[Any]:
        entries: list[list[Any]] = []
        # the list run even where a NumPy backend hands its block here
        run_of = PurePythonBackend.scan_page_run
        for page in pages:
            entries.extend(run_of(self, curve, space, page)[1])
        # the pages come in arrival order and each run keeps record order
        # on ties: one stable sort by key is the whole-slab slice order
        entries.sort(key=_entry_key)
        return [row for _, row in entries]

    def merge_sorted_keys(
        self, keys_a: Sequence[Any], keys_b: Sequence[Any]
    ) -> list[int]:
        # timsort over two pre-sorted runs is one galloping merge; its
        # stability gives keys_a the tie win, like a stable full sort
        concatenated = list(keys_a) + list(keys_b)
        return sorted(range(len(concatenated)), key=concatenated.__getitem__)

    def sort_key_column(self, keys: Sequence[Any]) -> tuple[list[int], Any]:
        order = self.argsort_keys(keys)
        return order, list(map(keys.__getitem__, order))

    def merge_key_columns(
        self, columns: Sequence[Any], more: Sequence[bool]
    ) -> "tuple[int | None, list[int], list[int], Any]":
        stop: "int | None" = None
        bound: Any = None
        for index, (column, pending) in enumerate(zip(columns, more)):
            if pending and len(column):
                last = column[-1]
                if stop is None or last < bound:
                    stop, bound = index, last
        taken = [len(column) for column in columns]
        for index, column in enumerate(columns):
            if stop is None or index == stop:
                continue
            # runs below ``stop`` take the keys tied with its last one
            ties = index < stop
            taken[index] = (bisect_right if ties else bisect_left)(column, bound)
        keys = list(chain.from_iterable(map(islice, columns, taken)))
        order = self.argsort_keys(keys)
        return stop, taken, order, list(map(keys.__getitem__, order))

    def concat_key_columns(self, columns: Sequence[Any]) -> Any:
        return list(chain.from_iterable(columns))

    def list_key_column(self, column: Any) -> list[Any]:
        return list(column)

    def region_min_keys(
        self,
        z_curve: "Curve",
        sort_curve: "Curve",
        intervals: Sequence[tuple[int, int]],
        lo: Sequence[int],
        hi: Sequence[int],
    ) -> "list[int | None]":
        """``min sort_curve-address over (interval ∩ [lo, hi])`` per interval.

        Each interval is a Z-address range ``(first, last)`` on
        ``z_curve`` (a Z-region); the result entry is ``None`` when the
        interval's geometry is disjoint from the box.  This is the static
        region keying of the Tetris scan's schedule, by its definition: every
        interval decomposes into aligned boxes, each box is clamped to
        ``[lo, hi]``, and the minimum ``sort_curve`` address of a
        surviving box is attained at its low corner (monotonicity).  It
        is :meth:`schedule_regions`'s reference keying step and its
        checker's yardstick; the NumPy backend keys a whole scan in its
        own ``schedule_regions`` and inherits this for wider curves.
        """
        # per-interval corner collection is shared; encoding is batched
        corners: list[Sequence[int]] = []
        counts: list[int] = []
        for first, last in intervals:
            filled = len(corners)
            for box_lo, box_hi in z_curve.interval_boxes(first, last):
                clamped_lo = tuple(max(a, b) for a, b in zip(box_lo, lo))
                clamped_hi = tuple(min(a, b) for a, b in zip(box_hi, hi))
                if any(a > b for a, b in zip(clamped_lo, clamped_hi)):
                    continue
                corners.append(clamped_lo)
            counts.append(len(corners) - filled)
        keys = self.encode_batch(sort_curve, corners)
        result: "list[int | None]" = []
        position = 0
        for count in counts:
            block = keys[position : position + count]
            position += count
            result.append(min(block) if block else None)
        return result

    def schedule_regions(
        self,
        directory: "RegionDirectory",
        start: int,
        lo: Sequence[int],
        hi: Sequence[int],
        space: QuerySpace,
        pushdown: "QuerySpace | None" = None,
        sort_curve: "Curve | None" = None,
    ) -> "list[ScheduledRegion]":
        # the scalar walk itself, with a bisection over the directory
        # where the tree walk has a descent: the reference semantics
        curve = directory.curve
        lasts = directory.lasts
        walk: "list[tuple[int, ZRegion, bool, bool]]" = []
        z: "int | None" = start
        while z is not None:
            region = directory.region(bisect_left(lasts, z))
            walk.append((z, region, *region.classify(curve, space, pushdown)))
            z = curve.next_in_box(region.last + 1, lo, hi)
        keys: "list[int | None]" = [None] * len(walk)
        if sort_curve is not None:
            keyed = [index for index, step in enumerate(walk) if step[3]]
            intervals = [(walk[i][1].first, walk[i][1].last) for i in keyed]
            for index, key in zip(
                keyed, self.region_min_keys(curve, sort_curve, intervals, lo, hi)
            ):
                keys[index] = key
        return [
            (probe, region.first, region.last, region.page_id, in_space, in_cover, key)
            for (probe, region, in_space, in_cover), key in zip(walk, keys)
        ]
