"""Join operators: sort-merge, hash, and the merge semi-join of Q4.

The paper assumes sort-merge joins fed by sorted streams ("we assume a
sort merge-join", Section 5.1); the Tetris operator produces those
streams directly from restricted base tables.  A hash join is provided
for completeness and for plans where sort order is not exploited.

All three operators are telemetry-instrumented: when the output stream
drains *naturally* they emit exactly one
:class:`~repro.telemetry.JoinEvent` carrying the leg's row count, the
pages its inputs skipped through box-cover pushdown, and (when a
``disk`` is provided to observe) the simulated start/first-tuple/end
clocks.  An abandoned iteration emits nothing — observers may treat
every event as final.  The merge joins additionally accept a
``prefetch`` coordinator (a
:class:`~repro.storage.prefetch.DualCursorPrefetcher`) which hears,
before every pull, the side the merge cursor demands next, so
read-ahead follows the join's actual access pattern instead of each
side's solo sweep.  The call is a constant-time check unless a sweep
consumed a region or the pool fetched a page since the coordinator last
reconciled its windows — the join pays per Z-region, not per row.  The
coordinator is always closed when iteration ends, naturally or not.
"""

from __future__ import annotations

from itertools import groupby
from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from ... import telemetry
from ...telemetry import JoinEvent
from .base import Operator, Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...storage.disk import SimulatedDisk
    from ...storage.prefetch import DualCursorPrefetcher


def _pushdown_pages_skipped(*inputs: Any) -> int:
    """Pages the inputs' scans skipped via box-cover pushdown.

    Duck-typed over anything exposing ``.stats.pages_skipped_by_pushdown``
    (``TetrisOperator``/``TetrisScan``); plain iterables contribute zero.
    Read at drain time, after both inputs are fully consumed.
    """
    total = 0
    for source in inputs:
        stats = getattr(source, "stats", None)
        total += getattr(stats, "pages_skipped_by_pushdown", 0)
    return total


def _advised(
    rows: Iterable[Row], prefetch: "DualCursorPrefetcher", side: int
) -> Iterator[Row]:
    """Yield ``rows``, telling the coordinator which side each pull demands."""
    iterator = iter(rows)
    while True:
        prefetch.advise(side)
        try:
            row = next(iterator)
        except StopIteration:
            return
        yield row


class _InstrumentedJoin(Operator):
    """Shared telemetry/prefetch driver around a concrete merge loop.

    Subclasses implement :meth:`_join` over :meth:`_side`-wrapped inputs;
    this driver measures the leg and emits its :class:`JoinEvent` only
    when the loop ends on its own — the emit sits *after* the
    ``try``/``finally``, so early ``close()`` or an error skips it while
    the prefetch coordinator is still always released.
    """

    kind = "join"

    def __init__(
        self,
        *,
        disk: "SimulatedDisk | None" = None,
        prefetch: "DualCursorPrefetcher | None" = None,
        shard: int | None = None,
    ) -> None:
        self.disk = disk
        self.prefetch = prefetch
        self.shard = shard
        self.last_event: JoinEvent | None = None

    def _join(self) -> Iterator[Row]:
        raise NotImplementedError

    def _inputs(self) -> tuple[Any, ...]:
        raise NotImplementedError

    def _side(self, rows: Iterable[Row], side: int) -> Iterable[Row]:
        if self.prefetch is None:
            return rows
        return _advised(rows, self.prefetch, side)

    def __iter__(self) -> Iterator[Row]:
        disk = self.disk
        start = disk.clock if disk is not None else None
        first: float | None = None
        rows = 0
        try:
            for row in self._join():
                if rows == 0 and disk is not None:
                    first = disk.clock
                rows += 1
                yield row
        finally:
            if self.prefetch is not None:
                self.prefetch.close()
        event = JoinEvent(
            operator=self.kind,
            rows=rows,
            pages_skipped_by_pushdown=_pushdown_pages_skipped(*self._inputs()),
            start_clock=start,
            first_tuple_clock=first,
            end_clock=disk.clock if disk is not None else None,
            shard=self.shard,
        )
        self.last_event = event
        telemetry.emit(event)


class MergeJoin(_InstrumentedJoin):
    """Inner equi-join of two streams sorted ascending on the join key.

    Duplicate keys are supported on both sides (the right group is
    buffered, as in any textbook implementation).  ``combine`` builds an
    output row from a matching pair; the default concatenates.
    """

    kind = "merge-join"

    def __init__(
        self,
        left: Iterable[Row],
        right: Iterable[Row],
        left_key: Callable[[Row], Any],
        right_key: Callable[[Row], Any],
        combine: Callable[[Row, Row], Row] | None = None,
        *,
        disk: "SimulatedDisk | None" = None,
        prefetch: "DualCursorPrefetcher | None" = None,
        shard: int | None = None,
    ) -> None:
        super().__init__(disk=disk, prefetch=prefetch, shard=shard)
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.combine = combine or (lambda a, b: tuple(a) + tuple(b))

    def _inputs(self) -> tuple[Any, ...]:
        return (self.left, self.right)

    def _join(self) -> Iterator[Row]:
        left_groups = groupby(self._side(self.left, 0), key=self.left_key)
        right_groups = groupby(self._side(self.right, 1), key=self.right_key)
        left_entry = next(left_groups, None)
        right_entry = next(right_groups, None)
        while left_entry is not None and right_entry is not None:
            left_key, left_rows = left_entry
            right_key, right_rows = right_entry
            if left_key < right_key:
                left_entry = next(left_groups, None)
            elif left_key > right_key:
                right_entry = next(right_groups, None)
            else:
                buffered_right = list(right_rows)
                for left_row in left_rows:
                    for right_row in buffered_right:
                        yield self.combine(left_row, right_row)
                left_entry = next(left_groups, None)
                right_entry = next(right_groups, None)


class MergeSemiJoin(_InstrumentedJoin):
    """Emit left rows whose key exists in the sorted right stream.

    This is the EXISTS evaluation of Q4 (Figure 5-8): ORDER is processed
    in ORDERKEY order and semi-joined against LINEITEM in the same order,
    so neither side is materialized.
    """

    kind = "merge-semi-join"

    def __init__(
        self,
        left: Iterable[Row],
        right: Iterable[Row],
        left_key: Callable[[Row], Any],
        right_key: Callable[[Row], Any],
        *,
        disk: "SimulatedDisk | None" = None,
        prefetch: "DualCursorPrefetcher | None" = None,
        shard: int | None = None,
    ) -> None:
        super().__init__(disk=disk, prefetch=prefetch, shard=shard)
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key

    def _inputs(self) -> tuple[Any, ...]:
        return (self.left, self.right)

    def _join(self) -> Iterator[Row]:
        right_iter = iter(self._side(self.right, 1))
        right_row = next(right_iter, None)
        for left_row in self._side(self.left, 0):
            key = self.left_key(left_row)
            while right_row is not None and self.right_key(right_row) < key:
                right_row = next(right_iter, None)
            if right_row is None:
                return
            if self.right_key(right_row) == key:
                yield left_row


class HashJoin(_InstrumentedJoin):
    """Inner equi-join building a hash table on the (smaller) left input."""

    kind = "hash-join"

    def __init__(
        self,
        build: Iterable[Row],
        probe: Iterable[Row],
        build_key: Callable[[Row], Any],
        probe_key: Callable[[Row], Any],
        combine: Callable[[Row, Row], Row] | None = None,
        *,
        disk: "SimulatedDisk | None" = None,
        shard: int | None = None,
    ) -> None:
        super().__init__(disk=disk, shard=shard)
        self.build = build
        self.probe = probe
        self.build_key = build_key
        self.probe_key = probe_key
        self.combine = combine or (lambda a, b: tuple(a) + tuple(b))

    def _inputs(self) -> tuple[Any, ...]:
        return (self.build, self.probe)

    def _join(self) -> Iterator[Row]:
        table: dict[Any, list[Row]] = {}
        for row in self.build:
            table.setdefault(self.build_key(row), []).append(row)
        for probe_row in self.probe:
            for build_row in table.get(self.probe_key(probe_row), ()):
                yield self.combine(build_row, probe_row)
