"""Join operators: sort-merge, hash, and the merge semi-join of Q4.

The paper assumes sort-merge joins fed by sorted streams ("we assume a
sort merge-join", Section 5.1); the Tetris operator produces those
streams directly from restricted base tables.  A hash join is provided
for completeness and for plans where sort order is not exploited.

Every join takes its inputs a batch at a time (a Tetris slice, a heap
page, a merge step: whatever :func:`~.base.batches_of` hands over) and
yields its output as lists.  Two rules keep each page read and each
clock where a row-at-a-time loop puts them: a join hands over the output
it has built before it pulls from any input, and it pulls a side's next
batch exactly where the row loop would have pulled that batch's first
row — group-end lookahead and the point where a side runs dry included.
Inside a batch the merge joins skip by ``bisect`` on the join key.

All three operators are telemetry-instrumented: when the output stream
drains *naturally* they emit exactly one
:class:`~repro.telemetry.JoinEvent` carrying the leg's row count, the
pages its inputs skipped through box-cover pushdown, and (when a
``disk`` is provided to observe) the simulated start/first-tuple/end
clocks.  An abandoned iteration emits nothing — observers may treat
every event as final.  The merge semi-join additionally accepts a
``prefetch`` coordinator (a
:class:`~repro.storage.prefetch.DualCursorPrefetcher`) which hears the
side the merge cursor demands next wherever a pull can move a read-ahead
window, so read-ahead follows the join's actual access pattern instead
of each side's solo sweep.  The coordinator is always closed when
iteration ends, naturally or not.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from ... import telemetry
from ...telemetry import JoinEvent
from .base import Operator, Row, batches_of

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


def _no_advice(side: int) -> bool:
    """The coordinator call of a semi-join without one: nothing moves."""
    return False


class _Input:
    """A join input read a batch at a time: the batch, its join keys and
    a position in it."""

    __slots__ = ("batches", "key", "rows", "keys", "at")

    def __init__(self, source: Iterable[Row], key: Callable[[Row], Any]) -> None:
        self.batches = filter(None, batches_of(source))
        self.key = key
        self.rows: list[Row] = []
        self.keys: list[Any] = []
        self.at = 0

    def pull(self) -> bool:
        """Take the next batch; ``False`` once the input is used up."""
        rows = next(self.batches, None)
        if rows is None:
            return False
        self.rows, self.keys, self.at = rows, list(map(self.key, rows)), 0
        return True

    def past(self, key: Any) -> bool:
        """Move past this batch's rows keyed at most ``key``; whether a
        row is left in the batch."""
        self.at = bisect_right(self.keys, key, self.at)
        return self.at < len(self.keys)

    def reach(self, key: Any) -> bool:
        """Move to this batch's first row keyed at least ``key``; whether
        there is one."""
        self.at = bisect_left(self.keys, key, self.at)
        return self.at < len(self.keys)


class _InstrumentedJoin(Operator):
    """Shared telemetry wrapper around a concrete join loop.

    Subclasses implement :meth:`_join`, yielding non-empty lists; this
    wrapper measures the leg and emits its :class:`JoinEvent` only when
    the loop ends on its own — the emit sits *after* the
    ``try``/``finally``, so early ``close()`` or an error skips it while
    a prefetch coordinator is still always released.
    """

    kind = "join"
    #: the dual-cursor coordinator, if any (only the semi-join takes one)
    prefetch: "DualCursorPrefetcher | None" = None

    def __init__(
        self,
        *,
        disk: "SimulatedDisk | None" = None,
        shard: int | None = None,
    ) -> None:
        self.disk = disk
        self.shard = shard
        self.last_event: JoinEvent | None = None

    def _join(self) -> Iterator[list[Row]]:
        raise NotImplementedError

    def _inputs(self) -> tuple[Any, ...]:
        raise NotImplementedError

    def batches(self) -> Iterator[list[Row]]:
        disk = self.disk
        start = disk.clock if disk is not None else None
        first: float | None = None
        rows = 0
        try:
            for batch in self._join():
                if rows == 0 and disk is not None:
                    first = disk.clock
                rows += len(batch)
                yield batch
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
    output row from a matching pair; the default concatenates.  Pulls
    follow a row loop that reads each group to its end plus one row
    (``itertools.groupby``'s lookahead), left before right.
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
        shard: int | None = None,
    ) -> None:
        super().__init__(disk=disk, shard=shard)
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.combine = combine or (lambda a, b: tuple(a) + tuple(b))

    def _inputs(self) -> tuple[Any, ...]:
        return (self.left, self.right)

    def _join(self) -> Iterator[list[Row]]:
        combine = self.combine
        left = _Input(self.left, self.left_key)
        right = _Input(self.right, self.right_key)
        out: list[Row] = []
        # both first rows are read, even when the left input is empty
        live = left.pull()
        live = right.pull() and live
        while live:
            left_at = left.keys[left.at]
            right_at = right.keys[right.at]
            if left_at != right_at:
                # read past every group keyed below the other side's key
                side, key = (
                    (left, right_at) if left_at < right_at else (right, left_at)
                )
                while not side.reach(key):
                    if out:
                        yield out
                        out = []
                    if not side.pull():
                        live = False
                        break
                continue
            matches: list[Row] = []
            while True:
                begin = right.at
                ended = right.past(right_at)
                matches += right.rows[begin : right.at]
                if ended:
                    break
                if out:
                    yield out
                    out = []
                if not right.pull():
                    live = False
                    break
            # the left group is read to its end even when the right ran dry
            while True:
                begin = left.at
                ended = left.past(left_at)
                out += [
                    combine(row, match)
                    for row in left.rows[begin : left.at]
                    for match in matches
                ]
                if ended:
                    break
                if out:
                    yield out
                    out = []
                if not left.pull():
                    live = False
                    break
        if out:
            yield out


class MergeSemiJoin(_InstrumentedJoin):
    """Emit left rows whose key exists in the sorted right stream.

    This is the EXISTS evaluation of Q4 (Figure 5-8): ORDER is processed
    in ORDERKEY order and semi-joined against LINEITEM in the same order,
    so neither side is materialized.  Pulls follow a row loop that reads
    the first right row, then per left row the right rows keyed below it.

    With a ``prefetch`` coordinator the join replays that loop's advice
    exactly.  It advises before every batch pull; after one it is
    *unsettled* and advises before each following in-batch row step, with
    the side the row loop would pull next, until a call finds nothing to
    reconcile.  From then on until the next batch pull every call would
    be a no-op — the coordinator's stamp moves only when a sweep consumes
    a region or a pool fetches a page, and both happen only inside a
    batch pull — so the join skips to the next batch edge by ``bisect``.
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
        super().__init__(disk=disk, shard=shard)
        self.prefetch = prefetch
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key

    def _inputs(self) -> tuple[Any, ...]:
        return (self.left, self.right)

    def _join(self) -> Iterator[list[Row]]:
        # looked up when the join starts: a caller may shadow it on the
        # coordinator instance
        advise = _no_advice if self.prefetch is None else self.prefetch.advise
        # ``left.at`` is the next left row to pull, ``right.at`` the
        # right row the cursor stands on
        left = _Input(self.left, self.left_key)
        right = _Input(self.right, self.right_key)
        out: list[Row] = []
        advise(1)
        if not right.pull():
            # the row loop still reads one left row before it stops
            advise(0)
            left.pull()
            return
        unsettled = True
        while True:
            if left.at == len(left.rows):
                if out:
                    yield out
                    out = []
                advise(0)
                if not left.pull():
                    return
                unsettled = True
            elif unsettled:
                unsettled = advise(0)
            if not unsettled:
                # every left row keyed at most the right batch's last key
                # is decided inside this right batch
                keys = right.keys
                at = right.at
                end = bisect_right(left.keys, keys[-1], left.at)
                for position in range(left.at, end):
                    key = left.keys[position]
                    at = bisect_left(keys, key, at)
                    if keys[at] == key:
                        out.append(left.rows[position])
                left.at, right.at = end, at
                if end == len(left.rows):
                    continue
            key = left.keys[left.at]
            left.at += 1
            while right.keys[right.at] < key:
                if unsettled:
                    right.at += 1
                    if right.at < len(right.keys):
                        unsettled = advise(1)
                        continue
                elif right.reach(key):
                    break
                if out:
                    yield out
                    out = []
                advise(1)
                if not right.pull():
                    return
                unsettled = True
            if right.keys[right.at] == key:
                out.append(left.rows[left.at - 1])


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

    def _join(self) -> Iterator[list[Row]]:
        table: dict[Any, list[Row]] = {}
        build_key = self.build_key
        for rows in batches_of(self.build):
            for row in rows:
                table.setdefault(build_key(row), []).append(row)
        probe_key, combine = self.probe_key, self.combine
        for rows in batches_of(self.probe):
            out = [
                combine(build_row, probe_row)
                for probe_row in rows
                for build_row in table.get(probe_key(probe_row), ())
            ]
            if out:
                yield out
