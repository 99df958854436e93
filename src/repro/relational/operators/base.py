"""Volcano-style operators: composable iterators over batches of rows.

``next()`` on an operator's batches is the paper's pipelined "continuous
flow of operation".  Because all I/O flows through the simulated disk,
wrapping a plan in :class:`FirstTupleTimer` measures the
time-to-first-result that Sections 4.4 and 5.1 highlight.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence

from ...storage.disk import SimulatedDisk

Row = tuple


class Operator:
    """Base class; a subclass implements ``batches()``.

    ``batches()`` yields the output in the operator's own unit (a UB
    range scan: one list per data page), never an empty list, and pulls
    its next input batch exactly where a row-at-a-time loop would have
    pulled that batch's first row.  ``__iter__`` is derived from it.
    """

    def batches(self) -> Iterator[list[Row]]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Row]:
        for batch in self.batches():
            yield from batch

    def fold(self, aggregates: Sequence[Any]) -> list[Any]:
        """Each of ``aggregates`` folded over the whole output, from zero
        (``ScalarAggregate``'s input): a batch at a time, unless the
        operator can fold without building its rows."""
        return fold_batches(self.batches(), aggregates)


def fold_batches(batches: Iterable[list[Row]], aggregates: Sequence[Any]) -> list[Any]:
    """Each aggregate's fold over ``batches``, from zero, left to right."""
    totals = [0] * len(aggregates)
    for rows in batches:
        for position, agg in enumerate(aggregates):
            totals[position] = agg.fold(totals[position], rows)
    return totals


def batches_of(source: Iterable[Row]) -> Iterator[list[Row]]:
    """``source`` in its own unit: an operator's batches, a list as one
    batch, anything else (a row-at-a-time proxy between two operators)
    one row at a time."""
    if isinstance(source, Operator):
        return source.batches()
    if isinstance(source, list):
        return iter([source] if source else [])
    return ([row] for row in source)


class FirstTupleTimer(Operator):
    """Wraps a plan and records simulated clocks around its consumption.

    ``row_count`` counts the rows handed over, a whole batch at a time:
    a consumer that stops inside a batch has been counted to its end.
    """

    def __init__(self, child: Iterable[Row], disk: SimulatedDisk) -> None:
        self.child = child
        self.disk = disk
        self.start_clock: float | None = None
        self.first_clock: float | None = None
        self.end_clock: float | None = None
        self.row_count = 0

    def batches(self) -> Iterator[list[Row]]:
        disk = self.disk
        self.start_clock = disk.clock
        for rows in batches_of(self.child):
            if self.first_clock is None and rows:
                self.first_clock = disk.clock
            self.row_count += len(rows)
            yield rows
        self.end_clock = disk.clock

    @property
    def time_to_first(self) -> float | None:
        if self.first_clock is None or self.start_clock is None:
            return None
        return self.first_clock - self.start_clock

    @property
    def elapsed(self) -> float | None:
        if self.end_clock is None or self.start_clock is None:
            return None
        return self.end_clock - self.start_clock


class Limit(Operator):
    """Stop after ``count`` rows — interactive first-page semantics."""

    def __init__(self, child: Iterable[Row], count: int) -> None:
        self.child = child
        self.count = count

    def batches(self) -> Iterator[list[Row]]:
        # no pull past the batch holding the last row wanted, which
        # could cost a page read
        left = self.count
        if left > 0:
            for rows in batches_of(self.child):
                yield rows[:left]
                left -= len(rows)
                if left <= 0:
                    return


class InMemorySort(Operator):
    """Plain in-memory sort for small (final) result sets (``ω``); the
    sorted list is its one batch."""

    def __init__(self, child: Iterable[Row], key: Callable[[Row], Any]) -> None:
        self.child = child
        self.key = key

    def batches(self) -> Iterator[list[Row]]:
        rows = sorted(chain.from_iterable(batches_of(self.child)), key=self.key)
        if rows:
            yield rows
