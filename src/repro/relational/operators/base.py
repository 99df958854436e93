"""Volcano-style operators: composable iterators over rows.

Operators are plain Python iterables — ``next()`` is the paper's
pipelined "continuous flow of operation".  Because all I/O flows through
the simulated disk, wrapping a plan in :class:`FirstTupleTimer` measures
the time-to-first-result that Sections 4.4 and 5.1 highlight.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator

from ...storage.disk import SimulatedDisk

Row = tuple


class Operator:
    """Base class; a subclass implements one of the two methods.

    ``batches()`` yields the output in the operator's own unit (a UB
    range scan: one list per data page), and ``__iter__`` is derived
    from it.  A row-at-a-time operator implements ``__iter__`` instead,
    and its unit is one row.
    """

    def batches(self) -> Iterator[list[Row]]:
        return ([row] for row in self)

    def __iter__(self) -> Iterator[Row]:
        for batch in self.batches():
            yield from batch


def batches_of(source: Iterable[Row]) -> Iterator[list[Row]]:
    """``source`` in its own unit: an operator's batches, a list as one
    batch, anything else one row at a time."""
    if isinstance(source, Operator):
        return source.batches()
    if isinstance(source, list):
        return iter([source] if source else [])
    return ([row] for row in source)


class FirstTupleTimer(Operator):
    """Wraps a plan and records simulated clocks around its consumption."""

    def __init__(self, child: Iterable[Row], disk: SimulatedDisk) -> None:
        self.child = child
        self.disk = disk
        self.start_clock: float | None = None
        self.first_clock: float | None = None
        self.end_clock: float | None = None
        self.row_count = 0

    def __iter__(self) -> Iterator[Row]:
        self.start_clock = self.disk.clock
        for row in self.child:
            if self.first_clock is None:
                self.first_clock = self.disk.clock
            self.row_count += 1
            yield row
        self.end_clock = self.disk.clock

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

    def __iter__(self) -> Iterator[Row]:
        # islice pulls nothing past the last row wanted, which could
        # cost a page read
        return islice(self.child, self.count)


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
