"""Volcano-style operators: composable iterators over rows.

Operators are plain Python iterables — ``next()`` is the paper's
pipelined "continuous flow of operation".  Because all I/O flows through
the simulated disk, wrapping a plan in :class:`FirstTupleTimer` measures
the time-to-first-result that Sections 4.4 and 5.1 highlight.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from ...storage.disk import SimulatedDisk

Row = tuple


class Operator:
    """Base class; subclasses implement ``__iter__``."""

    def __iter__(self) -> Iterator[Row]:
        raise NotImplementedError


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


class Select(Operator):
    """Residual predicate filter (``σ``)."""

    def __init__(self, child: Iterable[Row], predicate: Callable[[Row], bool]) -> None:
        self.child = child
        self.predicate = predicate

    def __iter__(self) -> Iterator[Row]:
        return (row for row in self.child if self.predicate(row))


class Project(Operator):
    """Row transformation (``π``); ``fn`` maps a row to an output row."""

    def __init__(self, child: Iterable[Row], fn: Callable[[Row], Row]) -> None:
        self.child = child
        self.fn = fn

    def __iter__(self) -> Iterator[Row]:
        return (self.fn(row) for row in self.child)


class Limit(Operator):
    """Stop after ``count`` rows — interactive first-page semantics."""

    def __init__(self, child: Iterable[Row], count: int) -> None:
        self.child = child
        self.count = count

    def __iter__(self) -> Iterator[Row]:
        for position, row in enumerate(self.child):
            if position >= self.count:
                return
            yield row


class InMemorySort(Operator):
    """Plain in-memory sort for small (final) result sets (``ω``)."""

    def __init__(self, child: Iterable[Row], key: Callable[[Row], Any]) -> None:
        self.child = child
        self.key = key

    def __iter__(self) -> Iterator[Row]:
        return iter(sorted(self.child, key=self.key))
