"""Grouping and aggregation over sorted streams (``γ``).

When the input arrives sorted by the grouping key — which the Tetris
operator guarantees — grouping is a pipelined, constant-memory pass.
Aggregate specs are tiny accumulator objects so that plans read like
the SQL they implement.
"""

from __future__ import annotations

from functools import reduce
from itertools import groupby
from operator import add
from typing import Any, Callable, Iterable, Iterator

from .base import Operator, Row, batches_of


class Aggregate:
    """One aggregate column: a fold over a group, a list of rows at a
    time, starting from zero."""

    def fold(self, acc: Any, rows: list[Row]) -> Any:
        raise NotImplementedError


class Sum(Aggregate):
    def __init__(self, extract: Callable[[Row], Any]) -> None:
        self.extract = extract

    def fold(self, acc: Any, rows: list[Row]) -> Any:
        # strictly left to right, as row at a time: builtin sum()
        # compensates float additions on Python >= 3.12
        return reduce(add, map(self.extract, rows), acc)


class Count(Aggregate):
    def fold(self, acc: int, rows: list[Row]) -> int:
        return acc + len(rows)


class SortedGroupBy(Operator):
    """Group a key-sorted stream, emitting ``(key..., aggregates...)`` rows.

    ``key`` extracts the grouping key (a tuple); output rows concatenate
    the key with the aggregate results in declaration order.
    """

    def __init__(
        self,
        child: Iterable[Row],
        key: Callable[[Row], tuple],
        aggregates: list[Aggregate],
    ) -> None:
        self.child = child
        self.key = key
        self.aggregates = aggregates

    def batches(self) -> Iterator[list[Row]]:
        """One list per input batch: the groups it closed.  The rows of
        the group open at a batch's end wait for the next batch; the last
        group goes out alone once the input is used up."""
        open_key: Any = None
        open_rows: list[Row] = []
        for rows in batches_of(self.child):
            closed: list[Row] = []
            for group_key, group in groupby(rows, key=self.key):
                if not open_rows or open_key != group_key:
                    if open_rows:
                        closed.append(self._output(open_key, open_rows))
                    open_key, open_rows = group_key, []
                open_rows.extend(group)
            if closed:
                yield closed
        if open_rows:
            yield [self._output(open_key, open_rows)]

    def _output(self, group_key: tuple, rows: list[Row]) -> Row:
        return tuple(group_key) + tuple(agg.fold(0, rows) for agg in self.aggregates)


class ScalarAggregate(Operator):
    """Aggregate the entire input to a single row (Q6's ``SUM``), one
    of the child's batches at a time; the row is its one batch."""

    def __init__(self, child: Iterable[Row], aggregates: list[Aggregate]) -> None:
        self.child = child
        self.aggregates = aggregates

    def batches(self) -> Iterator[list[Row]]:
        accumulators = [0] * len(self.aggregates)
        for rows in batches_of(self.child):
            for position, agg in enumerate(self.aggregates):
                accumulators[position] = agg.fold(accumulators[position], rows)
        yield [tuple(accumulators)]
