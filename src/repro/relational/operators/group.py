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
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from ... import invariants
from .base import Operator, Row, batches_of, fold_batches

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...kernels.base import KernelBackend
    from ...storage.page import Page


class ColumnProduct:
    """A summand that names its columns: the product of a row's values
    at ``positions``.  Callable on a row like any summand; a page of a
    UB range scan sums it through :meth:`KernelBackend.sum_products`
    without building the rows."""

    __slots__ = ("positions",)

    def __init__(self, position: int, *positions: int) -> None:
        self.positions = (position, *positions)

    def __call__(self, row: Row) -> Any:
        positions = self.positions
        product = row[positions[0]]
        for position in positions[1:]:
            product *= row[position]
        return product


class Aggregate:
    """One aggregate column: a fold over a group, a list of rows at a
    time, starting from zero."""

    #: whether :meth:`fold_page` can fold a UB range scan's page
    folds_pages = False

    def fold(self, acc: Any, rows: list[Row]) -> Any:
        raise NotImplementedError

    def fold_page(
        self, acc: Any, page: Page, selection: list[int], kernel: KernelBackend
    ) -> Any:
        """:meth:`fold` of the selected records' payloads of a Z-region
        page, equal to folding those rows left to right."""
        raise NotImplementedError


class Sum(Aggregate):
    def __init__(self, extract: Callable[[Row], Any]) -> None:
        self.extract = extract
        self.folds_pages = isinstance(extract, ColumnProduct)

    def fold(self, acc: Any, rows: list[Row]) -> Any:
        # strictly left to right, as row at a time: builtin sum()
        # compensates float additions on Python >= 3.12
        return reduce(add, map(self.extract, rows), acc)

    def fold_page(
        self, acc: Any, page: Page, selection: list[int], kernel: KernelBackend
    ) -> Any:
        # an exact integer sum adds to an int total in any order; a float
        # total or a value that is not an int folds the rows left to right
        if type(acc) is int:
            positions = self.extract.positions
            total = kernel.sum_products(page, selection, positions)
            if invariants.enabled():
                invariants.check_page_fold(kernel, page, selection, positions, total)
            if total is not None:
                return acc + total
        records = page.records
        return self.fold(acc, [records[index][1][1] for index in selection])


class Count(Aggregate):
    folds_pages = True

    def fold(self, acc: int, rows: list[Row]) -> int:
        return acc + len(rows)

    def fold_page(
        self, acc: int, page: Page, selection: list[int], kernel: KernelBackend
    ) -> int:
        return acc + len(selection)


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
        child, aggregates = self.child, self.aggregates
        if isinstance(child, Operator):
            totals = child.fold(aggregates)
        else:
            totals = fold_batches(batches_of(child), aggregates)
        yield [tuple(totals)]
