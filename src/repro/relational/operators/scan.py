"""Access-path operators: FTS, IOT scan, UB-Tree range scan, Tetris.

These correspond one-to-one to the access methods the paper compares:
full table scan (prefetch-friendly sequential reads), index-organized
table scan (random access per leaf, sorted by the composite key), the
UB-Tree range query (Q6) and the Tetris operator ``τ_{σ,ω}`` combining
selection and sorting (Figures 5-3/5-4).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence

from ... import kernels
from ...core.query_space import QuerySpace
from ...core.tetris import TetrisScan, TetrisStats
from ..table import HeapTable, IOTTable, UBTable
from ...storage.page import Page
from .base import Operator, Row
from .group import Aggregate

#: a sorted tuple ``(point, payload)`` to its row
_payload = itemgetter(1)


class FullTableScan(Operator):
    """Sequential scan of a heap table, one batch per page with a
    survivor."""

    def __init__(
        self, table: HeapTable, predicate: Callable[[Row], bool] | None = None
    ) -> None:
        self.table = table
        self.predicate = predicate

    def batches(self) -> Iterator[list[Row]]:
        pages = self.table.scan()
        predicate = self.predicate
        if predicate is None:
            yield from pages
            return
        for rows in pages:
            kept = list(filter(predicate, rows))
            if kept:
                yield kept


class IOTScan(Operator):
    """Clustered-index scan, optionally restricted on the leading key,
    one batch per leaf with a survivor."""

    def __init__(
        self,
        table: IOTTable,
        leading_lo: Any = None,
        leading_hi: Any = None,
        predicate: Callable[[Row], bool] | None = None,
    ) -> None:
        self.table = table
        self.leading_lo = leading_lo
        self.leading_hi = leading_hi
        self.predicate = predicate

    def batches(self) -> Iterator[list[Row]]:
        leaves = self.table.scan_leading(self.leading_lo, self.leading_hi)
        predicate = self.predicate
        if predicate is None:
            yield from leaves
            return
        for rows in leaves:
            kept = list(filter(predicate, rows))
            if kept:
                yield kept


class UBRangeScan(Operator):
    """Multi-attribute range restriction via the UB-Tree (Q6 style)."""

    def __init__(
        self,
        table: UBTable,
        space: QuerySpace | dict[str, tuple[Any, Any]] | None,
        predicate: Callable[[Row], bool] | None = None,
    ) -> None:
        self.table = table
        self.space = space
        self.predicate = predicate

    def batches(self) -> Iterator[list[Row]]:
        """One list per data page that has a survivor, in Z-order."""
        pages = self.table.range_query(self.space)
        predicate = self.predicate
        if predicate is None:
            yield from pages
            return
        for rows in pages:
            kept = [row for row in rows if predicate(row)]
            if kept:
                yield kept

    def fold(self, aggregates: Sequence[Aggregate]) -> list[Any]:
        """Without a residual predicate, and when every aggregate can
        (``Count``, a ``Sum`` of a ``ColumnProduct``), each page is folded
        where the range query filters it, its rows never built; else the
        batches are."""
        if self.predicate is not None or not all(
            agg.folds_pages for agg in aggregates
        ):
            return super().fold(aggregates)
        kernel = kernels.get_backend()
        totals = [0] * len(aggregates)

        def fold_page(page: Page, selection: list[int]) -> None:
            for position, agg in enumerate(aggregates):
                totals[position] = agg.fold_page(
                    totals[position], page, selection, kernel
                )

        table = self.table
        for _ in table.ubtree.range_query(table.query_space(self.space), fold_page):
            pass
        return totals


class TetrisOperator(Operator):
    """``τ_{σ,ω}``: combined restriction + sort on a UB table.

    One batch per slice of the sweep with a survivor.  After (or
    during) consumption, ``stats`` exposes the sweep's instrumentation —
    regions read, cache peak, slices, first-output time — which the
    Section 5 tables report.
    """

    def __init__(
        self,
        table: UBTable,
        space: QuerySpace | dict[str, tuple[Any, Any]] | None,
        sort_attr: str,
        *,
        predicate: Callable[[Row], bool] | None = None,
        pushdown: QuerySpace | None = None,
    ) -> None:
        self.table = table
        self.scan: TetrisScan = table.tetris_scan(space, sort_attr, pushdown=pushdown)
        self.predicate = predicate

    @property
    def stats(self) -> TetrisStats:
        return self.scan.stats

    def batches(self) -> Iterator[list[Row]]:
        predicate = self.predicate
        for _, pairs in self.scan.slices():
            rows = map(_payload, pairs)
            kept = list(rows if predicate is None else filter(predicate, rows))
            if kept:
                yield kept
