"""Physical table instances and operator plans for Q3, Q4 and Q6.

The paper compares access methods by creating several physical
*instances* of the same logical relation (Section 5.1: "we created four
instances of LINEITEM").  The builders below do the same on the
simulated disk; plan functions assemble operator trees per access
method, mirroring Figures 5-2/5-3 (Q3), 5-7/5-8 (Q4) and Section 5.3
(Q6).

Rows are loaded in a deterministic shuffle — the arrival order of a
table grown over time — so that IOT leaves are physically scattered and
index scans pay random accesses, exactly the regime of the paper's cost
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from ..core.query_space import IntersectionSpace, QuerySpace
from ..invariants import require_instance
from ..planner.executor import AccessPath, build_access_path, comparison_residual
from ..planner.pushdown import DEFAULT_COVER_BUDGET, KeyCover, pushdown_space
from ..storage.disk import SimulatedDisk
from ..storage.prefetch import DualCursorPrefetcher
from ..relational.operators import (
    Count,
    HashJoin,
    InMemorySort,
    MergeJoin,
    MergeSemiJoin,
    Operator,
    ScalarAggregate,
    SortedGroupBy,
    Sum,
    TetrisOperator,
)
from ..relational.table import Database, HeapTable, IOTTable, UBTable
from ..relational.rowsize import page_capacity_for
from .datagen import TPCDData, shuffled
from .queries import (
    C_CUSTKEY,
    L_ORDERKEY,
    O_CUSTKEY,
    O_ORDERDATE,
    O_ORDERKEY,
    O_ORDERPRIORITY,
    O_SHIPPRIORITY,
    Q3Params,
    Q4Params,
    Q6Params,
    Restrictions,
    revenue_numerator,
    discounted_numerator,
)

#: Extra stored bytes per row for TPC-D columns the reproduction does not
#: materialize as attributes (comments, clerk, ship instructions, ...).
#: Calibrated so the page geometry matches the paper: ~80 LINEITEM rows
#: per 8 kB page (Section 5.3), ~215 B/ORDER row (322 MB at SF 1 → ~38
#: rows/page) and ~180 B/CUSTOMER row.
LINEITEM_EXTRA_BYTES = 78
ORDER_EXTRA_BYTES = 197
CUSTOMER_EXTRA_BYTES = 157


def lineitem_page_capacity(data: TPCDData) -> int:
    return page_capacity_for(
        data.lineitem_schema, extra_payload_bytes=LINEITEM_EXTRA_BYTES
    )


def order_page_capacity(data: TPCDData) -> int:
    return page_capacity_for(data.order_schema, extra_payload_bytes=ORDER_EXTRA_BYTES)


def customer_page_capacity(data: TPCDData) -> int:
    return page_capacity_for(
        data.customer_schema, extra_payload_bytes=CUSTOMER_EXTRA_BYTES
    )


# ----------------------------------------------------------------------
# instance builders
# ----------------------------------------------------------------------
def build_customer_heap(db: Database, data: TPCDData) -> HeapTable:
    table = db.create_heap_table(
        "customer_heap", data.customer_schema, customer_page_capacity(data)
    )
    table.load(shuffled(data.customers))
    return table

def build_customer_ub(db: Database, data: TPCDData) -> UBTable:
    table = db.create_ub_table(
        "customer_ub",
        data.customer_schema,
        ("c_custkey", "c_mktsegment"),
        customer_page_capacity(data),
    )
    table.load(shuffled(data.customers))
    return table


def build_order_heap(db: Database, data: TPCDData) -> HeapTable:
    table = db.create_heap_table(
        "order_heap", data.order_schema, order_page_capacity(data)
    )
    table.load(shuffled(data.orders))
    return table


def build_order_iot(db: Database, data: TPCDData, leading: str) -> IOTTable:
    key = {
        "o_orderkey": ("o_orderkey",),
        "o_orderdate": ("o_orderdate", "o_orderkey"),
    }[leading]
    table = db.create_iot(
        f"order_iot_{leading}", data.order_schema, key, order_page_capacity(data)
    )
    table.load(shuffled(data.orders))
    return table


def build_order_ub(db: Database, data: TPCDData) -> UBTable:
    """The paper's three-dimensional organization of ORDER (Section 5.2)."""
    table = db.create_ub_table(
        "order_ub",
        data.order_schema,
        ("o_orderkey", "o_custkey", "o_orderdate"),
        order_page_capacity(data),
    )
    table.load(shuffled(data.orders))
    return table


def build_lineitem_heap(db: Database, data: TPCDData) -> HeapTable:
    table = db.create_heap_table(
        "lineitem_heap", data.lineitem_schema, lineitem_page_capacity(data)
    )
    table.load(shuffled(data.lineitems))
    return table


def build_lineitem_iot(db: Database, data: TPCDData, leading: str) -> IOTTable:
    key = {
        "l_orderkey": ("l_orderkey", "l_linenumber"),
        "l_shipdate": ("l_shipdate", "l_orderkey", "l_linenumber"),
        "l_discount": ("l_discount", "l_orderkey", "l_linenumber"),
        "l_quantity": ("l_quantity", "l_orderkey", "l_linenumber"),
    }[leading]
    table = db.create_iot(
        f"lineitem_iot_{leading}",
        data.lineitem_schema,
        key,
        lineitem_page_capacity(data),
    )
    table.load(shuffled(data.lineitems))
    return table


def build_lineitem_ub_sort(db: Database, data: TPCDData) -> UBTable:
    """2-D instance for Q3: (ORDERKEY, SHIPDATE)."""
    table = db.create_ub_table(
        "lineitem_ub_sort",
        data.lineitem_schema,
        ("l_orderkey", "l_shipdate"),
        lineitem_page_capacity(data),
    )
    table.load(shuffled(data.lineitems))
    return table


def build_lineitem_ub_q4(db: Database, data: TPCDData) -> UBTable:
    """3-D instance for Q4: (ORDERKEY, COMMITDATE, RECEIPTDATE)."""
    table = db.create_ub_table(
        "lineitem_ub_q4",
        data.lineitem_schema,
        ("l_orderkey", "l_commitdate", "l_receiptdate"),
        lineitem_page_capacity(data),
    )
    table.load(shuffled(data.lineitems))
    return table


def build_lineitem_ub_range(db: Database, data: TPCDData) -> UBTable:
    """3-D instance for Q6: (SHIPDATE, DISCOUNT, QUANTITY)."""
    table = db.create_ub_table(
        "lineitem_ub_range",
        data.lineitem_schema,
        ("l_shipdate", "l_discount", "l_quantity"),
        lineitem_page_capacity(data),
    )
    table.load(shuffled(data.lineitems))
    return table


def sort_memory_pages(table_pages: int) -> int:
    """Work memory scaled like the paper's (32 MB against a ≥1 GB table)."""
    return max(8, table_pages // 32)


#: the instance type each public access-method spelling ("tetris",
#: "fts-sort", "iot-shipdate", ...) promises
_METHOD_INSTANCE = {"tetris": UBTable, "fts": HeapTable, "iot": IOTTable}


def _access(
    method: str,
    table: HeapTable | IOTTable | UBTable,
    restrictions: Restrictions,
    sort_attrs: Sequence[str] = (),
    pushdown: QuerySpace | None = None,
) -> AccessPath:
    """``table`` under ``restrictions``, through the planner's one builder.

    The builder derives the access path from the instance; ``method``,
    the spelling callers pass, is only cross-checked against it.
    """
    kind = _METHOD_INSTANCE.get(method.partition("-")[0])
    if kind is None:
        raise ValueError(f"unknown access method {method!r}")
    table = require_instance(table, kind, f"access method {method!r}")
    return build_access_path(
        table,
        restrictions,
        sort_attrs,
        memory_pages=sort_memory_pages(table.page_count),
        pushdown=pushdown,
    )


def _sweep(
    table: HeapTable | IOTTable | UBTable,
    restrictions: Restrictions,
    sort_attrs: Sequence[str],
    pushdown: QuerySpace | None = None,
) -> TetrisOperator:
    """:func:`_access` by Tetris, narrowed to the live sweep."""
    plan, _ = _access("tetris", table, restrictions, sort_attrs, pushdown)
    return require_instance(plan, TetrisOperator, "a sorted UB access path")


# ----------------------------------------------------------------------
# Q3: sorted, restricted access to LINEITEM (Table 5-1 / Figure 5-5)
# ----------------------------------------------------------------------
#: the join needs ORDERKEY order; LINENUMBER breaks ties so that every
#: sort-based path emits exactly the ORDERKEY IOT's stream
_Q3_LINEITEM_ORDER = ("l_orderkey", "l_linenumber")


def q3_lineitem_access(
    method: str,
    db: Database,
    table: HeapTable | IOTTable | UBTable,
    params: Q3Params | None = None,
) -> AccessPath:
    """Restricted LINEITEM sorted by ORDERKEY, via one access method.

    Returns ``(plan, instrumented)`` where ``instrumented`` is the
    operator carrying method-specific statistics (the external sort or
    the Tetris operator), or ``None`` for the presorted IOT.
    """
    restrictions = (params or Q3Params()).lineitem_restrictions
    return _access(method, table, restrictions, _Q3_LINEITEM_ORDER)


#: joined rows are customer ++ order ++ lineitem
_CUSTOMER_WIDTH = 2
_CUSTOMER_ORDER_WIDTH = _CUSTOMER_WIDTH + 5


def _q3_customer_order_tetris(
    customer: HeapTable | UBTable, order: HeapTable | UBTable, params: Q3Params
) -> MergeJoin:
    """Figure 5-3's lower half: restricted sorted reads merged on CUSTKEY."""
    return MergeJoin(
        _sweep(customer, params.customer_restrictions, ("c_custkey",)),
        _sweep(order, params.order_restrictions, ("o_custkey",)),
        left_key=itemgetter(C_CUSTKEY),
        right_key=itemgetter(O_CUSTKEY),
    )


_customer_order_orderkey = itemgetter(_CUSTOMER_WIDTH + O_ORDERKEY)


def _q3_tail(
    customer_order_by_orderkey: Iterable[tuple],
    lineitem_plan: Iterable[tuple],
    disk: SimulatedDisk | None = None,
) -> Operator:
    """Merge join on ORDERKEY → revenue per order → final ordering."""
    joined = MergeJoin(
        customer_order_by_orderkey,
        lineitem_plan,
        left_key=_customer_order_orderkey,
        right_key=itemgetter(L_ORDERKEY),
        disk=disk,
    )
    grouped = SortedGroupBy(
        joined,
        key=lambda row: (
            row[_CUSTOMER_ORDER_WIDTH + L_ORDERKEY],
            row[_CUSTOMER_WIDTH + O_ORDERDATE],
            row[_CUSTOMER_WIDTH + O_SHIPPRIORITY],
        ),
        aggregates=[
            Sum(lambda row: revenue_numerator(row[_CUSTOMER_ORDER_WIDTH:]))
        ],
    )
    return InMemorySort(
        grouped, key=lambda row: (-row[3], row[1].toordinal(), row[0])
    )


def q3_full_plan(
    db: Database,
    customer: HeapTable | UBTable,
    order: HeapTable | UBTable,
    lineitem_plan: Operator,
    params: Q3Params | None = None,
    *,
    use_tetris: bool = False,
) -> Operator:
    """The complete Q3 tree above a sorted LINEITEM stream.

    ``use_tetris`` selects between the Tetris operator tree of Figure
    5-3 (restricted sorted reads merged on the join attributes) and the
    standard tree of Figure 5-2 (scans + hash join).
    """
    params = params or Q3Params()

    customer_order: Operator
    if use_tetris:
        customer_order = _q3_customer_order_tetris(customer, order, params)
    else:
        customer_order = HashJoin(
            _access("fts", customer, params.customer_restrictions)[0],
            _access("fts", order, params.order_restrictions)[0],
            build_key=itemgetter(C_CUSTKEY),
            probe_key=itemgetter(O_CUSTKEY),
        )

    by_orderkey = InMemorySort(customer_order, key=_customer_order_orderkey)
    return _q3_tail(by_orderkey, lineitem_plan)


# ----------------------------------------------------------------------
# Q4: sorted, restricted access to ORDER (Table 5-2 / Figure 5-9)
# ----------------------------------------------------------------------
def q4_order_access(
    method: str,
    db: Database,
    table: HeapTable | IOTTable | UBTable,
    params: Q4Params | None = None,
) -> AccessPath:
    """Restricted ORDER sorted by ORDERKEY, via one access method."""
    restrictions = (params or Q4Params()).order_restrictions
    return _access(method, table, restrictions, ("o_orderkey",))


def _q4_order_tetris(order_ub: UBTable, params: Q4Params | None) -> TetrisOperator:
    """Date-restricted ORDER in ORDERKEY order, as a live Tetris sweep."""
    return _sweep(
        order_ub, (params or Q4Params()).order_restrictions, ("o_orderkey",)
    )


def q4_full_plan(
    db: Database,
    order_plan: Operator,
    lineitem_ub: UBTable,
    params: Q4Params | None = None,
) -> Operator:
    """Figure 5-8: semijoin ORDER (sorted by key) with late LINEITEMs.

    LINEITEM is processed in ORDERKEY order through the *triangular*
    query space ``COMMITDATE < RECEIPTDATE`` — the non-rectangular
    extension the paper describes but had not implemented.
    """
    return _q4_tail(order_plan, _q4_late_lineitems(lineitem_ub))


def _q4_late_lineitems(
    lineitem_ub: UBTable, pushdown: QuerySpace | None = None
) -> TetrisOperator:
    """LINEITEM in ORDERKEY order through the ``COMMITDATE < RECEIPTDATE``
    triangle.

    Built here, not by the access-path builder: a comparison between two
    columns is not a range, so it is a query space plus whatever residual
    :func:`~repro.planner.executor.comparison_residual` says the space
    leaves — none, since both dates share one lossless encoder.
    """
    comparison = ("l_commitdate", "<", "l_receiptdate")
    triangle = IntersectionSpace(
        [
            lineitem_ub.build_query_box(None),
            lineitem_ub.comparison_space(*comparison),
        ]
    )
    return TetrisOperator(
        lineitem_ub,
        triangle,
        "l_orderkey",
        predicate=comparison_residual(lineitem_ub.schema, *comparison),
        pushdown=pushdown,
    )


def _q4_tail(
    order_plan: Iterable[tuple],
    lineitem_stream: TetrisOperator,
    disk: SimulatedDisk | None = None,
    prefetch: DualCursorPrefetcher | None = None,
) -> Operator:
    """Semi-join on ORDERKEY → sort by priority → count per priority."""
    semijoined = MergeSemiJoin(
        order_plan,
        lineitem_stream,
        left_key=itemgetter(O_ORDERKEY),
        right_key=itemgetter(L_ORDERKEY),
        disk=disk,
        prefetch=prefetch,
    )
    by_priority = InMemorySort(semijoined, key=itemgetter(O_ORDERPRIORITY))
    return SortedGroupBy(
        by_priority,
        key=lambda row: (row[O_ORDERPRIORITY],),
        aggregates=[Count()],
    )


# ----------------------------------------------------------------------
# pipelined join plans: pushdown covers and join-aware prefetch
# ----------------------------------------------------------------------

@dataclass
class PushdownJoinPlan:
    """A join plan whose probe side carries a box-cover pushdown.

    ``plan`` is the full operator tree; ``probe`` the pushdown-
    restricted LINEITEM Tetris operator (read ``probe.stats`` after
    consumption for ``pages_skipped_by_pushdown`` / ``regions_read``);
    ``cover`` the join-key interval cover pushed into it; ``build_rows``
    how many rows the evaluated build side qualified.
    """

    plan: Operator
    probe: TetrisOperator
    cover: KeyCover
    build_rows: int


@dataclass
class PipelinedJoinPlan:
    """A join plan whose two inputs are live Tetris sweeps.

    ``plan`` is the full operator tree; ``left``/``right`` the two side
    operators (read their ``.stats`` after consumption); ``prefetch``
    the dual-cursor policy driving both sweeps' read-ahead, or ``None``
    when the database has no scheduler or prefetching was not requested.
    """

    plan: Operator
    left: TetrisOperator
    right: TetrisOperator
    prefetch: "DualCursorPrefetcher | None"


def _pushdown_join(
    db: Database,
    build_rows: list[tuple],
    build_key: Callable[[tuple], Any],
    lineitem_ub: UBTable,
    probe_under: Callable[[QuerySpace], TetrisOperator],
    tail: Callable[..., Operator],
    budget: int,
) -> PushdownJoinPlan:
    """Evaluated build side (in ORDERKEY order) → key cover → LINEITEM
    probe under that cover → ``tail``."""
    keys = [build_key(row) for row in build_rows]
    cover_space, cover = pushdown_space(
        lineitem_ub, "l_orderkey", keys, budget=budget
    )
    probe = probe_under(cover_space)
    return PushdownJoinPlan(
        tail(build_rows, probe, db.disk), probe, cover, len(build_rows)
    )


def q3_pushdown_plan(
    db: Database,
    customer: UBTable,
    order: UBTable,
    lineitem_ub: UBTable,
    params: Q3Params | None = None,
    *,
    budget: int = DEFAULT_COVER_BUDGET,
) -> PushdownJoinPlan:
    """Q3's Tetris tree with the ORDERKEY cover pushed into LINEITEM.

    The restricted smaller side — CUSTOMER ⋈ ORDER under the segment
    and date restrictions — is evaluated *now* (at plan-build time);
    its qualifying ORDERKEYs are coalesced into at most ``budget``
    intervals and intersected with LINEITEM's query box, so the Tetris
    sweep over LINEITEM skips every Z-region containing no qualifying
    join key.  The join output is bit-identical to
    :func:`q3_full_plan` with ``use_tetris=True``: the pushdown space
    over-approximates the key set, and the merge join drops non-
    qualifying keys exactly as before.
    """
    query = params or Q3Params()
    customer_order = _q3_customer_order_tetris(customer, order, query)
    return _pushdown_join(
        db,
        sorted(customer_order, key=_customer_order_orderkey),
        _customer_order_orderkey,
        lineitem_ub,
        lambda cover: _sweep(
            lineitem_ub, query.lineitem_restrictions, _Q3_LINEITEM_ORDER, cover
        ),
        _q3_tail,
        budget,
    )


def q4_pipelined_plan(
    db: Database,
    order_ub: UBTable,
    lineitem_ub: UBTable,
    params: Q4Params | None = None,
    *,
    prefetch: bool = False,
) -> PipelinedJoinPlan:
    """Figure 5-8 with both sides as live Tetris streams.

    Unlike :func:`q4_full_plan` (which takes a prebuilt ORDER plan),
    both inputs stream here, so with ``prefetch=True`` (and a database
    built with devices/prefetch enabled) a
    :class:`~repro.storage.prefetch.DualCursorPrefetcher` drives
    read-ahead for whichever side the semi-join's cursor demands next —
    the two sweeps overlap instead of serializing.
    """
    order_stream = _q4_order_tetris(order_ub, params)
    lineitem_stream = _q4_late_lineitems(lineitem_ub)
    dual = (
        DualCursorPrefetcher.for_operators(order_stream, lineitem_stream)
        if prefetch
        else None
    )
    return PipelinedJoinPlan(
        plan=_q4_tail(order_stream, lineitem_stream, db.disk, dual),
        left=order_stream,
        right=lineitem_stream,
        prefetch=dual,
    )


def q4_pushdown_plan(
    db: Database,
    order_ub: UBTable,
    lineitem_ub: UBTable,
    params: Q4Params | None = None,
    *,
    budget: int = DEFAULT_COVER_BUDGET,
) -> PushdownJoinPlan:
    """Q4 with the restricted ORDER side's key cover pushed into LINEITEM.

    The date-restricted ORDER scan (the small side, ≈ 3.5 %) is
    evaluated first; its ORDERKEYs become the interval cover that lets
    the LINEITEM sweep skip Z-regions holding no qualifying order.
    Result is bit-identical to :func:`q4_full_plan` over the Tetris
    ORDER access: the semi-join discards any over-approximated keys.
    """
    return _pushdown_join(
        db,
        list(_q4_order_tetris(order_ub, params)),
        itemgetter(O_ORDERKEY),
        lineitem_ub,
        lambda cover: _q4_late_lineitems(lineitem_ub, cover),
        _q4_tail,
        budget,
    )


# ----------------------------------------------------------------------
# Q6: multi-attribute restriction on LINEITEM (Table 5-3 / Figure 5-12)
# ----------------------------------------------------------------------
def q6_restriction_plan(
    method: str,
    db: Database,
    table: HeapTable | IOTTable | UBTable,
    params: Q6Params | None = None,
) -> Operator:
    """The restricted LINEITEM stream for Q6, via one access method."""
    return _access(method, table, (params or Q6Params()).restrictions)[0]


def q6_full_plan(
    method: str,
    db: Database,
    table: HeapTable | IOTTable | UBTable,
    params: Q6Params | None = None,
) -> Operator:
    """``SELECT SUM(L_EXTENDEDPRICE · L_DISCOUNT)`` over the restriction."""
    restricted = q6_restriction_plan(method, db, table, params)
    return ScalarAggregate(restricted, [Sum(discounted_numerator)])
