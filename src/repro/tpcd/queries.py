"""Logical definitions and reference evaluations of TPC-D Q3, Q4, Q6.

Parameters default to selectivities matching the paper's experiments
(50 % SHIPDATE restriction for Q3, 3.5 % ORDERDATE restriction for Q4,
20 % / 27 % / 48 % for Q6's three attributes).  Reference evaluators
compute results straight from the generated row lists — slow, obviously
correct, and used by the tests to validate every physical plan.

Revenue arithmetic is integer-exact: prices are cents, discounts are
percent, so ``SUM(extendedprice * (1 - discount))`` is computed as
``Σ extendedprice · (100 - discount)`` in cent-percent units.
"""

from __future__ import annotations

import datetime as dt
from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from .datagen import TPCDData
from .schema import LINEITEM_COLUMNS, ORDER_COLUMNS

# column positions (rows are plain tuples)
L_ORDERKEY = LINEITEM_COLUMNS.index("l_orderkey")
L_SHIPDATE = LINEITEM_COLUMNS.index("l_shipdate")
L_COMMITDATE = LINEITEM_COLUMNS.index("l_commitdate")
L_RECEIPTDATE = LINEITEM_COLUMNS.index("l_receiptdate")
L_DISCOUNT = LINEITEM_COLUMNS.index("l_discount")
L_QUANTITY = LINEITEM_COLUMNS.index("l_quantity")
L_EXTENDEDPRICE = LINEITEM_COLUMNS.index("l_extendedprice")
O_ORDERKEY = ORDER_COLUMNS.index("o_orderkey")
O_CUSTKEY = ORDER_COLUMNS.index("o_custkey")
O_ORDERDATE = ORDER_COLUMNS.index("o_orderdate")
O_ORDERPRIORITY = ORDER_COLUMNS.index("o_orderpriority")
O_SHIPPRIORITY = ORDER_COLUMNS.index("o_shippriority")
C_CUSTKEY = 0
C_MKTSEGMENT = 1

#: attribute -> inclusive ``(lo, hi)`` value range, ``None`` = open end: how
#: a query states its restrictions to the planner's access-path builder
#: (``order_qualifies`` / ``q6_matches`` restate them for the oracle)
Restrictions = dict[str, tuple[Any, Any]]
_DAY = dt.timedelta(days=1)


def revenue_numerator(lineitem: tuple) -> int:
    """``extendedprice · (100 - discount)`` in cent-percent units."""
    return lineitem[L_EXTENDEDPRICE] * (100 - lineitem[L_DISCOUNT])


def discounted_numerator(lineitem: tuple) -> int:
    """``extendedprice · discount`` (Q6's summand), cent-percent units."""
    return lineitem[L_EXTENDEDPRICE] * lineitem[L_DISCOUNT]


# ----------------------------------------------------------------------
# Q3: shipping priority (restrictions + two joins + grouping + ordering)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Q3Params:
    segment: str = "BUILDING"
    orderdate_before: dt.date = dt.date(1998, 5, 1)
    shipdate_after: dt.date = dt.date(1995, 6, 30)  # ≈ 50 % of LINEITEM
    #: optional inclusive lower bound on O_ORDERDATE; ``None`` keeps the
    #: classic one-sided Q3 window.  A two-sided window is what makes
    #: the join-key pushdown measurable on a key-correlated instance:
    #: qualifying orderkeys then form a band in the *middle* of the
    #: domain, which merge-join early exit alone cannot skip.
    orderdate_from: dt.date | None = None

    def order_qualifies(self, orderdate: dt.date) -> bool:
        """The date window, including the optional lower bound."""
        if self.orderdate_from is not None and orderdate < self.orderdate_from:
            return False
        return orderdate < self.orderdate_before

    @property
    def customer_restrictions(self) -> Restrictions:
        """``C_MKTSEGMENT = segment``."""
        return {"c_mktsegment": (self.segment, self.segment)}

    @property
    def order_restrictions(self) -> Restrictions:
        """``[orderdate_from <=] O_ORDERDATE < orderdate_before``."""
        return {"o_orderdate": (self.orderdate_from, self.orderdate_before - _DAY)}

    @property
    def lineitem_restrictions(self) -> Restrictions:
        """``L_SHIPDATE > shipdate_after``."""
        return {"l_shipdate": (self.shipdate_after + _DAY, None)}


def reference_q3(data: TPCDData, params: Q3Params | None = None) -> list[tuple]:
    """Rows ``(l_orderkey, o_orderdate, o_shippriority, revenue_numerator)``
    ordered by revenue desc, orderdate asc."""
    params = params or Q3Params()
    wanted_customers = {
        row[C_CUSTKEY] for row in data.customers if row[C_MKTSEGMENT] == params.segment
    }
    orders = {
        row[O_ORDERKEY]: row
        for row in data.orders
        if row[O_CUSTKEY] in wanted_customers
        and params.order_qualifies(row[O_ORDERDATE])
    }
    revenue: dict[tuple, int] = defaultdict(int)
    for item in data.lineitems:
        order = orders.get(item[L_ORDERKEY])
        if order is None or item[L_SHIPDATE] <= params.shipdate_after:
            continue
        group = (item[L_ORDERKEY], order[O_ORDERDATE], order[O_SHIPPRIORITY])
        revenue[group] += revenue_numerator(item)
    rows = [group + (total,) for group, total in revenue.items()]
    rows.sort(key=lambda r: (-r[3], r[1].toordinal(), r[0]))
    return rows


# ----------------------------------------------------------------------
# Q4: order priority checking (restriction + EXISTS semijoin + grouping)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Q4Params:
    orderdate_from: dt.date = dt.date(1997, 1, 1)
    orderdate_until: dt.date = dt.date(1997, 4, 1)  # exclusive; ≈ 3.5 %

    @property
    def order_restrictions(self) -> Restrictions:
        """``orderdate_from <= O_ORDERDATE < orderdate_until``."""
        return {"o_orderdate": (self.orderdate_from, self.orderdate_until - _DAY)}


def reference_q4(data: TPCDData, params: Q4Params | None = None) -> list[tuple]:
    """Rows ``(o_orderpriority, order_count)`` ordered by priority."""
    params = params or Q4Params()
    late_orders = {
        item[L_ORDERKEY]
        for item in data.lineitems
        if item[L_COMMITDATE] < item[L_RECEIPTDATE]
    }
    counts: dict[str, int] = defaultdict(int)
    for order in data.orders:
        if not params.orderdate_from <= order[O_ORDERDATE] < params.orderdate_until:
            continue
        if order[O_ORDERKEY] in late_orders:
            counts[order[O_ORDERPRIORITY]] += 1
    return sorted(counts.items())


# ----------------------------------------------------------------------
# Q6: forecasting revenue change (pure multi-attribute restriction)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Q6Params:
    shipdate_from: dt.date = dt.date(1994, 1, 1)
    shipdate_days: int = 511  # ≈ 20 % of the shipdate window (paper's figure)
    discount: int = 6  # percent; BETWEEN discount-1 AND discount+1 → ≈ 27 %
    quantity_below: int = 25  # < 25 of 1..50 → ≈ 48 %

    @property
    def shipdate_until(self) -> dt.date:
        """Exclusive upper bound of the shipdate range."""
        return self.shipdate_from + dt.timedelta(days=self.shipdate_days)

    @property
    def restrictions(self) -> Restrictions:
        """The three LINEITEM ranges :func:`q6_matches` tests row by row."""
        return {
            "l_shipdate": (self.shipdate_from, self.shipdate_until - _DAY),
            "l_discount": (self.discount - 1, self.discount + 1),
            "l_quantity": (None, self.quantity_below - 1),
        }


def q6_matches(item: tuple, params: Q6Params) -> bool:
    return (
        params.shipdate_from <= item[L_SHIPDATE] < params.shipdate_until
        and params.discount - 1 <= item[L_DISCOUNT] <= params.discount + 1
        and item[L_QUANTITY] < params.quantity_below
    )


def reference_q6(data: TPCDData, params: Q6Params | None = None) -> int:
    """``SUM(extendedprice · discount)`` in cent-percent units."""
    params = params or Q6Params()
    return sum(
        discounted_numerator(item)
        for item in data.lineitems
        if q6_matches(item, params)
    )
