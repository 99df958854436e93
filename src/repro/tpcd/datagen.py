"""Deterministic TPC-D-like data generation.

The paper's measurements run TPC-D at scale factors 0.1–4 (6M LINEITEM
rows at SF 1).  A pure-Python page simulator cannot push that volume
through a benchmark suite, so the generator keeps the *structure* —
row-count ratios (|LINEITEM| ≈ 4·|ORDER| = 40·|CUSTOMER|), attribute
correlations (ship/commit/receipt dates trail the order date), domain
shapes and therefore all selectivities — while scaling absolute row
counts by ``customers_per_sf`` (default 1/100 of TPC-D).  DESIGN.md
documents this substitution.
"""

from __future__ import annotations

import datetime as dt
import random
from dataclasses import dataclass, field
from typing import Iterator

from .schema import (
    ANYDATE_HI,
    MKTSEGMENTS,
    ORDERDATE_HI,
    ORDERDATE_LO,
    ORDERPRIORITIES,
    customer_schema,
    lineitem_schema,
    order_schema,
)

#: TPC-D has 150 000 customers per scale factor; we default to 1/100.
DEFAULT_CUSTOMERS_PER_SF = 1500


@dataclass(frozen=True)
class TPCDConfig:
    """Knobs of the generator; defaults reproduce the paper's ratios.

    ``correlated_dates`` makes O_ORDERDATE monotone in O_ORDERKEY up to
    ±7 days of jitter — the layout of a real order table grown over
    time, where keys are assigned in arrival order.  It is what makes
    join-key interval pushdown effective (a date restriction then maps
    to a *bounded* set of orderkey runs instead of keys sprayed across
    the whole domain).  The default ``False`` keeps every stream
    byte-identical to previous releases.
    """

    scale_factor: float = 0.25
    customers_per_sf: int = DEFAULT_CUSTOMERS_PER_SF
    orders_per_customer: int = 10
    max_lineitems_per_order: int = 7
    seed: int = 19990323  # ICDE'99, Sydney
    correlated_dates: bool = False

    @property
    def customer_count(self) -> int:
        return max(1, round(self.scale_factor * self.customers_per_sf))

    @property
    def order_count(self) -> int:
        return self.customer_count * self.orders_per_customer


@dataclass
class TPCDData:
    """Generated relations plus the matching schemas."""

    config: TPCDConfig
    customers: list[tuple] = field(default_factory=list)
    orders: list[tuple] = field(default_factory=list)
    lineitems: list[tuple] = field(default_factory=list)

    @property
    def customer_schema(self):
        return customer_schema(self.config.customer_count)

    @property
    def order_schema(self):
        return order_schema(self.config.order_count, self.config.customer_count)

    @property
    def lineitem_schema(self):
        return lineitem_schema(self.config.order_count)


def generate(config: TPCDConfig | None = None) -> TPCDData:
    """Generate CUSTOMER, ORDER and LINEITEM deterministically.

    Rows come out in insertion order (by key); loaders that want the
    physically scattered layout of a grown table should shuffle (see
    :func:`shuffled`).
    """
    config = config or TPCDConfig()
    rng = random.Random(config.seed)
    data = TPCDData(config)

    order_window_days = (ORDERDATE_HI - ORDERDATE_LO).days
    latest_any = (ANYDATE_HI - ORDERDATE_LO).days

    for custkey in range(1, config.customer_count + 1):
        segment = MKTSEGMENTS[rng.randrange(len(MKTSEGMENTS))]
        data.customers.append((custkey, segment))

    for orderkey in range(1, config.order_count + 1):
        custkey = rng.randint(1, config.customer_count)
        if config.correlated_dates:
            orderdate = _correlated_orderdate(config, orderkey, rng)
        else:
            orderdate = ORDERDATE_LO + dt.timedelta(
                days=rng.randint(0, order_window_days)
            )
        priority = ORDERPRIORITIES[rng.randrange(len(ORDERPRIORITIES))]
        shippriority = 0
        data.orders.append((orderkey, custkey, orderdate, priority, shippriority))

        base_days = (orderdate - ORDERDATE_LO).days
        for linenumber in range(1, rng.randint(1, config.max_lineitems_per_order) + 1):
            shipdate = orderdate + dt.timedelta(
                days=min(rng.randint(1, 121), latest_any - base_days)
            )
            commitdate = orderdate + dt.timedelta(
                days=min(rng.randint(30, 90), latest_any - base_days)
            )
            receiptdate = shipdate + dt.timedelta(
                days=min(rng.randint(1, 30), latest_any - (shipdate - ORDERDATE_LO).days)
            )
            discount = rng.randint(0, 10)  # percent
            quantity = rng.randint(1, 50)
            unit_price_cents = rng.randint(90_000, 105_000)
            extendedprice = min(quantity * unit_price_cents, 11_000_000)
            data.lineitems.append(
                (
                    orderkey,
                    linenumber,
                    shipdate,
                    commitdate,
                    receiptdate,
                    discount,
                    quantity,
                    extendedprice,
                )
            )
    return data


def shuffled(rows: list[tuple], seed: int = 7) -> list[tuple]:
    """A deterministic shuffle — the insertion order of a table grown
    over time, which is what scatters IOT leaves physically."""
    copy = list(rows)
    random.Random(seed).shuffle(copy)
    return copy


# ----------------------------------------------------------------------
# streaming generation
# ----------------------------------------------------------------------
# The batch API regenerates rows on demand instead of materializing
# relations, so a sharded loader can stream SF >= 1 once per (shard,
# copy) pass in O(batch) memory.  It is a *separate* deterministic
# family from :func:`generate`: that one threads a single RNG through
# every row, so row i's content depends on how many rows preceded it and
# the stream cannot be prefix-stable.  Here every entity draws from its
# own RNG seeded by ``mix(seed, tag, key)``, making row content a pure
# function of (seed, key): the SF 0.01 stream is a literal prefix of the
# SF 1 stream, and any suffix can be regenerated without its past.

_ORDER_TAG = 0x2099
_LINEITEM_TAG = 0x3099


def _mix(*parts: int) -> int:
    """splitmix64 over the parts — a seeded, stable stream splitter."""
    acc = 0x9E3779B97F4A7C15
    for part in parts:
        acc = (acc + part) & 0xFFFFFFFFFFFFFFFF
        acc ^= acc >> 30
        acc = (acc * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        acc ^= acc >> 27
        acc = (acc * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        acc ^= acc >> 31
    return acc


def _entity_rng(config: TPCDConfig, tag: int, key: int) -> random.Random:
    return random.Random(_mix(config.seed, tag, key))


def _correlated_orderdate(
    config: TPCDConfig, orderkey: int, rng: random.Random
) -> dt.date:
    """Orderdate monotone in orderkey, ±7 days of jitter, clamped.

    The deterministic base walks the full date window as orderkey walks
    the key domain; one jitter draw replaces the uniform draw of the
    default path, so either mode consumes exactly one RNG value for the
    date.  Jitter means the mapping is *nearly* monotone — qualifying
    keys form short runs with ragged edges, which is what the pushdown
    cover's interval budgeting has to absorb.
    """
    order_window_days = (ORDERDATE_HI - ORDERDATE_LO).days
    span = max(1, config.order_count - 1)
    base = ((orderkey - 1) * order_window_days) // span
    jitter = rng.randint(-7, 7)
    return ORDERDATE_LO + dt.timedelta(
        days=max(0, min(order_window_days, base + jitter))
    )


def _order_row(config: TPCDConfig, orderkey: int) -> tuple:
    rng = _entity_rng(config, _ORDER_TAG, orderkey)
    order_window_days = (ORDERDATE_HI - ORDERDATE_LO).days
    # deterministic key coupling instead of a draw over the (scale-
    # dependent) customer domain — the one substitution prefix
    # stability demands; clustering stays TPC-D-shaped (each customer
    # places ``orders_per_customer`` orders)
    custkey = (orderkey - 1) // config.orders_per_customer + 1
    if config.correlated_dates:
        orderdate = _correlated_orderdate(config, orderkey, rng)
    else:
        orderdate = ORDERDATE_LO + dt.timedelta(
            days=rng.randint(0, order_window_days)
        )
    priority = ORDERPRIORITIES[rng.randrange(len(ORDERPRIORITIES))]
    return (orderkey, custkey, orderdate, priority, 0)


def stream_lineitems(config: TPCDConfig | None = None) -> Iterator[tuple]:
    """LINEITEM rows one at a time, prefix-stable across scale factors.

    Each order's items are a pure function of its orderkey, and orders
    stream in key order, so a shorter scale factor's lineitem stream is
    a prefix of any longer one's.
    """
    config = config or TPCDConfig()
    latest_any = (ANYDATE_HI - ORDERDATE_LO).days
    for orderkey in range(1, config.order_count + 1):
        _, _, orderdate, _, _ = _order_row(config, orderkey)
        base_days = (orderdate - ORDERDATE_LO).days
        rng = _entity_rng(config, _LINEITEM_TAG, orderkey)
        for linenumber in range(1, rng.randint(1, config.max_lineitems_per_order) + 1):
            shipdate = orderdate + dt.timedelta(
                days=min(rng.randint(1, 121), latest_any - base_days)
            )
            commitdate = orderdate + dt.timedelta(
                days=min(rng.randint(30, 90), latest_any - base_days)
            )
            receiptdate = shipdate + dt.timedelta(
                days=min(rng.randint(1, 30), latest_any - (shipdate - ORDERDATE_LO).days)
            )
            discount = rng.randint(0, 10)
            quantity = rng.randint(1, 50)
            unit_price_cents = rng.randint(90_000, 105_000)
            extendedprice = min(quantity * unit_price_cents, 11_000_000)
            yield (
                orderkey,
                linenumber,
                shipdate,
                commitdate,
                receiptdate,
                discount,
                quantity,
                extendedprice,
            )
