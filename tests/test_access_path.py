"""The access-path builder against the predicates it replaced.

``tpcd/plans.py`` used to write every restriction twice: once as the
box/leading-key range handed to the index, and once as a per-row lambda
re-testing it.  The lambdas moved here and became the *reference*
filter: for every query × access method × parameter set the builder's
stream must equal the unrestricted stream of the same access path
filtered by the reference, in order, on every kernel backend.  A
Hypothesis property then holds the drop rule — a bound leaves the
residual iff the access path enforces it exactly — to a brute-force
filter on a table with one lossless and two lossy encoders.
"""

import datetime as dt
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.planner import executor
from repro.planner.executor import (
    build_access_path,
    compile_residual,
)
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.relational.schema import DecimalEncoder, StringEncoder
from repro.tpcd import Q3Params, Q4Params, Q6Params, TPCDConfig, generate, plans
from repro.tpcd.queries import (
    C_MKTSEGMENT,
    L_COMMITDATE,
    L_DISCOUNT,
    L_QUANTITY,
    L_RECEIPTDATE,
    L_SHIPDATE,
    O_ORDERDATE,
    q6_matches,
)
from repro.tpcd.schema import ANYDATE_HI, LINEITEM_COLUMNS

BACKENDS = tuple(kernels.available_backends())
MEMORY_PAGES = 8


# ----------------------------------------------------------------------
# the reference predicates: what plans.py used to pass as ``predicate=``
# ----------------------------------------------------------------------
def q3_lineitem_reference(params):
    return lambda row: row[L_SHIPDATE] > params.shipdate_after


def q3_order_reference(params):
    return lambda row: params.order_qualifies(row[O_ORDERDATE])


def q3_customer_reference(params):
    return lambda row: row[C_MKTSEGMENT] == params.segment


def q4_order_reference(params):
    lo, hi = params.orderdate_from, params.orderdate_until
    return lambda row: lo <= row[O_ORDERDATE] < hi


def q6_reference(params):
    return lambda row: q6_matches(row, params)


Q3_PARAMS = [
    Q3Params(),
    Q3Params(shipdate_after=dt.date(1992, 1, 1)),
    Q3Params(shipdate_after=ANYDATE_HI - dt.timedelta(days=1)),  # empty
    Q3Params(segment="MACHINERY", shipdate_after=dt.date(1997, 3, 15)),
    Q3Params(
        orderdate_from=dt.date(1995, 1, 1), orderdate_before=dt.date(1996, 1, 1)
    ),
    Q3Params(  # a one-day ORDERDATE window
        orderdate_from=dt.date(1995, 1, 1), orderdate_before=dt.date(1995, 1, 2)
    ),
]
Q4_PARAMS = [
    Q4Params(),
    Q4Params(dt.date(1995, 3, 1), dt.date(1995, 3, 2)),  # one day
    Q4Params(dt.date(1996, 1, 1), dt.date(1996, 1, 1)),  # empty
    Q4Params(dt.date(1992, 1, 1), dt.date(1998, 8, 1)),  # everything
    Q4Params(dt.date(1993, 6, 15), dt.date(1994, 2, 1)),
]
Q6_PARAMS = [
    Q6Params(),
    Q6Params(shipdate_days=1),  # one day
    Q6Params(shipdate_days=0),  # empty
    Q6Params(discount=2, quantity_below=10),
    Q6Params(shipdate_from=dt.date(1992, 6, 1), shipdate_days=2000, discount=9),
]


@pytest.fixture(scope="module")
def world():
    data = generate(TPCDConfig(scale_factor=0.05))
    db = Database(buffer_pages=64)
    # TPC-D's five segments differ in their first letter, which is all the
    # 1-character StringEncoder keeps; a sixth sharing BUILDING's code is
    # what makes the segment residual observable in the rows
    customers = [
        (key, "BAKERY") if key % 5 == 0 else (key, segment)
        for key, segment in data.customers
    ]
    customer_heap = db.create_heap_table(
        "customer_heap", data.customer_schema, plans.customer_page_capacity(data)
    )
    customer_heap.load(customers)
    customer_ub = db.create_ub_table(
        "customer_ub",
        data.customer_schema,
        ("c_custkey", "c_mktsegment"),
        plans.customer_page_capacity(data),
    )
    customer_ub.load(customers)
    lineitem_heap = plans.build_lineitem_heap(db, data)
    lineitem_by_shipdate = plans.build_lineitem_iot(db, data, "l_shipdate")
    return {
        "db": db,
        "q3": {
            "tetris": plans.build_lineitem_ub_sort(db, data),
            "fts-sort": lineitem_heap,
            "iot-orderkey": plans.build_lineitem_iot(db, data, "l_orderkey"),
            "iot-shipdate": lineitem_by_shipdate,
        },
        "q4": {
            "tetris": plans.build_order_ub(db, data),
            "fts-sort": plans.build_order_heap(db, data),
            "iot-orderkey": plans.build_order_iot(db, data, "o_orderkey"),
            "iot-orderdate": plans.build_order_iot(db, data, "o_orderdate"),
        },
        "q6": {
            "tetris": plans.build_lineitem_ub_range(db, data),
            "fts": lineitem_heap,
            "iot-shipdate": lineitem_by_shipdate,
            "iot-discount": plans.build_lineitem_iot(db, data, "l_discount"),
            "iot-quantity": plans.build_lineitem_iot(db, data, "l_quantity"),
        },
        "customer": {"tetris": customer_ub, "fts": customer_heap},
    }


def unrestricted(table, sort_attrs):
    plan, _ = build_access_path(table, None, sort_attrs, memory_pages=MEMORY_PAGES)
    return list(plan)


def assert_matches_reference(plan, table, sort_attrs, reference):
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            stream = unrestricted(table, sort_attrs)
            assert list(plan()) == [row for row in stream if reference(row)], backend


class TestAgainstTheDeletedLambdas:
    @pytest.mark.parametrize("params", Q3_PARAMS)
    @pytest.mark.parametrize(
        "method", ["tetris", "fts-sort", "iot-orderkey", "iot-shipdate"]
    )
    def test_q3_lineitem(self, world, method, params):
        table = world["q3"][method]
        assert_matches_reference(
            lambda: plans.q3_lineitem_access(method, world["db"], table, params)[0],
            table,
            ("l_orderkey", "l_linenumber"),
            q3_lineitem_reference(params),
        )

    @pytest.mark.parametrize("params", Q4_PARAMS)
    @pytest.mark.parametrize(
        "method", ["tetris", "fts-sort", "iot-orderkey", "iot-orderdate"]
    )
    def test_q4_order(self, world, method, params):
        table = world["q4"][method]
        assert_matches_reference(
            lambda: plans.q4_order_access(method, world["db"], table, params)[0],
            table,
            ("o_orderkey",),
            q4_order_reference(params),
        )

    @pytest.mark.parametrize("params", Q6_PARAMS)
    @pytest.mark.parametrize(
        "method", ["tetris", "fts", "iot-shipdate", "iot-discount", "iot-quantity"]
    )
    def test_q6(self, world, method, params):
        table = world["q6"][method]
        assert_matches_reference(
            lambda: plans.q6_restriction_plan(method, world["db"], table, params),
            table,
            (),
            q6_reference(params),
        )

    @pytest.mark.parametrize("params", Q3_PARAMS)
    @pytest.mark.parametrize("method", ["tetris", "fts-sort"])
    def test_q3_order_side(self, world, method, params):
        """The ORDER restriction of Q3's lower half (incl. ``orderdate_from``)."""
        table = world["q4"][method]
        sort_attrs = ("o_custkey",) if method == "tetris" else ()
        assert_matches_reference(
            lambda: build_access_path(
                table,
                params.order_restrictions,
                sort_attrs,
                memory_pages=MEMORY_PAGES,
            )[0],
            table,
            sort_attrs,
            q3_order_reference(params),
        )

    @pytest.mark.parametrize("segment", ["BUILDING", "BAKERY", "MACHINERY", "NONE"])
    @pytest.mark.parametrize("method", ["tetris", "fts"])
    def test_q3_customer_side(self, world, method, segment):
        table = world["customer"][method]
        sort_attrs = ("c_custkey",) if method == "tetris" else ()
        params = Q3Params(segment=segment)
        assert_matches_reference(
            lambda: build_access_path(
                table,
                params.customer_restrictions,
                sort_attrs,
                memory_pages=MEMORY_PAGES,
            )[0],
            table,
            sort_attrs,
            q3_customer_reference(params),
        )


def residual(table, restrictions, sort_attrs=()):
    """The per-row predicate the builder left on the scan (``None`` = none)."""
    plan, _ = build_access_path(
        table, restrictions, sort_attrs, memory_pages=MEMORY_PAGES
    )
    return getattr(plan, "child", plan).predicate


def q6_row(shipdate=dt.date(1994, 6, 1), discount=6, quantity=10):
    """A LINEITEM row Q6's defaults accept unless an argument says otherwise."""
    row = [0] * len(LINEITEM_COLUMNS)
    row[L_SHIPDATE], row[L_DISCOUNT], row[L_QUANTITY] = shipdate, discount, quantity
    return tuple(row)


#: one violation per Q6 attribute
Q6_VIOLATIONS = {
    "l_shipdate": q6_row(shipdate=dt.date(1993, 12, 31)),
    "l_discount": q6_row(discount=8),
    "l_quantity": q6_row(quantity=25),
}


class TestWhatStaysResidual:
    def test_ub_paths_recheck_nothing(self, world):
        for params in Q3_PARAMS:
            assert (
                residual(
                    world["q3"]["tetris"],
                    params.lineitem_restrictions,
                    ("l_orderkey", "l_linenumber"),
                )
                is None
            )
            order = residual(
                world["q4"]["tetris"], params.order_restrictions, ("o_custkey",)
            )
            assert order is None
        for params in Q4_PARAMS:
            order = residual(
                world["q4"]["tetris"], params.order_restrictions, ("o_orderkey",)
            )
            assert order is None
        for params in Q6_PARAMS:
            assert residual(world["q6"]["tetris"], params.restrictions) is None

    def test_customer_segment_is_the_one_residual(self, world):
        check = residual(
            world["customer"]["tetris"],
            Q3Params().customer_restrictions,
            ("c_custkey",),
        )
        assert check((1, "BUILDING"))
        assert not check((1, "BAKERY"))

    @pytest.mark.parametrize("leading", sorted(Q6_VIOLATIONS))
    def test_iot_drops_only_its_leading_attribute(self, world, leading):
        table = world["q6"]["iot-" + leading[2:]]
        assert table.key_attrs[0] == leading
        check = residual(table, Q6Params().restrictions)
        assert check(q6_row())
        for attr, row in Q6_VIOLATIONS.items():
            assert check(row) == (attr == leading), attr

    def test_heap_drops_nothing(self, world):
        check = residual(world["q6"]["fts"], Q6Params().restrictions)
        assert check(q6_row())
        assert not any(check(row) for row in Q6_VIOLATIONS.values())
        # ... also below an external sort
        check = residual(
            world["q6"]["fts"], Q6Params().restrictions, ("l_orderkey",)
        )
        assert check(q6_row()) and not check(Q6_VIOLATIONS["l_discount"])

    def test_off_grid_bound_on_a_lossless_dimension_stays(self, world):
        """``IntEncoder.encode`` truncates 24.5 to 24's code: no round trip, so
        the upper bound stays while the lower one (1) is left to the box."""
        check = residual(world["q6"]["tetris"], {"l_quantity": (1, 24.5)})
        assert check(q6_row(quantity=24)) and check(q6_row(quantity=0))
        assert not check(q6_row(quantity=25))

    def test_compiled_check_is_one_closure_per_single_bound(self):
        schema = Schema([Attribute("a", IntEncoder(0, 9))])
        assert compile_residual(schema, {}) is None
        assert compile_residual(schema, {"a": (None, None)}) is None
        at_most = compile_residual(schema, {"a": (None, 4)})
        assert at_most.__closure__ is not None and at_most((4,)) and not at_most((5,))
        between = compile_residual(schema, {"a": (2, 4)})
        assert [between((v,)) for v in (1, 2, 4, 5)] == [False, True, True, False]


class TestTheComparisonDropRule:
    """A two-column comparison keeps a residual unless both columns share
    one lossless encoder, so the encoded half-space is the predicate."""

    def test_q4_triangle_leaves_no_residual(self):
        data = generate(TPCDConfig(scale_factor=0.02))
        db = Database(buffer_pages=32)
        lineitem = plans.build_lineitem_ub_q4(db, data)
        assert plans._q4_late_lineitems(lineitem).predicate is None
        # the dropped lambda rejected nothing the triangle let through
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                rows = list(plans._q4_late_lineitems(lineitem))
            assert rows and all(
                row[L_COMMITDATE] < row[L_RECEIPTDATE] for row in rows
            ), backend
            everything = [
                row
                for row in build_access_path(
                    lineitem, None, ("l_orderkey",), memory_pages=MEMORY_PAGES
                )[0]
                if row[L_COMMITDATE] < row[L_RECEIPTDATE]
            ]
            assert rows == everything, backend

    @pytest.mark.parametrize(
        "left, right",
        [
            (IntEncoder(0, 99), IntEncoder(1, 100)),  # two maps: codes shift
            (DecimalEncoder(0.0, 1.0), DecimalEncoder(0.0, 1.0)),  # lossy
            (IntEncoder(0, 99), DecimalEncoder(0.0, 99.0, scale=0)),
        ],
    )
    def test_anything_else_keeps_one(self, left, right):
        schema = Schema([Attribute("x", left), Attribute("y", right)])
        check = executor.comparison_residual(schema, "x", "<", "y")
        assert check is not None
        assert check((1, 2)) and not check((2, 2)) and not check((3, 2))
        at_least = executor.comparison_residual(schema, "x", ">=", "y")
        assert at_least((2, 2)) and not at_least((1, 2))

    def test_one_lossless_encoder_enforces_every_operator(self):
        schema = Schema(
            [Attribute("x", IntEncoder(5, 50)), Attribute("y", IntEncoder(5, 50))]
        )
        for op in ("<", "<=", ">", ">="):
            assert executor.comparison_residual(schema, "x", op, "y") is None


class TestTheDropRuleHasTeeth:
    """A lossy encoder that claims ``lossless`` must change the rows."""

    def segments_served(self, world):
        plan, _ = build_access_path(
            world["customer"]["tetris"],
            Q3Params(segment="BUILDING").customer_restrictions,
            ("c_custkey",),
            memory_pages=MEMORY_PAGES,
        )
        return {row[C_MKTSEGMENT] for row in plan}

    def test_string_prefix_is_guarded_by_both_conditions(self, world, monkeypatch):
        # the flag alone: "BUILDING" decodes back as "B", so the bound
        # does not round-trip and stays residual
        monkeypatch.setattr(StringEncoder, "lossless", True)
        assert self.segments_served(world) == {"BUILDING"}
        # the rule itself sabotaged: the 1-character box lets BAKERY in
        monkeypatch.setattr(executor, "_box_enforces", lambda *args: True)
        assert self.segments_served(world) == {"BUILDING", "BAKERY"}

    def test_decimal_marked_lossless_leaks(self, monkeypatch):
        monkeypatch.setattr(DecimalEncoder, "lossless", True)
        _, _, ub, _ = synthetic_world()
        plan, _ = build_access_path(ub, {"d": (None, 0.05)}, memory_pages=8)
        assert any(row[2] > 0.05 for row in plan)


# ----------------------------------------------------------------------
# Hypothesis: random restrictions on one lossless and two lossy dimensions
# ----------------------------------------------------------------------
WORDS = ["A", "AB", "ABC", "ABD", "B", "BU", "BUILDING", "BUILT", "BUS", "C"]
DECIMALS = [step / 1000 for step in range(0, 1001, 3)]  # 0.054 is one of them


@lru_cache(maxsize=1)
def synthetic_world():
    schema = Schema(
        [
            Attribute("k", IntEncoder(0, 63)),
            Attribute("s", StringEncoder(prefix_chars=2)),
            Attribute("d", DecimalEncoder(0.0, 1.0, scale=2)),
        ]
    )
    rows = [
        (
            (index * 37) % 64,
            WORDS[(index * 7) % len(WORDS)],
            DECIMALS[(index * 53) % len(DECIMALS)],
        )
        for index in range(400)
    ]
    db = Database(buffer_pages=64)
    heap = db.create_heap_table("heap", schema, 8)
    heap.load(rows)
    iot = db.create_iot("iot", schema, key=("k", "s", "d"), page_capacity=8)
    iot.load(rows)
    ub = db.create_ub_table("ub", schema, dims=("k", "s", "d"), page_capacity=8)
    ub.load(rows)
    return heap, iot, ub, rows


def bounds(values):
    """``(lo, hi)`` with either end possibly open, possibly an empty range."""
    end = st.one_of(st.none(), values)
    return st.tuples(end, end)


restrictions_strategy = st.fixed_dictionaries(
    {},
    optional={
        "k": bounds(st.integers(0, 63)),
        "s": bounds(st.sampled_from(WORDS)),
        "d": bounds(st.sampled_from(DECIMALS)),
    },
)


def brute_force(rows, restrictions):
    def passes(row):
        for position, attr in enumerate("ksd"):
            lo, hi = restrictions.get(attr, (None, None))
            if lo is not None and row[position] < lo:
                return False
            if hi is not None and row[position] > hi:
                return False
        return True

    return sorted(row for row in rows if passes(row))


@given(restrictions=restrictions_strategy, sort=st.booleans())
@settings(max_examples=120, deadline=None)
def test_every_instance_equals_the_brute_force_filter(restrictions, sort):
    heap, iot, ub, rows = synthetic_world()
    expected = brute_force(rows, restrictions)
    bounded = {
        attr for attr, (lo, hi) in restrictions.items() if (lo, hi) != (None, None)
    }
    #: attributes whose every bound the access path enforces exactly: the
    #: IOT's leading key, the UB-Tree's one lossless dimension, nothing
    #: on a heap
    exact = {"heap": set(), "iot": {"k"}, "ub": {"k"}}
    sort_attrs = ("k",) if sort else ()
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            for table in (heap, iot, ub):
                plan, _ = build_access_path(
                    table, restrictions, sort_attrs, memory_pages=MEMORY_PAGES
                )
                got = list(plan)
                assert sorted(got) == expected, (table.name, backend)
                if sort:
                    keys = [row[0] for row in got]
                    assert keys == sorted(keys), (table.name, backend)
    for table in (heap, iot, ub):
        left = residual(table, restrictions, sort_attrs)
        assert (left is None) == (bounded <= exact[table.name]), table.name
