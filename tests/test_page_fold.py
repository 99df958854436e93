"""Q6's aggregate folds a page at a time, without building its rows.

``ScalarAggregate`` over a ``UBRangeScan`` with no residual predicate
hands each page to its aggregates where ``UBTree.range_query`` filters
it: ``Count`` adds the selection's length and a ``Sum`` of a
``ColumnProduct`` sums the page's product column through the kernel
(``sum_products``; on NumPy an ``int64`` column memoized on the page
view).  The differential here holds that to the left-to-right fold of
the rows the scan hands out, on both backends: int columns, products at
and past the ``int64`` bound (NumPy hands the page to the pure backend),
float and bool columns and a running float total (the aggregate folds
the page's rows), a residual predicate and a summand that names no
columns (the scan's batches), and empty scans.  The pin holds the NumPy
Q6 plan to building no row list; the kernel tests hold the memo to
``Page.version``, and ``check_page_fold`` to firing on a diverging
backend.
"""

from functools import reduce
from operator import add
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core import UBTree, ZSpace
from repro.core import ubtree as ubtree_module
from repro.invariants import InvariantViolation
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.relational.operators import (
    ColumnProduct,
    Count,
    ScalarAggregate,
    Sum,
    UBRangeScan,
)
from repro.storage import BufferPool, SimulatedDisk
from repro.tpcd import Q6Params, TPCDConfig, generate, plans, reference_q6, shuffled

from oracles import checks

BACKENDS = kernels.available_backends()
SCHEMA = Schema(
    [
        Attribute("a", IntEncoder(0, 31)),
        Attribute("b", IntEncoder(0, 31)),
        # payload columns: never encoded, so any Python value goes
        Attribute("x", IntEncoder(0, 1)),
        Attribute("y", IntEncoder(0, 1)),
    ]
)
PRODUCT = ColumnProduct(2, 3)

#: one payload column kind: a strategy for its values
COLUMNS = {
    "int": st.integers(-1000, 1000),
    # products of up to 2**66 in magnitude: pages past the int64 bound
    "wide": st.integers(-(2**33), 2**33),
    "float": st.floats(-1e6, 1e6, allow_nan=False),
    "bool": st.booleans(),
    # mostly ints: a float page turns the running total into a float
    "mixed": st.one_of(st.integers(-1000, 1000), st.just(0.5)),
}


def make_table(rows, capacity):
    db = Database(buffer_pages=8)
    table = db.create_ub_table("t", SCHEMA, dims=("a", "b"), page_capacity=capacity)
    table.load(rows)
    db.reset_measurement()
    return table


@st.composite
def scans(draw):
    kind = draw(st.sampled_from(sorted(COLUMNS)))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 31),
                st.integers(0, 31),
                COLUMNS[kind],
                COLUMNS[kind],
            ),
            max_size=120,
        )
    )
    lo = draw(st.tuples(st.integers(0, 31), st.integers(0, 31)))
    hi = draw(st.tuples(st.integers(lo[0], 31), st.integers(lo[1], 31)))
    box = {"a": (lo[0], hi[0]), "b": (lo[1], hi[1])}
    capacity = draw(st.sampled_from([2, 5, 9]))
    residual = draw(st.booleans())
    named = draw(st.booleans())  # the summand names its columns
    return rows, box, capacity, residual, named


@pytest.mark.parametrize("backend", BACKENDS)
@given(case=scans())
@settings(max_examples=120, deadline=None)
def test_page_fold_is_the_row_fold(backend, case):
    rows, box, capacity, residual, named = case
    table = make_table(rows, capacity)
    predicate = (lambda row: row[0] % 3 != 1) if residual else None
    summand = PRODUCT if named else (lambda row: row[2] * row[3])
    pairs = mock.Mock(wraps=ubtree_module.page_pairs)
    with kernels.use_backend(backend), checks():
        scanned = list(UBRangeScan(table, box, predicate))
        with mock.patch.object(ubtree_module, "page_pairs", pairs):
            plan = ScalarAggregate(
                UBRangeScan(table, box, predicate), [Sum(summand), Count()]
            )
            ((total, count),) = list(plan)
    expected = reduce(add, map(PRODUCT, scanned), 0)
    assert (total, count) == (expected, len(scanned))
    assert type(total) is type(expected)
    inside = [
        row for row in rows
        if box["a"][0] <= row[0] <= box["a"][1] and box["b"][0] <= row[1] <= box["b"][1]
    ]
    # only a residual or an unnamed summand gathers the scan's pairs
    assert pairs.called == (bool(inside) and (residual or not named))
    assert sorted(scanned, key=repr) == sorted(
        (row for row in inside if predicate is None or predicate(row)), key=repr
    )


@pytest.mark.skipif("numpy" not in BACKENDS, reason="the pin is NumPy's plan")
def test_numpy_q6_plan_builds_no_row_list():
    """The Q6 plan the benchmark times folds every page from the product
    column: the default pairs step is never called."""
    data = generate(TPCDConfig(scale_factor=0.05))
    db = Database(buffer_pages=32)
    table = db.create_ub_table(
        "lineitem_ub", data.lineitem_schema,
        ("l_shipdate", "l_discount", "l_quantity"),
        plans.lineitem_page_capacity(data),
    )
    table.bulk_load(shuffled(data.lineitems))

    def refused(page, selection):
        raise AssertionError("the Q6 plan built a row list")

    with kernels.use_backend("numpy"), checks():
        with mock.patch.object(ubtree_module, "page_pairs", refused):
            for params in (Q6Params(), Q6Params(discount=3, quantity_below=40)):
                plan = plans.q6_full_plan("tetris", db, table, params)
                assert list(plan) == [(reference_q6(data, params),)]


# ----------------------------------------------------------------------
# the kernel and its memo
# ----------------------------------------------------------------------
def one_page(*payloads):
    """A one-leaf UB-tree holding ``payloads`` at distinct points."""
    disk = SimulatedDisk()
    tree = UBTree(BufferPool(disk, capacity=8), ZSpace((4, 4)), page_capacity=16)
    tree.bulk_load(((index, 0), payload) for index, payload in enumerate(payloads))
    (page,) = [p for p in disk.iter_pages() if p.records]
    return tree, page


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "payloads, memo",
    [
        # len · max|product| < 2**63: the column serves
        ([(7, (2**63 - 1) // 7)], True),
        ([(1, 2**62 - 1), (-1, 5)], True),
        # len · max|product| >= 2**63 or a value not an int: the pure backend serves
        ([(2, 2**62)], False),
        ([(-2, 2**62)], False),
        ([(1, 2**62), (0, 0)], False),
        ([(2**40, 2**40)], False),
        ([(1.5, 2)], False),
        ([(True, 3)], False),
    ],
)
def test_sum_products_at_the_int64_bound(backend, payloads, memo):
    _, page = one_page(*payloads)
    selection = list(range(len(page.records)))
    rows = [payload for _, (_, payload) in page.records]

    def expected(chosen):  # None once a selected value is not an int
        if any(type(value) is not int for index in chosen for value in rows[index]):
            return None
        return sum(rows[index][0] * rows[index][1] for index in chosen)

    with kernels.use_backend(backend) as kernel:
        for chosen in (selection, selection[1:], selection[:1]):
            assert kernel.sum_products(page, chosen, (0, 1)) == expected(chosen)
        if backend == "numpy":
            column = kernel._page_view(page).product(page.records, (0, 1))
            assert (column is not None) is memo


@pytest.mark.skipif("numpy" not in BACKENDS, reason="the memo is NumPy's")
def test_product_column_follows_page_version():
    """A page folded, then grown by an insert and folded again: the sum
    is the new page's, so the memo did not outlive ``Page.version``."""
    tree, page = one_page((3, 4), (5, 6))
    with kernels.use_backend("numpy") as kernel:
        assert kernel.sum_products(page, [0, 1], (0, 1)) == 42
        tree.insert((2, 0), (10, 10))
        assert len(page.records) == 3
        everything = list(range(3))
        assert kernel.sum_products(page, everything, (0, 1)) == 142
        with checks():
            kernel.sum_products(page, everything, (0, 1))


@pytest.mark.skipif(
    "numpy" not in BACKENDS, reason="the check holds one backend to the other"
)
def test_a_stale_product_column_is_caught_at_its_page():
    """A payload rewritten without a ``Page.version`` bump: the memoized
    column and the pure backend's fold of the records now differ, and
    the aggregate's parity check names the page."""
    rows = [(a, b, a + 1, b + 2) for a in range(0, 32, 3) for b in range(0, 32, 5)]
    table = make_table(rows, capacity=5)
    box = {"a": (2, 30), "b": (0, 31)}
    aggregates = [Sum(PRODUCT)]
    with kernels.use_backend("numpy"):
        ((before,),) = list(ScalarAggregate(UBRangeScan(table, box), aggregates))
        page = next(
            page
            for page in table.db.disk.iter_pages()
            if page.records and 2 <= page.records[0][1][0][0] <= 30
        )
        key, (point, row) = page.records[0]
        page.records[0] = (key, (point, (*row[:2], row[2] + 1, row[3])))  # no bump!
        with checks(), pytest.raises(InvariantViolation, match="sum_products"):
            list(ScalarAggregate(UBRangeScan(table, box), aggregates))
        page.version += 1  # honest: the fold follows
        with checks():
            ((after,),) = list(ScalarAggregate(UBRangeScan(table, box), aggregates))
        assert after == before + row[3]
