"""The UB range scan hands its consumer one batch per data page.

``UBRangeScan.batches()`` is the scan's own unit: one list per data page
read that has a survivor, taken when that page is pulled.  These tests
pin the pull granularity — which pages a pull reads, and that a
``Limit`` stops at the page holding its last row — and that aggregating
the batches gives what a row-at-a-time pass gives.
"""

import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.relational.operators import (
    Count,
    Limit,
    ScalarAggregate,
    Sum,
    UBRangeScan,
)

BACKENDS = kernels.available_backends()
BOX = {"a": (3, 50), "b": (10, 60)}


def make_table(count=400, seed=7, capacity=5):
    schema = Schema(
        [
            Attribute("a", IntEncoder(0, 63)),
            Attribute("b", IntEncoder(0, 63)),
            Attribute("v", IntEncoder(-1000, 1000)),
        ]
    )
    db = Database(buffer_pages=16)
    table = db.create_ub_table("t", schema, dims=("a", "b"), page_capacity=capacity)
    rng = random.Random(seed)
    rows = [
        (rng.randrange(64), rng.randrange(64), rng.randrange(-1000, 1001))
        for _ in range(count)
    ]
    table.load(rows)
    db.reset_measurement()
    return db, table, rows


def record_gets(db):
    """Every data page the scan asks the pool for, in order."""
    gets = []
    get = db.buffer.get

    def recorded(page_id, **how):
        gets.append(page_id)
        return get(page_id, **how)

    db.buffer.get = recorded
    return gets


def survivors(db, table, page_id, predicate):
    """The rows of a data page that the scan must hand over, unpriced."""
    box = table.build_query_box(BOX)
    return [
        row
        for _, (point, row) in db.disk.peek(page_id).records
        if box.contains_point(point) and predicate(row)
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("residual", [False, True])
def test_one_batch_per_data_page_with_a_survivor(backend, residual):
    """Each pull reads pages without a survivor and then exactly one page
    with one, and hands over that page's survivors in page order."""
    predicate = (lambda row: row[2] % 3 != 0) if residual else (lambda row: True)
    db, table, _ = make_table()
    gets = record_gets(db)
    with kernels.use_backend(backend):
        scan = UBRangeScan(table, BOX, predicate=predicate if residual else None)
        pulls = []
        for batch in scan.batches():
            pulls.append((list(gets), batch))
            gets.clear()
        assert not gets or all(not survivors(db, table, p, predicate) for p in gets)
    assert len(pulls) > 10
    for pages, batch in pulls:
        *empty, page_id = pages
        assert all(not survivors(db, table, p, predicate) for p in empty)
        assert batch == survivors(db, table, page_id, predicate)
    read = [page_id for pages, _ in pulls for page_id in pages]
    assert len(read) == len(set(read))  # each page once


@pytest.mark.parametrize("backend", BACKENDS)
def test_limit_reads_no_page_past_its_last_row(backend):
    db, table, _ = make_table()
    gets = record_gets(db)
    with kernels.use_backend(backend):
        ends, read_by = [], []  # rows and pages read after each pull
        for batch in UBRangeScan(table, BOX).batches():
            ends.append((ends[-1] if ends else 0) + len(batch))
            read_by.append(list(gets))
        read_all = list(gets)
        total = ends[-1]
        for count in (1, ends[0], ends[0] + 1, total // 2, total, total + 5):
            gets.clear()
            assert len(list(Limit(UBRangeScan(table, BOX), count))) == min(count, total)
            if count > total:
                assert gets == read_all
            else:
                holding = next(pull for pull, end in enumerate(ends) if end >= count)
                assert gets == read_by[holding], count


@pytest.mark.parametrize("backend", BACKENDS)
@given(seed=st.integers(0, 10_000), count=st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_page_batched_aggregate_is_the_row_at_a_time_fold(backend, seed, count):
    _, table, loaded = make_table(count=count, seed=seed, capacity=4)
    with kernels.use_backend(backend):
        rows = list(UBRangeScan(table, BOX))
        value = lambda row: row[2] * 7  # noqa: E731
        out = list(ScalarAggregate(UBRangeScan(table, BOX), [Sum(value), Count()]))
    assert out == [(reduce(lambda acc, row: acc + value(row), rows, 0), len(rows))]
    assert sorted(rows) == sorted(
        row for row in loaded if 3 <= row[0] <= 50 and 10 <= row[1] <= 60
    )
