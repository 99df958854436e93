"""Every operator hands over batches, and pulls like the row loop it replaced.

``batches()`` is the one method an operator implements.  These tests hold
the four operators that moved last — ``IOTScan``, ``SortedGroupBy``,
``Limit`` and ``FirstTupleTimer`` — to row-at-a-time references: the
same rows (sums bit for bit), the same ``IOStats``, the same pages in the
same order, the same clocks, and every input batch pulled exactly where
the row loop would have pulled its first row.
"""

import random
from itertools import chain, groupby, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.btree import TOP
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.relational.operators import (
    Count,
    FirstTupleTimer,
    IOTScan,
    Limit,
    Operator,
    SortedGroupBy,
    Sum,
)
from repro.relational.operators.base import batches_of

BACKENDS = kernels.available_backends()
#: leading-key windows: open, two-sided, one-sided, a point, past the domain
WINDOWS = [(None, None), (10, 50), (None, 20), (40, None), (30, 30), (70, 80)]


def make_iot(seed=3, count=300):
    schema = Schema(
        [
            Attribute("a", IntEncoder(0, 63)),
            Attribute("b", IntEncoder(0, 63)),
            Attribute("v", IntEncoder(-1000, 1000)),
        ]
    )
    db = Database(buffer_pages=16)
    table = db.create_iot("t", schema, key=("a", "b"), page_capacity=5)
    rng = random.Random(seed)
    rows = [
        (rng.randrange(64), rng.randrange(64), rng.randrange(-1000, 1001))
        for _ in range(count)
    ]
    for row in rows:  # inserts: leaves part full after their splits
        table.insert(row)
    db.reset_measurement()
    return db, table, rows


def residual(row):
    return row[2] % 3 != 0


def record_leaf_gets(db):
    """Every leaf the scan asks the pool for, in order."""
    gets = []
    get = db.buffer.get

    def recorded(page_id, **how):
        page = get(page_id, **how)
        if isinstance(page.payload, dict):
            gets.append(page_id)
        return page

    db.buffer.get = recorded
    return gets


def row_iot_scan(table, lo, hi, predicate):
    """``IOTScan`` as it was: the B+-tree's row loop over leaf snapshots,
    one row per pull."""
    tree = table.tree
    low = None if lo is None else (lo,)
    high = None if hi is None else (hi, TOP)
    page_id = tree.first_leaf_id if low is None else tree._locate(low)[0]
    while page_id is not None:
        leaf = tree._fetch(page_id, charge=True)
        records, page_id = list(leaf.records), leaf.payload["next"]
        for key, row in records:
            if low is not None and key < low:
                continue
            if high is not None and key > high:
                return
            if predicate is None or predicate(row):
                yield row


class RowTimer:
    """``FirstTupleTimer`` as it was: clocks read around a row loop."""

    def __init__(self, child, disk):
        self.child, self.disk = child, disk
        self.start_clock = self.first_clock = self.end_clock = None
        self.row_count = 0

    def __iter__(self):
        self.start_clock = self.disk.clock
        for row in self.child:
            if self.first_clock is None:
                self.first_clock = self.disk.clock
            self.row_count += 1
            yield row
        self.end_clock = self.disk.clock


def clocks(timer):
    return (timer.start_clock, timer.first_clock, timer.end_clock, timer.row_count)


# ----------------------------------------------------------------------
# IOTScan: one list per leaf, the row loop's rows, reads and clocks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("with_residual", [False, True])
def test_iot_scan_yields_one_list_per_leaf_it_read(backend, with_residual):
    """Each pull reads leaves without a survivor and then exactly one
    leaf with one, and hands over that leaf's survivors in key order."""
    lo, hi = 10, 50
    predicate = residual if with_residual else None
    with kernels.use_backend(backend):
        db, table, _ = make_iot()
        gets = record_leaf_gets(db)

        def survivors(page_id):
            return [
                row
                for _, row in db.disk.peek(page_id).records
                if lo <= row[0] <= hi and (predicate is None or predicate(row))
            ]

        pulls = []
        for batch in IOTScan(table, lo, hi, predicate=predicate).batches():
            pulls.append((list(gets), batch))
            gets.clear()
    assert len(pulls) > 10
    for leaves, batch in pulls:
        *empty, leaf = leaves
        assert all(not survivors(page_id) for page_id in empty)
        assert batch == survivors(leaf)
    assert all(not survivors(page_id) for page_id in gets)  # the leaf past hi
    read = [page_id for leaves, _ in pulls for page_id in leaves] + gets
    assert len(read) == len(set(read))  # each leaf once
    if not with_residual:
        assert all(len(leaves) == 1 for leaves, _ in pulls)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("with_residual", [False, True])
@pytest.mark.parametrize("lo, hi", WINDOWS)
def test_iot_scan_replays_the_row_loop(backend, with_residual, lo, hi):
    """Rows, ``IOStats``, the leaf-read order and a timer's clocks equal a
    row-at-a-time drain of a twin table."""
    predicate = residual if with_residual else None
    with kernels.use_backend(backend):
        db, table, loaded = make_iot()
        twin_db, twin, _ = make_iot()
        gets, twin_gets = record_leaf_gets(db), record_leaf_gets(twin_db)
        timer = FirstTupleTimer(IOTScan(table, lo, hi, predicate=predicate), db.disk)
        reference = RowTimer(row_iot_scan(twin, lo, hi, predicate), twin_db.disk)
        rows, expected = list(timer), list(reference)
    assert rows == expected
    assert gets == twin_gets
    assert repr(db.disk.stats) == repr(twin_db.disk.stats)
    assert clocks(timer) == clocks(reference)
    low, high = -1 if lo is None else lo, 64 if hi is None else hi
    assert sorted(rows) == sorted(
        row
        for row in loaded
        if low <= row[0] <= high and (predicate is None or predicate(row))
    )
    assert rows == sorted(rows, key=lambda row: row[:2])


# ----------------------------------------------------------------------
# SortedGroupBy, Limit: pulls where the row loop pulled
# ----------------------------------------------------------------------
class Cuts(Operator):
    """A sorted input handed over in the given lists.  ``log`` notes each
    pull, with the output rows the consumer had taken by then."""

    def __init__(self, cuts, log):
        self.cuts = cuts
        self.log = log
        self.pulls = 0

    def batches(self):
        for batch in [*self.cuts, None]:
            self.pulls += 1
            self.log.append(("pull", self.log.taken))
            if batch is None:
                return
            yield list(batch)


class Log(list):
    taken = 0


def drain_rows(plan, log):
    """Take ``plan``'s output a row at a time."""
    out = []
    for row in plan:
        out.append(row)
        log.taken += 1
    return out


def drain_batches(operator, log):
    """Take ``operator``'s output a list at a time, noting each list."""
    out = []
    for batch in operator.batches():
        assert batch, "an operator never yields an empty list"
        log.append(("list", len(batch)))
        out.append(batch)
        log.taken += len(batch)
    return out


def pulls_of(log):
    return [entry for entry in log if entry[0] == "pull"]


def row_group_by(child, key, aggregates):
    """``SortedGroupBy`` as it was: ``groupby`` over the row stream, each
    group folded whole."""
    rows_in = chain.from_iterable(batches_of(child))
    for group_key, group in groupby(rows_in, key=key):
        rows = list(group)
        yield tuple(group_key) + tuple(agg.fold(0, rows) for agg in aggregates)


def grouped_rows(rng, count):
    """Key-sorted rows whose float sums depend on the order of addition."""
    rows, key = [], 0
    while len(rows) < count:
        key += rng.randrange(1, 3)
        for _ in range(rng.choice([1, 1, 2, 3, 7])):
            magnitude = 10.0 ** rng.randrange(-3, 9)
            rows.append((key, rng.choice([-1, 1]) * rng.random() * magnitude))
    return rows[:count]


def cut_at(rows, cuts):
    bounds = [0, *sorted({cut for cut in cuts if 0 < cut < len(rows)}), len(rows)]
    return [rows[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]


GROUP_KEY = lambda row: (row[0],)  # noqa: E731
VALUE = lambda row: row[1]  # noqa: E731


def assert_group_by_replays(cuts):
    """The batched group-by against the row loop on the same cuts."""
    log, row_log = Log(), Log()
    aggregates = [Sum(VALUE), Count()]
    lists = drain_batches(SortedGroupBy(Cuts(cuts, log), GROUP_KEY, aggregates), log)
    expected = drain_rows(row_group_by(Cuts(cuts, row_log), GROUP_KEY, aggregates), row_log)
    assert repr([row for batch in lists for row in batch]) == repr(expected)
    assert pulls_of(log) == pulls_of(row_log)
    # at most one list between two pulls: one per input batch, the last
    # group alone after the input is used up
    kinds = [kind for kind, _ in log]
    assert ("list", "list") not in zip(kinds, kinds[1:])
    return lists


@pytest.mark.parametrize("backend", BACKENDS)
def test_group_spanning_batches_is_folded_bit_identically(backend):
    # keys 1 | 1 1 2 | 2 | 2 3 3 4 | 5: groups 1 and 2 span batches
    values = [0.1, 1e16, -1e16, 0.3, 0.2, 1e-3, 7.0, 0.7, 0.6, 5.0, 9.0]
    keys = [1, 1, 1, 2, 2, 2, 3, 3, 4, 5, 5]
    rows = list(zip(keys, values))
    cuts = [rows[:1], rows[1:4], rows[4:5], rows[5:9], rows[9:]]
    with kernels.use_backend(backend):
        lists = assert_group_by_replays(cuts)
    assert [[row[0] for row in batch] for batch in lists] == [[1], [2, 3], [4], [5]]
    # the group over three batches adds left to right, as the row loop
    assert lists[0][0][1] == (0.1 + 1e16) + -1e16
    assert lists[0][0][1] != 0.1 + (1e16 + -1e16)


@pytest.mark.parametrize("backend", BACKENDS)
@given(seed=st.integers(0, 10_000), count=st.integers(0, 80))
@settings(max_examples=30, deadline=None)
def test_group_by_replays_the_row_loop(backend, seed, count):
    rng = random.Random(seed)
    rows = grouped_rows(rng, count)
    cuts = cut_at(rows, [rng.randrange(count + 1) for _ in range(rng.randrange(8))])
    with kernels.use_backend(backend):
        assert_group_by_replays(cuts)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 9, 10, 11, 50])
def test_limit_stops_without_an_extra_pull(backend, count):
    rows = [(index,) for index in range(10)]
    ends = [4, 5, 9, 10]
    cuts = cut_at(rows, ends)  # lists of 4, 1, 4, 1 rows
    log, row_log = Log(), Log()
    with kernels.use_backend(backend):
        limit = Limit(Cuts(cuts, log), count)
        lists = drain_batches(limit, log)
        row_loop = islice(chain.from_iterable(Cuts(cuts, row_log).batches()), count)
        expected = drain_rows(row_loop, row_log)
    assert [row for batch in lists for row in batch] == expected == rows[:count]
    assert pulls_of(log) == pulls_of(row_log)
    # every list is a prefix of one input list, cut only at the last row
    assert lists == cut_at(rows[:count], ends)
    # the list holding the last row wanted is the last pulled; a count
    # past the input takes the pull that finds it used up
    holding = [end >= count for end in ends].index(True) if count <= 10 else len(cuts)
    assert limit.child.pulls == (0 if count == 0 else holding + 1)
