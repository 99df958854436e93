"""Tests for the streaming TPC-D generator API (``repro.tpcd.datagen``).

The streaming family's contract: seed-deterministic, O(batch) memory
(pure generators — nothing is materialized), and *prefix-stable*: the
SF 0.01 stream is a literal prefix of the SF 1 stream, so a scaled-down
test dataset and a full benchmark dataset agree row for row where they
overlap.
"""

from itertools import islice

import pytest

from repro.tpcd import TPCDConfig, datagen, stream_lineitems
from repro.tpcd.schema import ANYDATE_HI, MKTSEGMENTS, ORDERDATE_LO

SMALL = TPCDConfig(scale_factor=0.01)
LARGE = TPCDConfig(scale_factor=0.5)

# The engine streams LINEITEM only (sharded loads); the order and
# customer streams below are built the same way from its per-entity
# RNG, so they hold that derivation to the same contract.
CUSTOMER_TAG = 0x1099


def stream_customers(config):
    """CUSTOMER rows one at a time, prefix-stable across scale factors."""
    for custkey in range(1, config.customer_count + 1):
        rng = datagen._entity_rng(config, CUSTOMER_TAG, custkey)
        yield (custkey, MKTSEGMENTS[rng.randrange(len(MKTSEGMENTS))])


def stream_orders(config):
    """ORDER rows one at a time: the rows ``stream_lineitems`` derives
    its dates from."""
    for orderkey in range(1, config.order_count + 1):
        yield datagen._order_row(config, orderkey)


def in_batches(rows, batch_size):
    """Group a row stream into lists of ``batch_size`` (last one short)."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    batch = []
    for row in rows:
        batch.append(row)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


class TestDeterminism:
    def test_streams_replay_identically(self):
        assert list(stream_customers(SMALL)) == list(stream_customers(SMALL))
        assert list(stream_orders(SMALL)) == list(stream_orders(SMALL))
        assert list(stream_lineitems(SMALL)) == list(stream_lineitems(SMALL))

    def test_seed_changes_the_stream(self):
        reseeded = TPCDConfig(scale_factor=0.01, seed=7)
        assert list(stream_orders(SMALL)) != list(stream_orders(reseeded))


class TestPrefixStability:
    def test_customers(self):
        small = list(stream_customers(SMALL))
        assert small == list(islice(stream_customers(LARGE), len(small)))

    def test_orders(self):
        small = list(stream_orders(SMALL))
        assert small == list(islice(stream_orders(LARGE), len(small)))

    def test_lineitems(self):
        small = list(stream_lineitems(SMALL))
        assert small == list(islice(stream_lineitems(LARGE), len(small)))


class TestShape:
    def test_row_counts_match_config(self):
        assert sum(1 for _ in stream_customers(SMALL)) == SMALL.customer_count
        assert sum(1 for _ in stream_orders(SMALL)) == SMALL.order_count

    def test_keys_are_dense_and_ordered(self):
        orderkeys = [row[0] for row in stream_orders(SMALL)]
        assert orderkeys == list(range(1, SMALL.order_count + 1))

    def test_custkeys_stay_in_domain(self):
        for _, custkey, *_ in stream_orders(SMALL):
            assert 1 <= custkey <= SMALL.customer_count

    def test_lineitem_ratios_and_domains(self):
        rows = list(stream_lineitems(SMALL))
        per_order = SMALL.max_lineitems_per_order
        assert SMALL.order_count <= len(rows) <= SMALL.order_count * per_order
        for row in rows:
            orderkey, linenumber, ship, commit, receipt, disc, qty, price = row
            assert 1 <= linenumber <= per_order
            assert ORDERDATE_LO <= ship <= ANYDATE_HI
            assert ORDERDATE_LO <= commit <= ANYDATE_HI
            assert ORDERDATE_LO <= receipt <= ANYDATE_HI
            assert 0 <= disc <= 10
            assert 1 <= qty <= 50
            assert price <= 11_000_000

    def test_lineitems_grouped_by_order(self):
        orderkeys = [row[0] for row in stream_lineitems(SMALL)]
        assert orderkeys == sorted(orderkeys)


class TestBatches:
    def test_batches_partition_the_stream(self):
        rows = list(stream_lineitems(SMALL))
        batches = list(in_batches(stream_lineitems(SMALL), 64))
        assert [row for batch in batches for row in batch] == rows
        assert all(len(batch) == 64 for batch in batches[:-1])
        assert 1 <= len(batches[-1]) <= 64

    def test_rejects_nonpositive_batch_size(self):
        with pytest.raises(ValueError):
            list(in_batches(iter([]), 0))
