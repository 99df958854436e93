"""Tests for the TPC-D substrate: generator, reference queries, plans."""

import datetime as dt

import pytest

from repro.relational.operators import FirstTupleTimer
from repro.relational.table import Database
from repro.tpcd import (
    Q3Params,
    Q4Params,
    Q6Params,
    TPCDConfig,
    generate,
    reference_q3,
    reference_q4,
    reference_q6,
    shuffled,
)
from repro.tpcd import plans
from repro.tpcd.queries import (
    L_COMMITDATE,
    L_ORDERKEY,
    L_RECEIPTDATE,
    L_SHIPDATE,
    O_ORDERDATE,
    O_ORDERKEY,
    q6_matches,
)


@pytest.fixture(scope="module")
def data():
    return generate(TPCDConfig(scale_factor=0.1))


class TestGenerator:
    def test_row_counts(self, data):
        config = data.config
        assert len(data.customers) == config.customer_count == 150
        assert len(data.orders) == config.order_count == 1500
        # 1..7 lineitems per order, so about 4x on average
        ratio = len(data.lineitems) / len(data.orders)
        assert 3.0 <= ratio <= 5.0

    def test_deterministic(self, data):
        again = generate(TPCDConfig(scale_factor=0.1))
        assert again.lineitems == data.lineitems
        assert again.orders == data.orders
        assert again.customers == data.customers

    def test_seed_changes_data(self, data):
        other = generate(TPCDConfig(scale_factor=0.1, seed=1))
        assert other.lineitems != data.lineitems

    def test_keys_dense_and_unique(self, data):
        orderkeys = [o[O_ORDERKEY] for o in data.orders]
        assert orderkeys == list(range(1, len(orderkeys) + 1))
        custkeys = {c[0] for c in data.customers}
        assert custkeys == set(range(1, len(data.customers) + 1))

    def test_date_correlations(self, data):
        order_dates = {o[O_ORDERKEY]: o[O_ORDERDATE] for o in data.orders}
        for item in data.lineitems[:500]:
            orderdate = order_dates[item[L_ORDERKEY]]
            assert item[L_SHIPDATE] > orderdate
            assert item[L_COMMITDATE] > orderdate
            assert item[L_RECEIPTDATE] > item[L_SHIPDATE]

    def test_rows_encodable(self, data):
        """Every generated row must fit its schema's encoders."""
        lineitem_schema = data.lineitem_schema
        dims = ("l_orderkey", "l_shipdate", "l_discount", "l_quantity")
        for item in data.lineitems[:300]:
            point = lineitem_schema.encode_point(item, dims)
            assert all(v >= 0 for v in point)

    def test_shuffled_is_permutation(self, data):
        mixed = shuffled(data.orders)
        assert mixed != data.orders
        assert sorted(mixed) == sorted(data.orders)

    def test_selectivities_near_paper(self, data):
        def fraction(rows, predicate):
            return sum(1 for row in rows if predicate(row)) / len(rows)

        q3, q4, q6 = Q3Params(), Q4Params(), Q6Params()
        q3_items = fraction(data.lineitems, lambda r: r[L_SHIPDATE] > q3.shipdate_after)
        q4_orders = fraction(
            data.orders,
            lambda r: q4.orderdate_from <= r[O_ORDERDATE] < q4.orderdate_until,
        )
        q6_items = fraction(data.lineitems, lambda r: q6_matches(r, q6))
        assert q3_items == pytest.approx(0.50, abs=0.05)
        assert q4_orders == pytest.approx(0.035, abs=0.015)
        assert q6_items == pytest.approx(1 / 30, abs=0.02)


class TestReferenceQueries:
    def test_q3_reference_ordering(self, data):
        rows = reference_q3(data)
        revenues = [row[3] for row in rows]
        assert revenues == sorted(revenues, reverse=True)

    def test_q4_reference_covers_all_priorities(self, data):
        rows = reference_q4(data)
        assert 1 <= len(rows) <= 5
        assert all(count > 0 for _, count in rows)

    def test_q6_reference_positive(self, data):
        assert reference_q6(data) > 0


class TestQ3Plans:
    @pytest.fixture(scope="class")
    def setup(self, data):
        db = Database(buffer_pages=128)
        return {
            "db": db,
            "heap": plans.build_lineitem_heap(db, data),
            "iot_ok": plans.build_lineitem_iot(db, data, "l_orderkey"),
            "iot_sd": plans.build_lineitem_iot(db, data, "l_shipdate"),
            "ub": plans.build_lineitem_ub_sort(db, data),
        }

    @pytest.mark.parametrize(
        "method,table_key",
        [
            ("tetris", "ub"),
            ("fts-sort", "heap"),
            ("iot-orderkey", "iot_ok"),
            ("iot-shipdate", "iot_sd"),
        ],
    )
    def test_all_methods_agree(self, data, setup, method, table_key):
        params = Q3Params()
        expected = sorted(
            (r for r in data.lineitems if r[L_SHIPDATE] > params.shipdate_after),
            key=lambda r: (r[L_ORDERKEY], r[1]),
        )
        setup["db"].reset_measurement()
        plan, _ = plans.q3_lineitem_access(method, setup["db"], setup[table_key], params)
        out = list(plan)
        assert [r[L_ORDERKEY] for r in out] == [r[L_ORDERKEY] for r in expected]
        assert sorted(out) == sorted(expected)

    def test_unknown_method_rejected(self, data, setup):
        with pytest.raises(ValueError):
            plans.q3_lineitem_access("magic", setup["db"], setup["heap"])

    def test_full_plan_tetris_matches_reference(self, data, setup):
        db = setup["db"]
        customer_ub = plans.build_customer_ub(db, data)
        order_ub = plans.build_order_ub(db, data)
        params = Q3Params()
        lineitem_plan, _ = plans.q3_lineitem_access("tetris", db, setup["ub"], params)
        plan = plans.q3_full_plan(
            db, customer_ub, order_ub, lineitem_plan, params, use_tetris=True
        )
        got = list(plan)
        expected = reference_q3(data, params)
        assert len(got) == len(expected)
        assert {r[0] for r in got} == {r[0] for r in expected}
        assert [r[3] for r in got] == [r[3] for r in expected]

    def test_full_plan_classic_matches_reference(self, data, setup):
        db = setup["db"]
        customer_heap = plans.build_customer_heap(db, data)
        order_heap = plans.build_order_heap(db, data)
        params = Q3Params()
        lineitem_plan, _ = plans.q3_lineitem_access("fts-sort", db, setup["heap"], params)
        plan = plans.q3_full_plan(
            db, customer_heap, order_heap, lineitem_plan, params, use_tetris=False
        )
        got = list(plan)
        expected = reference_q3(data, params)
        assert len(got) == len(expected)
        assert [r[3] for r in got] == [r[3] for r in expected]


class TestQ4Plans:
    @pytest.fixture(scope="class")
    def setup(self, data):
        db = Database(buffer_pages=128)
        return {
            "db": db,
            "heap": plans.build_order_heap(db, data),
            "iot_ok": plans.build_order_iot(db, data, "o_orderkey"),
            "iot_od": plans.build_order_iot(db, data, "o_orderdate"),
            "ub": plans.build_order_ub(db, data),
        }

    @pytest.mark.parametrize(
        "method,table_key",
        [
            ("tetris", "ub"),
            ("fts-sort", "heap"),
            ("iot-orderkey", "iot_ok"),
            ("iot-orderdate", "iot_od"),
        ],
    )
    def test_all_methods_agree(self, data, setup, method, table_key):
        params = Q4Params()
        expected = sorted(
            (
                o
                for o in data.orders
                if params.orderdate_from <= o[O_ORDERDATE] < params.orderdate_until
            ),
            key=lambda o: o[O_ORDERKEY],
        )
        setup["db"].reset_measurement()
        plan, _ = plans.q4_order_access(method, setup["db"], setup[table_key], params)
        assert list(plan) == expected

    def test_full_plan_matches_reference(self, data, setup):
        db = setup["db"]
        lineitem_ub = plans.build_lineitem_ub_q4(db, data)
        params = Q4Params()
        order_plan, _ = plans.q4_order_access("tetris", db, setup["ub"], params)
        plan = plans.q4_full_plan(db, order_plan, lineitem_ub, params)
        assert list(plan) == reference_q4(data, params)

    def test_unknown_method_rejected(self, data, setup):
        with pytest.raises(ValueError):
            plans.q4_order_access("magic", setup["db"], setup["heap"])


class TestQ6Plans:
    @pytest.fixture(scope="class")
    def setup(self, data):
        db = Database(buffer_pages=128)
        return {
            "db": db,
            "heap": plans.build_lineitem_heap(db, data),
            "ub": plans.build_lineitem_ub_range(db, data),
            "iot_sd": plans.build_lineitem_iot(db, data, "l_shipdate"),
            "iot_di": plans.build_lineitem_iot(db, data, "l_discount"),
            "iot_qt": plans.build_lineitem_iot(db, data, "l_quantity"),
        }

    @pytest.mark.parametrize(
        "method,table_key",
        [
            ("tetris", "ub"),
            ("fts", "heap"),
            ("iot-shipdate", "iot_sd"),
            ("iot-discount", "iot_di"),
            ("iot-quantity", "iot_qt"),
        ],
    )
    def test_all_methods_compute_same_sum(self, data, setup, method, table_key):
        expected = reference_q6(data)
        setup["db"].reset_measurement()
        plan = plans.q6_full_plan(method, setup["db"], setup[table_key])
        ((total,),) = [tuple(r) for r in plan]
        assert total == expected

    def test_tetris_reads_fewer_pages_than_fts(self, data, setup):
        db = setup["db"]
        db.reset_measurement()
        before = db.disk.snapshot()
        list(plans.q6_restriction_plan("tetris", db, setup["ub"]))
        tetris_reads = (db.disk.snapshot() - before).pages_read
        db.reset_measurement()
        before = db.disk.snapshot()
        list(plans.q6_restriction_plan("fts", db, setup["heap"]))
        fts_reads = (db.disk.snapshot() - before).pages_read
        assert tetris_reads < fts_reads

    def test_unknown_method_rejected(self, data, setup):
        with pytest.raises(ValueError):
            plans.q6_restriction_plan("magic", setup["db"], setup["heap"])


class TestParamsProperties:
    def test_q6_until_derived(self):
        params = Q6Params(shipdate_from=dt.date(1994, 1, 1), shipdate_days=365)
        assert params.shipdate_until == dt.date(1995, 1, 1)

    def test_q4_defaults_are_three_months(self):
        params = Q4Params()
        assert (params.orderdate_until - params.orderdate_from).days == 90
