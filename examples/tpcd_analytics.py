"""TPC-D analytics: Q3, Q4 and Q6 end to end, Tetris vs. classic plans.

Recreates the paper's Section 5 scenario at mini scale: the same logical
queries executed against different physical organizations of the same
data, all on one simulated disk, with simulated response times printed
side by side.

Run:  python examples/tpcd_analytics.py [scale_factor]
"""

import sys

from repro.relational.operators import Count, FirstTupleTimer, ScalarAggregate, Sum
from repro.relational.table import Database
from repro.storage import ICDE99_TESTBED
from repro.tpcd import TPCDConfig, generate, reference_q3, reference_q4, reference_q6
from repro.tpcd import plans
from repro.tpcd.queries import Q3Params, Q4Params, Q6Params, discounted_numerator


def run_timed(db, plan):
    db.reset_measurement()
    before = db.disk.snapshot()
    timer = FirstTupleTimer(plan, db.disk)
    rows = list(timer)
    delta = db.disk.snapshot() - before
    return rows, timer, delta


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    data = generate(TPCDConfig(scale_factor=scale))
    print(
        f"TPC-D mini at SF {scale}: {len(data.customers)} customers, "
        f"{len(data.orders)} orders, {len(data.lineitems)} lineitems\n"
    )

    # ------------------------------------------------------------------
    # Q3: restrictions + joins + grouping + ordering
    # ------------------------------------------------------------------
    db = Database(ICDE99_TESTBED, buffer_pages=256)
    params3 = Q3Params()
    customer_ub = plans.build_customer_ub(db, data)
    order_ub = plans.build_order_ub(db, data)
    lineitem_ub = plans.build_lineitem_ub_sort(db, data)
    customer_heap = plans.build_customer_heap(db, data)
    order_heap = plans.build_order_heap(db, data)
    lineitem_heap = plans.build_lineitem_heap(db, data)

    tetris_access, _ = plans.q3_lineitem_access("tetris", db, lineitem_ub, params3)
    tetris_plan = plans.q3_full_plan(
        db, customer_ub, order_ub, tetris_access, params3, use_tetris=True
    )
    rows_t, timer_t, io_t = run_timed(db, tetris_plan)

    classic_access, _ = plans.q3_lineitem_access("fts-sort", db, lineitem_heap, params3)
    classic_plan = plans.q3_full_plan(
        db, customer_heap, order_heap, classic_access, params3, use_tetris=False
    )
    rows_c, timer_c, io_c = run_timed(db, classic_plan)

    reference = reference_q3(data, params3)
    assert [r[3] for r in rows_t] == [r[3] for r in reference]
    assert [r[3] for r in rows_c] == [r[3] for r in reference]

    print("Q3 (shipping priority) — identical results from both plans")
    print(f"  Tetris operator tree : {io_t.time:8.2f} s simulated")
    print(f"  classic FTS/hash tree: {io_c.time:8.2f} s simulated")
    print(f"  top result group     : {rows_t[0][:3]} revenue={rows_t[0][3]}\n")

    # ------------------------------------------------------------------
    # Q4: EXISTS semijoin through the triangular query space
    # ------------------------------------------------------------------
    params4 = Q4Params()
    lineitem_q4 = plans.build_lineitem_ub_q4(db, data)
    order_access, _ = plans.q4_order_access("tetris", db, order_ub, params4)
    q4_plan = plans.q4_full_plan(db, order_access, lineitem_q4, params4)
    rows4, timer4, io4 = run_timed(db, q4_plan)
    assert rows4 == reference_q4(data, params4)
    print("Q4 (order priority checking) — COMMITDATE < RECEIPTDATE pushed")
    print("  into the sweep as a non-rectangular query space")
    print(f"  result: {rows4}")
    print(f"  simulated time: {io4.time:.2f} s\n")

    # ------------------------------------------------------------------
    # Q6: multi-attribute restriction
    # ------------------------------------------------------------------
    params6 = Q6Params()
    lineitem_range = plans.build_lineitem_ub_range(db, data)
    expected6 = reference_q6(data, params6)
    print("Q6 (forecasting revenue change) — response time per access method")
    for method, table in [
        ("tetris", lineitem_range),
        ("fts", lineitem_heap),
    ]:
        plan = plans.q6_full_plan(method, db, table, params6)
        rows6, _, io6 = run_timed(db, plan)
        assert rows6[0][0] == expected6
        print(f"  {method:8s}: {io6.time:8.2f} s simulated")
    # SUM and COUNT over the UB range query: each page is folded where the
    # query filters it, from the page's product column, no row built
    restricted = plans.q6_restriction_plan("tetris", db, lineitem_range, params6)
    ((revenue, count),) = ScalarAggregate(
        restricted, [Sum(discounted_numerator), Count()]
    )
    assert revenue == expected6
    print(f"  revenue numerator: {revenue} (cent-percent units) over {count} lineitems")
    # the restriction alone streams the qualifying rows, a page at a time
    rows6, timer6, _ = run_timed(db, restricted)
    assert len(rows6) == count
    print(f"  restriction: first row after {timer6.time_to_first:.3f} s simulated")


if __name__ == "__main__":
    main()
