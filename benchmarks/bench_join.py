"""Pipelined join ladder benchmark (simulated clock) -> BENCH_join.json.

One measurement backs the pipelined-join PR's performance claims: Q3
and Q4 run end-to-end through the full plan ladder on a *correlated*
TPC-D instance (``correlated_dates=True`` — orderdate nearly monotone
in orderkey, the layout of an order table grown over time):

* ``classic``   — FTS + external merge sort feeding the join,
* ``tetris``    — Tetris operator tree (no pushdown),
* ``pushdown``  — the restricted build side evaluated first, its
  join keys coalesced into a bounded interval cover and pushed into
  the LINEITEM sweep (``planner/pushdown.py``), which then *skips*
  whole Z-regions holding no qualifying key,
* ``sharded``   — the core join co-partitioned over k = 1..8 range
  shards on the join key (:class:`~repro.shard.CoPartitionedJoin`),
  every k bit-identical to the serial join and monotone in simulated
  elapsed time (measured on an *uncorrelated* instance so the range
  shards carry balanced work — see :func:`bench_sharded_joins`),

plus a dual-cursor overlap measurement: the Q4 semi-join re-run on a
multi-device database where a
:class:`~repro.storage.prefetch.DualCursorPrefetcher` issues
read-ahead for whichever side the merge cursor demands next, so the
two sweeps overlap instead of serializing.

Per rung the report records total simulated time, first-tuple latency,
pages touched (probe ``regions_read``) and pages skipped by the
pushdown.  ``--assert-pushdown`` turns the performance expectations
(strict page reduction, monotone shard scaling, prefetch no slower)
into hard failures for CI.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_join.py           # SF 0.5
    PYTHONPATH=src python benchmarks/bench_join.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import platform
import sys
from typing import Any, Callable, Iterator

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import invariants, kernels
from repro.relational.operators import (
    FirstTupleTimer,
    MergeJoin,
    MergeSemiJoin,
)
from repro.relational.table import Database
from repro.shard import CoPartitionedJoin, ShardedDatabase
from repro.storage import ICDE99_TESTBED
from repro.tpcd import TPCDConfig, generate, plans, reference_q3, reference_q4
from repro.tpcd.datagen import shuffled
from repro.tpcd.queries import (
    L_COMMITDATE,
    L_RECEIPTDATE,
    L_SHIPDATE,
    O_ORDERDATE,
    Q3Params,
    Q4Params,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Q3's pushdown needs qualifying orderkeys that form a band in the
#: *middle* of the key domain: on the correlated instance a two-sided
#: ORDERDATE window maps to a mid-domain ORDERKEY band, so the probe
#: pages *before* the band are pages plain Tetris still reads — the
#: merge join's early exit only truncates pages *after* the band —
#: while the pushdown cover skips them outright.  The SHIPDATE bound is
#: relaxed so those prefix pages pass the probe's own query box and the
#: savings are attributable to the key cover alone.  Identity is
#: asserted against ``reference_q3`` under the same params.
Q3_BENCH_PARAMS = Q3Params(
    orderdate_from=dt.date(1995, 1, 1),
    orderdate_before=dt.date(1995, 7, 1),
    shipdate_after=dt.date(1993, 6, 30),
)

SHARD_COUNTS = tuple(range(1, 9))


def _rung(
    db: Database,
    build_plan: Callable[[], Any],
    *,
    probe: Any = None,
) -> "tuple[list, dict[str, Any]]":
    """Consume one ladder rung; return (rows, measurements)."""
    db.reset_measurement()
    before = db.disk.snapshot()
    plan = build_plan()
    timer = FirstTupleTimer(plan, db.disk)
    rows = list(timer)
    delta = db.disk.snapshot() - before
    entry: dict[str, Any] = {
        "elapsed_simulated": round(delta.time, 6),
        "time_to_first": (
            round(timer.time_to_first, 6)
            if timer.time_to_first is not None
            else None
        ),
        "pages_read": delta.pages_read,
        "temp_pages_written": delta.pages_written,
        "rows": len(rows),
    }
    if probe is not None:
        entry["probe_pages_touched"] = probe.stats.regions_read
        entry["pages_skipped_by_pushdown"] = (
            probe.stats.pages_skipped_by_pushdown
        )
    return rows, entry


def _check_first_tuple(
    ladder: "dict[str, Any]", label: str, problems: "list[str]"
) -> None:
    """ISSUE criterion (b): the pipelined pushdown plan must reach its
    first tuple before the blocking FTS + external-sort baseline."""
    pushed = ladder["pushdown"]["time_to_first"]
    classic = ladder["classic"]["time_to_first"]
    if pushed is None or classic is None:
        problems.append(f"{label} first-tuple latency was not measured")
    elif pushed >= classic:
        problems.append(
            f"{label} pushdown first-tuple latency did not beat the "
            "classic FTS+sort baseline"
        )


def bench_q3_ladder(data, problems: "list[str]") -> dict[str, Any]:
    params = Q3_BENCH_PARAMS
    db = Database(ICDE99_TESTBED, buffer_pages=256)
    customer_heap = plans.build_customer_heap(db, data)
    order_heap = plans.build_order_heap(db, data)
    lineitem_heap = plans.build_lineitem_heap(db, data)
    customer_ub = plans.build_customer_ub(db, data)
    order_ub = plans.build_order_ub(db, data)
    lineitem_ub = plans.build_lineitem_ub_sort(db, data)

    ladder: dict[str, Any] = {}

    def classic():
        access, _ = plans.q3_lineitem_access("fts-sort", db, lineitem_heap, params)
        return plans.q3_full_plan(
            db, customer_heap, order_heap, access, params, use_tetris=False
        )

    classic_rows, ladder["classic"] = _rung(db, classic)

    tetris_probe, _ = plans.q3_lineitem_access("tetris", db, lineitem_ub, params)
    tetris_rows, ladder["tetris"] = _rung(
        db,
        lambda: plans.q3_full_plan(
            db, customer_ub, order_ub, tetris_probe, params, use_tetris=True
        ),
        probe=tetris_probe,
    )

    db.reset_measurement()
    before = db.disk.snapshot()
    pushed = plans.q3_pushdown_plan(db, customer_ub, order_ub, lineitem_ub, params)
    timer = FirstTupleTimer(pushed.plan, db.disk)
    pushdown_rows = list(timer)
    delta = db.disk.snapshot() - before
    ladder["pushdown"] = {
        "elapsed_simulated": round(delta.time, 6),
        "time_to_first": (
            round(timer.time_to_first, 6) if timer.time_to_first is not None else None
        ),
        "pages_read": delta.pages_read,
        "temp_pages_written": delta.pages_written,
        "rows": len(pushdown_rows),
        "probe_pages_touched": pushed.probe.stats.regions_read,
        "pages_skipped_by_pushdown": (
            pushed.probe.stats.pages_skipped_by_pushdown
        ),
        "cover_intervals": len(pushed.cover.intervals),
        "cover_keys": pushed.cover.key_count,
        "cover_is_hull": pushed.cover.is_hull,
        "build_rows": pushed.build_rows,
    }

    reference = reference_q3(data, params)
    for name, rows in (
        ("classic", classic_rows),
        ("tetris", tetris_rows),
        ("pushdown", pushdown_rows),
    ):
        if [row[3] for row in rows] != [row[3] for row in reference]:
            problems.append(f"Q3 {name} plan diverged from reference_q3")
    if pushdown_rows != tetris_rows:
        problems.append("Q3 pushdown output is not bit-identical to tetris")
    if ladder["pushdown"]["pages_skipped_by_pushdown"] <= 0:
        problems.append("Q3 pushdown skipped no pages")
    if (
        ladder["pushdown"]["probe_pages_touched"]
        >= ladder["tetris"]["probe_pages_touched"]
    ):
        problems.append("Q3 pushdown did not strictly reduce probe pages")
    _check_first_tuple(ladder, "Q3", problems)
    return ladder


def bench_q4_ladder(data, problems: "list[str]") -> dict[str, Any]:
    params = Q4Params()
    db = Database(ICDE99_TESTBED, buffer_pages=256)
    order_heap = plans.build_order_heap(db, data)
    order_ub = plans.build_order_ub(db, data)
    lineitem_ub = plans.build_lineitem_ub_q4(db, data)

    ladder: dict[str, Any] = {}

    def classic():
        access, _ = plans.q4_order_access("fts-sort", db, order_heap, params)
        return plans.q4_full_plan(db, access, lineitem_ub, params)

    classic_rows, ladder["classic"] = _rung(db, classic)

    # the plain-Tetris rung runs through the pipelined handle so the
    # LINEITEM probe's page count is observable (plan construction is
    # lazy: no I/O happens until the rung consumes it)
    pipelined = plans.q4_pipelined_plan(db, order_ub, lineitem_ub, params)
    tetris_rows, ladder["tetris"] = _rung(
        db, lambda: pipelined.plan, probe=pipelined.right
    )

    db.reset_measurement()
    before = db.disk.snapshot()
    pushed = plans.q4_pushdown_plan(db, order_ub, lineitem_ub, params)
    timer = FirstTupleTimer(pushed.plan, db.disk)
    pushdown_rows = list(timer)
    delta = db.disk.snapshot() - before
    ladder["pushdown"] = {
        "elapsed_simulated": round(delta.time, 6),
        "time_to_first": (
            round(timer.time_to_first, 6) if timer.time_to_first is not None else None
        ),
        "pages_read": delta.pages_read,
        "temp_pages_written": delta.pages_written,
        "rows": len(pushdown_rows),
        "probe_pages_touched": pushed.probe.stats.regions_read,
        "pages_skipped_by_pushdown": (
            pushed.probe.stats.pages_skipped_by_pushdown
        ),
        "cover_intervals": len(pushed.cover.intervals),
        "cover_keys": pushed.cover.key_count,
        "cover_is_hull": pushed.cover.is_hull,
        "build_rows": pushed.build_rows,
    }

    reference = reference_q4(data, params)
    for name, rows in (
        ("classic", classic_rows),
        ("tetris", tetris_rows),
        ("pushdown", pushdown_rows),
    ):
        if rows != reference:
            problems.append(f"Q4 {name} plan diverged from reference_q4")
    if pushdown_rows != tetris_rows:
        problems.append("Q4 pushdown output is not bit-identical to tetris")
    if ladder["pushdown"]["pages_skipped_by_pushdown"] <= 0:
        problems.append("Q4 pushdown skipped no pages")
    if (
        ladder["pushdown"]["probe_pages_touched"]
        >= ladder["tetris"]["probe_pages_touched"]
    ):
        problems.append("Q4 pushdown did not strictly reduce probe pages")
    _check_first_tuple(ladder, "Q4", problems)
    return ladder


def bench_q4_overlap(data, problems: "list[str]") -> dict[str, Any]:
    """Dual-cursor prefetch: Q4's two sweeps overlapped vs. sequential.

    ``sequential`` runs each input sweep alone to exhaustion (the no-
    overlap baseline: a join that materializes one side first pays the
    *sum*); ``pipelined`` interleaves them through the semi-join with
    each scan's internal solo prefetcher; ``dual_cursor`` replaces those
    with the join-aware policy.  The claim under test: the overlapped
    join's elapsed time lands near ``max`` of the two sweeps, and the
    dual-cursor policy is never slower than the solo prefetchers.
    """
    measurements: dict[str, Any] = {}
    params = Q4Params()

    def fresh_db():
        db = Database(
            ICDE99_TESTBED, buffer_pages=256, devices=4, prefetch_depth=8
        )
        return (
            db,
            plans.build_order_ub(db, data),
            plans.build_lineitem_ub_q4(db, data),
        )

    # the no-overlap baseline: each sweep alone, costs summed
    db, order_ub, lineitem_ub = fresh_db()
    sweep_elapsed: "list[float]" = []
    db.reset_measurement()
    before = db.disk.snapshot()
    order_stream, _ = plans.q4_order_access("tetris", db, order_ub, params)
    for _ in order_stream:
        pass
    sweep_elapsed.append((db.disk.snapshot() - before).time)
    db.reset_measurement()
    before = db.disk.snapshot()
    # the late-LINEITEM sweep exactly as the join runs it: the right
    # input of the pipelined plan, drained on its own
    lineitem_stream = plans.q4_pipelined_plan(db, order_ub, lineitem_ub, params).right
    for _ in lineitem_stream:
        pass
    sweep_elapsed.append((db.disk.snapshot() - before).time)
    measurements["sequential"] = {
        "order_sweep": round(sweep_elapsed[0], 6),
        "lineitem_sweep": round(sweep_elapsed[1], 6),
        "sum": round(sum(sweep_elapsed), 6),
        "max": round(max(sweep_elapsed), 6),
    }

    rows_by_mode: dict[bool, list] = {}
    for prefetch in (False, True):
        db, order_ub, lineitem_ub = fresh_db()
        db.reset_measurement()
        before = db.disk.snapshot()
        pipelined = plans.q4_pipelined_plan(
            db, order_ub, lineitem_ub, params, prefetch=prefetch
        )
        timer = FirstTupleTimer(pipelined.plan, db.disk)
        rows_by_mode[prefetch] = list(timer)
        delta = db.disk.snapshot() - before
        measurements["dual_cursor" if prefetch else "pipelined"] = {
            "elapsed_simulated": round(delta.time, 6),
            "time_to_first": (
                round(timer.time_to_first, 6)
                if timer.time_to_first is not None
                else None
            ),
            "pages_read": delta.pages_read,
        }
    if rows_by_mode[True] != rows_by_mode[False]:
        problems.append("Q4 dual-cursor prefetch changed the join output")
    sequential = measurements["sequential"]["sum"]
    overlapped = measurements["dual_cursor"]["elapsed_simulated"]
    solo = measurements["pipelined"]["elapsed_simulated"]
    measurements["overlap_vs_sequential"] = (
        round(sequential / overlapped, 3) if overlapped else None
    )
    if overlapped >= sequential:
        problems.append(
            "Q4 dual-cursor join did not beat the sequential-sweeps sum"
        )
    if overlapped > solo * (1 + 1e-9):
        problems.append(
            "Q4 dual-cursor prefetch ran slower than the solo prefetchers"
        )
    return measurements


def _serial_join_rows(
    schema,
    dims: "tuple[str, ...]",
    rows: "list[tuple]",
    restrictions,
    predicate,
    sort_attr: str,
    page_capacity: int,
) -> Iterator[tuple]:
    db = Database(buffer_pages=96)
    table = db.create_ub_table("serial", schema, dims, page_capacity)
    table.load(shuffled(rows))
    for _point, row in table.tetris_scan(restrictions, sort_attr):
        if predicate is None or predicate(row):
            yield row


def _sharded_join_series(
    data,
    *,
    kind: str,
    left_dims: "tuple[str, ...]",
    right_dims: "tuple[str, ...]",
    left_restrictions,
    right_restrictions,
    left_predicate,
    right_predicate,
    problems: "list[str]",
    label: str,
) -> dict[str, Any]:
    order_schema = data.order_schema
    lineitem_schema = data.lineitem_schema
    order_capacity = plans.order_page_capacity(data)
    lineitem_capacity = plans.lineitem_page_capacity(data)

    left_stream = _serial_join_rows(
        order_schema,
        left_dims,
        data.orders,
        left_restrictions,
        left_predicate,
        "o_orderkey",
        order_capacity,
    )
    right_stream = _serial_join_rows(
        lineitem_schema,
        right_dims,
        data.lineitems,
        right_restrictions,
        right_predicate,
        "l_orderkey",
        lineitem_capacity,
    )
    join_cls = MergeJoin if kind == "inner" else MergeSemiJoin
    oracle = list(
        join_cls(
            left_stream,
            right_stream,
            left_key=lambda row: row[0],
            right_key=lambda row: row[0],
        )
    )

    series: "list[dict[str, Any]]" = []
    base_elapsed: float | None = None
    for count in SHARD_COUNTS:
        left_sdb = ShardedDatabase(
            order_schema,
            left_dims,
            "o_orderkey",
            shards=count,
            page_capacity=order_capacity,
            buffer_pages=96,
        )
        left_sdb.load(lambda: iter(shuffled(data.orders)))
        right_sdb = ShardedDatabase(
            lineitem_schema,
            right_dims,
            "l_orderkey",
            shards=count,
            page_capacity=lineitem_capacity,
            buffer_pages=96,
        )
        right_sdb.load(lambda: iter(shuffled(data.lineitems)))
        join = CoPartitionedJoin(left_sdb, right_sdb, kind=kind)
        left_sdb.reset_measurement()
        right_sdb.reset_measurement()
        result = join.run(
            left_restrictions,
            right_restrictions,
            left_predicate=left_predicate,
            right_predicate=right_predicate,
        )
        if result.rows != oracle:
            problems.append(
                f"{label} sharded join k={count} diverged from the serial join"
            )
        if result.degraded or result.partial:
            problems.append(
                f"{label} sharded join k={count} degraded on a fault-free run"
            )
        elapsed = result.simulated_elapsed
        if base_elapsed is None:
            base_elapsed = elapsed
        series.append(
            {
                "shards": count,
                "elapsed_simulated": round(elapsed, 6),
                "speedup_vs_serial_legs": (
                    round(base_elapsed / elapsed, 3) if elapsed > 0 else None
                ),
                "per_shard_rows": list(result.per_shard_rows),
                "time_to_first_per_leg": [
                    round(event.time_to_first, 6)
                    for event in result.join_events
                    if event.time_to_first is not None
                ],
            }
        )
        print(
            f"[join] {label} sharded k={count} elapsed={elapsed:.4f}s "
            f"({len(result.rows):,} rows)"
        )
    elapsed_series = [entry["elapsed_simulated"] for entry in series]
    monotonic = all(
        later < earlier
        for earlier, later in zip(elapsed_series, elapsed_series[1:])
    )
    if not monotonic:
        problems.append(
            f"{label} sharded join elapsed not monotone decreasing in k"
        )
    return {
        "kind": kind,
        "rows_output": len(oracle),
        "series": series,
        "monotonic_decreasing": monotonic,
    }


def bench_sharded_joins(data, problems: "list[str]") -> dict[str, Any]:
    """Co-partitioned join scaling, k = 1..8.

    Run on an *uncorrelated* instance: with ``correlated_dates=True``
    the date restrictions land on a narrow orderkey band, so most
    range shards carry no work and the max-over-legs elapsed time is
    dominated by slab/band alignment rather than the shard count.
    Uniform dates keep per-shard work balanced, which is what the
    monotone-scaling claim is about.
    """
    q3 = Q3_BENCH_PARAMS
    q4 = Q4Params()
    day = dt.timedelta(days=1)
    return {
        "q3_inner": _sharded_join_series(
            data,
            kind="inner",
            label="Q3",
            problems=problems,
            left_dims=("o_orderkey", "o_orderdate"),
            right_dims=("l_orderkey", "l_shipdate"),
            left_restrictions={
                "o_orderdate": (q3.orderdate_from, q3.orderdate_before - day)
            },
            right_restrictions={
                "l_shipdate": (q3.shipdate_after + day, None)
            },
            left_predicate=lambda row: q3.order_qualifies(row[O_ORDERDATE]),
            right_predicate=lambda row: row[L_SHIPDATE] > q3.shipdate_after,
        ),
        "q4_semi": _sharded_join_series(
            data,
            kind="semi",
            label="Q4",
            problems=problems,
            left_dims=("o_orderkey", "o_orderdate"),
            right_dims=("l_orderkey", "l_commitdate", "l_receiptdate"),
            left_restrictions={
                "o_orderdate": (q4.orderdate_from, q4.orderdate_until - day)
            },
            right_restrictions=None,
            left_predicate=lambda row: (
                q4.orderdate_from <= row[O_ORDERDATE] < q4.orderdate_until
            ),
            right_predicate=lambda row: row[L_COMMITDATE] < row[L_RECEIPTDATE],
        ),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: small scale factor"
    )
    parser.add_argument(
        "--scale-factor",
        type=float,
        default=None,
        help="TPC-D scale factor (default: 0.5, or 0.15 with --quick)",
    )
    parser.add_argument(
        "--assert-pushdown",
        action="store_true",
        help="fail (exit 1) unless every performance expectation holds",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_join.json"),
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)

    if invariants.enabled():
        raise RuntimeError(
            "benchmarks must run with invariant checks disabled "
            "(unset REPRO_CHECKS); checks-on timings are not comparable"
        )
    from repro.storage import armed_disk_count

    if armed_disk_count():
        raise RuntimeError(
            "benchmarks must run fault-free; disarm every FaultyDisk "
            "before timing (chaos-mode numbers are not comparable)"
        )

    scale_factor = args.scale_factor or (0.15 if args.quick else 0.5)
    config = TPCDConfig(scale_factor=scale_factor, correlated_dates=True)
    data = generate(config)
    shard_config = TPCDConfig(scale_factor=scale_factor, correlated_dates=False)
    shard_data = generate(shard_config)
    print(
        f"[join] SF {scale_factor} (correlated dates): "
        f"{config.order_count:,} orders, {len(data.lineitems):,} lineitems"
    )

    problems: "list[str]" = []
    backends = kernels.available_backends()
    report: dict[str, Any] = {
        "workload": {
            "queries": ["Q3 (tightened date window)", "Q4"],
            "scale_factor": scale_factor,
            "correlated_dates": True,
            "orders": config.order_count,
            "shard_counts": list(SHARD_COUNTS),
            "quick": args.quick,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": None,
            "backends": list(backends),
        },
    }
    if "numpy" in backends:
        import numpy

        report["environment"]["numpy"] = numpy.__version__

    report["q3"] = bench_q3_ladder(data, problems)
    print(
        "[join] Q3 ladder: classic "
        f"{report['q3']['classic']['elapsed_simulated']}s, tetris "
        f"{report['q3']['tetris']['elapsed_simulated']}s, pushdown "
        f"{report['q3']['pushdown']['elapsed_simulated']}s "
        f"({report['q3']['pushdown']['pages_skipped_by_pushdown']} pages skipped)"
    )
    report["q4"] = bench_q4_ladder(data, problems)
    print(
        "[join] Q4 ladder: classic "
        f"{report['q4']['classic']['elapsed_simulated']}s, tetris "
        f"{report['q4']['tetris']['elapsed_simulated']}s, pushdown "
        f"{report['q4']['pushdown']['elapsed_simulated']}s "
        f"({report['q4']['pushdown']['pages_skipped_by_pushdown']} pages skipped)"
    )
    report["q4_overlap"] = bench_q4_overlap(data, problems)
    print(
        "[join] Q4 overlap: sequential sweeps "
        f"{report['q4_overlap']['sequential']['sum']}s (max "
        f"{report['q4_overlap']['sequential']['max']}s) vs dual-cursor "
        f"{report['q4_overlap']['dual_cursor']['elapsed_simulated']}s "
        f"({report['q4_overlap']['overlap_vs_sequential']}x)"
    )
    report["sharded"] = bench_sharded_joins(shard_data, problems)
    report["sharded"]["correlated_dates"] = False
    report["problems"] = problems

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {args.output}")

    if problems:
        for problem in problems:
            print(f"ERROR: {problem}", file=sys.stderr)
        if args.assert_pushdown:
            return 1
        print(
            "(run with --assert-pushdown to turn these into a failure)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
