"""The seven workloads: seeded parameter generators, set-up, op, oracle.

Each workload is a closed loop with one client: the runner calls
:meth:`Workload.op` for the next parameter only after the previous op
returned.  ``seed`` drives ``TPCDConfig.seed`` and every parameter
stream; the engine receives only generated rows and parameter objects.
Every op's output is checked outside the timed region against an oracle
that does not go through the engine (``reference_q3/q4`` or harness-side
arrays and sorted lists built once from the generated rows).

Sizes are cut from the issue's (SF 2/1/0.5) to fit the benchmark
contract's time cap: one run is three set-ups plus ``--seconds`` of
passes, and a pass over a workload's fixed parameter list takes ~2 s on
a 2-core box, so every pass is complete and identical and the
simulated-clock metrics of the first pass repeat exactly.

Parameters sit on a jittered lattice (:func:`lattice`): each parameter
dimension is cut into ``n`` equal strata, every stratum is used exactly
once, and the seed only moves a value inside its stratum, so the
*distribution* of op costs — and with it p50/p90 — is nearly the same
for every seed while the individual values differ.
"""

from __future__ import annotations

import datetime as dt
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.planner.parallel import parallel_tetris_scan
from repro.relational.operators.join import _InstrumentedJoin
from repro.relational.table import Database, UBTable
from repro.shard import CoPartitionedJoin, ShardedDatabase
from repro.storage import ICDE99_TESTBED, SimulatedCrashError
from repro.tpcd import (
    Q3Params,
    Q4Params,
    Q6Params,
    TPCDConfig,
    TPCDData,
    generate,
    plans,
    reference_q3,
    reference_q4,
    shuffled,
)
from repro.tpcd.queries import (
    L_DISCOUNT,
    L_EXTENDEDPRICE,
    L_ORDERKEY,
    L_QUANTITY,
    L_SHIPDATE,
    O_ORDERDATE,
    O_ORDERKEY,
)
from repro.tpcd.schema import ANYDATE_HI, ANYDATE_LO, MKTSEGMENTS, ORDERDATE_HI, ORDERDATE_LO

from tracing import Traced, Tracer, graft

clock = time.perf_counter
DAY = dt.timedelta(days=1)
WORKERS = min(2, os.cpu_count() or 1)
_END = object()


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------
class Probe:
    """What an op sees of the tracer; every method is a no-op untraced."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.counts: dict[str, float] = {}
        self._idle = nullcontext()

    def span(self, name: str) -> Any:
        return self._idle if self.tracer is None else self.tracer.span(name)

    def count(self, name: str, value: float = 1) -> None:
        if self.tracer is not None:
            self.counts[name] = self.counts.get(name, 0) + value

    def traced(self, stream: Iterable[Any], name: str) -> Any:
        return stream if self.tracer is None else Traced(stream, self.tracer, name)

    def trace_joins(self, plan: Any) -> list[Traced]:
        if self.tracer is None:
            return []
        return graft(plan, _InstrumentedJoin, self.tracer, "relational.join")


@dataclass
class Sample:
    """One timed op: both clocks, first output and total."""

    wall_s: float
    first_wall_s: float
    sim_s: float
    first_sim_s: float
    temp_pages: int = 0
    output: Any = None
    #: reference-speed factor of the spin that preceded the op (measure.py)
    speed: float = 1.0


@dataclass
class World:
    """Everything one set-up built, plus where its time went."""

    data: TPCDData
    dbs: list[Database]
    generate_s: float
    load_s: float
    tables: dict[str, Any] = field(default_factory=dict)
    sharded: dict[str, ShardedDatabase] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def db(self) -> Database:
        return self.dbs[0]

    def io_stats(self) -> list[Any]:
        """Every device's ``IOStats``: data disks and WAL log devices."""
        stats = []
        for db in self.dbs:
            stats.append(db.disk.stats)
            if db.wal is not None:
                stats.append(db.wal.device.stats)
        return stats

    def reset(self) -> None:
        for db in self.dbs:
            db.reset_measurement()


def lattice(rng: random.Random, count: int, dims: int) -> list[tuple[float, ...]]:
    """``count`` points in ``[0, 1)^dims``, each axis stratified ``count`` ways.

    Which stratum of one axis meets which of another is fixed (it depends
    on ``count`` only); the seed moves each coordinate within the middle
    fifth of its stratum.  Every seed therefore gets different parameters
    with nearly the same distribution of op costs, so p50/p90 compare
    code, not seed luck.
    """
    axes = []
    for axis in range(dims):
        strata = list(range(count))
        random.Random(f"lattice/{count}/{axis}").shuffle(strata)
        axes.append(
            [(stratum + 0.4 + 0.2 * rng.random()) / count for stratum in strata]
        )
    return list(zip(*axes))


def between(lo: dt.date, hi: dt.date, share: float) -> dt.date:
    """The date ``share`` of the way from ``lo`` to ``hi``, clamped to both.

    Every generated bound goes through here: ``build_query_box`` raises
    ``ValueError`` for a date outside the schema domain, and a parameter
    generator must not be the reason an op fails.
    """
    span = max(0, (hi - lo).days)
    return lo + dt.timedelta(days=min(span, max(0, int(share * (span + 1)))))


def base_disk(disk: Any) -> Any:
    """The ``SimulatedDisk`` at the bottom of a wrapper stack."""
    while hasattr(disk, "inner"):
        disk = disk.inner
    return disk


def consume(plan: Iterable[Any], disk: Any, t0: float, c0: float) -> tuple[list, float, float]:
    """Drain ``plan`` inside the timed region; note when the first row came."""
    rows_iter = iter(plan)
    first = next(rows_iter, _END)
    first_wall = clock() - t0
    first_sim = disk.clock - c0
    if first is _END:
        return [], first_wall, first_sim
    rows = [first]
    rows.extend(rows_iter)
    return rows, first_wall, first_sim


def ub_table(db: Database, name: str, schema: Any, dims: Sequence[str],
             capacity: int, rows: list[tuple]) -> UBTable:
    table = db.create_ub_table(name, schema, dims, capacity)
    table.bulk_load(rows)
    return table


def heap_table(db: Database, name: str, schema: Any, capacity: int, rows: list[tuple]) -> Any:
    table = db.create_heap_table(name, schema, capacity)
    table.bulk_load(rows)
    return table


class Workload:
    """Base class; subclasses say what to build and what one op is."""

    name = ""
    scale_factor = 1.0
    quick_scale_factor = 0.1
    ops_per_pass = 10
    quick_ops_per_pass = 10
    correlated_dates = False
    #: collect garbage every this many ops (always outside the timed region)
    gc_every = 1
    #: no pool reset between timed ops; simulated metrics then come from
    #: one extra cold pass over the same parameters
    warm = False
    #: ops mutate the world, so every pass needs a freshly built one
    fresh_world_per_pass = False
    #: ops behind one timed sample (the sample reports their mean)
    ops_per_sample = 1

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        if quick:
            self.scale_factor = self.quick_scale_factor
            self.ops_per_pass = self.quick_ops_per_pass
        self.params: list[Any] = []

    def config(self) -> TPCDConfig:
        return TPCDConfig(
            scale_factor=self.scale_factor,
            seed=self.seed,
            correlated_dates=self.correlated_dates,
        )

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.name}/{stream}/{self.seed}")

    def setup(self) -> World:
        """Timed: generate the data and build every structure the ops need."""
        started = clock()
        data = generate(self.config())
        generated = clock()
        world = self.build(data)
        world.generate_s = generated - started
        world.load_s = clock() - generated
        return world

    def build(self, data: TPCDData) -> World:
        raise NotImplementedError

    def prepare(self, world: World) -> None:
        """Untimed: parameter list and oracles (needs only ``world.data``)."""
        raise NotImplementedError

    def before_op(self, world: World) -> None:
        world.reset()

    def warm_up(self, world: World) -> None:
        """Fill the pool before the first warm pass (warm workloads only)."""

    def op(self, world: World, param: Any, probe: Probe) -> Sample:
        raise NotImplementedError

    def check(self, param: Any, sample: Sample) -> bool:
        raise NotImplementedError

    def after_first_pass(self, world: World, probe: Probe) -> bool:
        """Whole-pass verification; ``False`` fails every op of the run."""
        return True


# ----------------------------------------------------------------------
# 1. q6_range_stream
# ----------------------------------------------------------------------
class Q6RangeStream(Workload):
    # Why: almost all work is core.ubtree.range_query + kernels.filter_*
    # + storage.buffer on a table 8x the pool.  The Tetris sweep, sort,
    # join, shard, WAL and scheduler do nothing here, so an optimisation
    # of any of those must show *no change* on this workload.
    name = "q6_range_stream"
    scale_factor = 1.0
    ops_per_pass = 400
    quick_ops_per_pass = 100
    pool_pages = 96

    def build(self, data: TPCDData) -> World:
        db = Database(ICDE99_TESTBED, buffer_pages=self.pool_pages)
        table = ub_table(
            db, "lineitem_ub_range", data.lineitem_schema,
            ("l_shipdate", "l_discount", "l_quantity"),
            plans.lineitem_page_capacity(data), shuffled(data.lineitems),
        )
        return World(data, [db], 0.0, 0.0, tables={"lineitem": table})

    def prepare(self, world: World) -> None:
        self.params = []
        for u_from, u_days, u_disc, u_qty in lattice(self.rng("q6"), self.ops_per_pass, 4):
            days = 30 + int(u_days * 482)  # 30..511
            start = between(ANYDATE_LO, ANYDATE_HI - dt.timedelta(days=days - 1), u_from)
            self.params.append(
                Q6Params(
                    shipdate_from=start,
                    shipdate_days=days,
                    discount=1 + int(u_disc * 9),  # 1..9 keeps discount±1 in 0..10
                    quantity_below=2 + int(u_qty * 50),  # 2..51 keeps bound-1 in 1..50
                )
            )
        items = world.data.lineitems
        self._ship = np.array([row[L_SHIPDATE].toordinal() for row in items], dtype=np.int64)
        self._disc = np.array([row[L_DISCOUNT] for row in items], dtype=np.int64)
        self._qty = np.array([row[L_QUANTITY] for row in items], dtype=np.int64)
        self._weight = np.array(
            [row[L_EXTENDEDPRICE] * row[L_DISCOUNT] for row in items], dtype=np.int64
        )

    def op(self, world: World, param: Q6Params, probe: Probe) -> Sample:
        db = world.db
        t0, c0 = clock(), db.disk.clock
        with probe.span("planner.plan_build"):
            plan = plans.q6_full_plan("tetris", db, world.tables["lineitem"], param)
        rows, first_wall, first_sim = consume(plan, db.disk, t0, c0)
        return Sample(clock() - t0, first_wall, db.disk.clock - c0, first_sim, 0, rows)

    def check(self, param: Q6Params, sample: Sample) -> bool:
        lo = param.shipdate_from.toordinal()
        mask = (
            (self._ship >= lo)
            & (self._ship < lo + param.shipdate_days)
            & (self._disc >= param.discount - 1)
            & (self._disc <= param.discount + 1)
            & (self._qty < param.quantity_below)
        )
        return sample.output == [(int(self._weight[mask].sum()),)]


# ----------------------------------------------------------------------
# 2. q3_tetris_join  /  3. q3_classic_sort
# ----------------------------------------------------------------------
def q3_parameters(rng: random.Random, per_combo: int) -> list[Q3Params]:
    """5 segments x two-sided ORDERDATE window of 90/180/365 days x
    ``per_combo`` stratified window positions and SHIPDATE lower bounds."""
    combos = [(segment, days) for segment in MKTSEGMENTS for days in (90, 180, 365)]
    points = lattice(rng, len(combos) * per_combo, 2)
    params = []
    for index, (u_pos, u_ship) in enumerate(points):
        segment, days = combos[index // per_combo]
        start = between(ORDERDATE_LO, ORDERDATE_HI - dt.timedelta(days=days - 1), u_pos)
        # the SHIPDATE bound trails the window by up to two years, so the
        # probe's own box still admits pages *before* the key band and
        # the pages saved are the cover's doing (see bench_join.py)
        after = max(ANYDATE_LO - DAY, start - dt.timedelta(days=int(u_ship * 730)))
        params.append(
            Q3Params(
                segment=segment,
                orderdate_from=start,
                orderdate_before=start + dt.timedelta(days=days),
                shipdate_after=after,
            )
        )
    return params


class Q3TetrisJoin(Workload):
    # Why: the paper's headline path — core.tetris sweep + run buffer,
    # planner.pushdown, relational merge join — on the correlated
    # instance where a date window is a mid-domain key band.  Sweep,
    # kernel-argsort and planner changes must show here.
    name = "q3_tetris_join"
    scale_factor = 0.5
    correlated_dates = True
    ops_per_pass = 45
    quick_ops_per_pass = 15
    pool_pages = 128

    def build(self, data: TPCDData) -> World:
        db = Database(ICDE99_TESTBED, buffer_pages=self.pool_pages)
        tables = {
            "customer": ub_table(
                db, "customer_ub", data.customer_schema, ("c_custkey", "c_mktsegment"),
                plans.customer_page_capacity(data), shuffled(data.customers)),
            "order": ub_table(
                db, "order_ub", data.order_schema,
                ("o_orderkey", "o_custkey", "o_orderdate"),
                plans.order_page_capacity(data), shuffled(data.orders)),
            "lineitem": ub_table(
                db, "lineitem_ub_sort", data.lineitem_schema, ("l_orderkey", "l_shipdate"),
                plans.lineitem_page_capacity(data), shuffled(data.lineitems)),
        }
        return World(data, [db], 0.0, 0.0, tables=tables)

    def prepare(self, world: World) -> None:
        self.params = q3_parameters(self.rng("q3"), self.ops_per_pass // 15)
        self._oracle = {p: reference_q3(world.data, p) for p in self.params}

    def op(self, world: World, param: Q3Params, probe: Probe) -> Sample:
        db, tables = world.db, world.tables
        t0, c0 = clock(), db.disk.clock
        with probe.span("planner.plan_build"):
            pushed = plans.q3_pushdown_plan(
                db, tables["customer"], tables["order"], tables["lineitem"], param
            )
        joins = probe.trace_joins(pushed.plan)
        rows, first_wall, first_sim = consume(pushed.plan, db.disk, t0, c0)
        sample = Sample(clock() - t0, first_wall, db.disk.clock - c0, first_sim,
                        pushed.probe.stats.cache_pages(tables["lineitem"].page_capacity), rows)
        if probe.tracer is not None:
            stats = pushed.probe.stats
            probe.count("planner.pushdown.cover_intervals", len(pushed.cover.intervals))
            probe.count("planner.pushdown.cover_keys", pushed.cover.key_count)
            probe.count("planner.pushdown.build_rows", pushed.build_rows)
            probe.count("pushdown.skipped", stats.pages_skipped_by_pushdown)
            probe.count("pushdown.read", stats.regions_read)
            probe.count("join.rows_in", pushed.build_rows + stats.tuples_output)
            probe.count("join.rows_out", sum(join.rows for join in joins))
        return sample

    def check(self, param: Q3Params, sample: Sample) -> bool:
        return sample.output == self._oracle[param]


class Q3ClassicSort(Workload):
    # Why: the honest rival (ROADMAP 1, 4b) — time is in storage.heap
    # scans and relational.operators.sort run generation/merge while
    # core.tetris does nothing.  A Tetris gain predicts no change here;
    # an external-sort fix shows only here.
    name = "q3_classic_sort"
    scale_factor = 0.5
    correlated_dates = True
    ops_per_pass = 15
    quick_ops_per_pass = 15
    pool_pages = 128

    def build(self, data: TPCDData) -> World:
        db = Database(ICDE99_TESTBED, buffer_pages=self.pool_pages)
        tables = {
            "customer": heap_table(db, "customer_heap", data.customer_schema,
                                   plans.customer_page_capacity(data), shuffled(data.customers)),
            "order": heap_table(db, "order_heap", data.order_schema,
                                plans.order_page_capacity(data), shuffled(data.orders)),
            "lineitem": heap_table(db, "lineitem_heap", data.lineitem_schema,
                                   plans.lineitem_page_capacity(data), shuffled(data.lineitems)),
        }
        return World(data, [db], 0.0, 0.0, tables=tables)

    def prepare(self, world: World) -> None:
        # one of workload 2's three parameter sets per (segment, window),
        # rotating through the position strata so all are represented
        shared = q3_parameters(random.Random(f"q3_tetris_join/q3/{self.seed}"), 3)
        self.params = [shared[3 * combo + combo % 3] for combo in range(15)]
        self._oracle = {p: reference_q3(world.data, p) for p in self.params}

    def op(self, world: World, param: Q3Params, probe: Probe) -> Sample:
        db, tables = world.db, world.tables
        t0, c0 = clock(), db.disk.clock
        with probe.span("planner.plan_build"):
            access, sort = plans.q3_lineitem_access("fts-sort", db, tables["lineitem"], param)
            sorted_stream = probe.traced(access, "relational.sort")
            plan = plans.q3_full_plan(
                db, tables["customer"], tables["order"], sorted_stream, param,
                use_tetris=False,
            )
        joins = probe.trace_joins(plan)
        rows, first_wall, first_sim = consume(plan, db.disk, t0, c0)
        sample = Sample(clock() - t0, first_wall, db.disk.clock - c0, first_sim,
                        sort.stats.peak_temp_pages, rows)
        if probe.tracer is not None:
            probe.count("relational.sort.run_gen_s", sorted_stream.first_pull_s)
            probe.count("relational.sort.merge_s",
                        sorted_stream.busy_s - sorted_stream.first_pull_s)
            probe.count("relational.sort.runs_created", sort.stats.runs_created)
            probe.count("relational.sort.merge_passes", sort.stats.merge_passes)
            probe.count("relational.sort.peak_temp_pages", sort.stats.peak_temp_pages)
            probe.count("join.rows_in", sorted_stream.rows + len(world.data.customers)
                        + len(world.data.orders))
            probe.count("join.rows_out", sum(join.rows for join in joins))
        return sample

    def check(self, param: Q3Params, sample: Sample) -> bool:
        return sample.output == self._oracle[param]


# ----------------------------------------------------------------------
# 4. q4_semijoin_fullstack
# ----------------------------------------------------------------------
class Q4SemijoinFullstack(Workload):
    # Why: the same sweep code as workload 2 used differently — a
    # triangular query space, two live sweeps, and every page read
    # crossing replica -> scheduler -> prefetch claim.  It is the
    # read-side workload for ROADMAP item 3 and the one where the
    # simulated and the wall clock disagree today.
    name = "q4_semijoin_fullstack"
    scale_factor = 0.25
    correlated_dates = True
    ops_per_pass = 18
    quick_ops_per_pass = 12
    pool_pages = 64
    stack = {"wal": True, "replicas": 2, "devices": 4, "prefetch_depth": 8}

    def build(self, data: TPCDData, stack: dict | None = None) -> World:
        db = Database(ICDE99_TESTBED, buffer_pages=self.pool_pages,
                      **(self.stack if stack is None else stack))
        tables = {
            "order": ub_table(
                db, "order_ub", data.order_schema,
                ("o_orderkey", "o_custkey", "o_orderdate"),
                plans.order_page_capacity(data), shuffled(data.orders)),
            "lineitem": ub_table(
                db, "lineitem_ub_q4", data.lineitem_schema,
                ("l_orderkey", "l_commitdate", "l_receiptdate"),
                plans.lineitem_page_capacity(data), shuffled(data.lineitems)),
        }
        return World(data, [db], 0.0, 0.0, tables=tables)

    def build_bare(self, data: TPCDData) -> World:
        """The same tables on a bare disk, for ``storage.stack.read_overhead_ratio``."""
        return self.build(data, stack={})

    def prepare(self, world: World) -> None:
        windows = (30, 90, 180)
        per_window = self.ops_per_pass // len(windows)
        self.params = []
        for index, (u_pos,) in enumerate(lattice(self.rng("q4"), self.ops_per_pass, 1)):
            days = windows[index // per_window]
            start = between(ORDERDATE_LO, ORDERDATE_HI - dt.timedelta(days=days - 1), u_pos)
            self.params.append(Q4Params(start, start + dt.timedelta(days=days)))
        self._oracle = {p: reference_q4(world.data, p) for p in self.params}

    def op(self, world: World, param: Q4Params, probe: Probe) -> Sample:
        db, tables = world.db, world.tables
        prefetch = db.scheduler is not None
        t0, c0 = clock(), db.disk.clock
        with probe.span("planner.plan_build"):
            piped = plans.q4_pipelined_plan(
                db, tables["order"], tables["lineitem"], param, prefetch=prefetch
            )
        if probe.tracer is not None and piped.prefetch is not None:
            # a per-op instance: it dies with the plan, nothing to uninstall
            piped.prefetch.advise = probe.tracer.timed(
                piped.prefetch.advise, "storage.prefetch"
            )
        joins = probe.trace_joins(piped.plan)
        rows, first_wall, first_sim = consume(piped.plan, db.disk, t0, c0)
        temp = piped.left.stats.cache_pages(tables["order"].page_capacity) + \
            piped.right.stats.cache_pages(tables["lineitem"].page_capacity)
        sample = Sample(clock() - t0, first_wall, db.disk.clock - c0, first_sim, temp, rows)
        if probe.tracer is not None:
            probe.count("join.rows_in",
                        piped.left.stats.tuples_output + piped.right.stats.tuples_output)
            probe.count("join.rows_out", sum(join.rows for join in joins))
        return sample

    def check(self, param: Q4Params, sample: Sample) -> bool:
        return sample.output == self._oracle[param]


# ----------------------------------------------------------------------
# shared oracle of workloads 5-7: LINEITEM in (ORDERKEY, SHIPDATE) order
# ----------------------------------------------------------------------
def orderkey_shipdate_order(rows: Iterable[tuple]) -> list[tuple]:
    """Rows in the order a ``(l_orderkey, l_shipdate)`` Tetris sweep sorted
    by ORDERKEY emits them: by key, then ship date, then arrival (the
    sort is stable and ``rows`` is in load order)."""
    return sorted(rows, key=lambda row: (row[L_ORDERKEY], row[L_SHIPDATE]))


# ----------------------------------------------------------------------
# 5. shard_scan_join_k4
# ----------------------------------------------------------------------
class ShardScanJoinK4(Workload):
    # Why: time is in shard.coordinator legs and shard.merge; it gates
    # the 1,340-line coordinator's refactors.  Uncorrelated dates keep
    # the four range shards balanced, so the slowest leg — which sets
    # the simulated clock — is not an artefact of the key band.
    name = "shard_scan_join_k4"
    scale_factor = 0.25
    ops_per_pass = 30
    shards, copies, pool_pages = 4, 2, 24
    #: rows kept out of the load for the traced run's txn.* probe
    held_back = 64

    def _sharded(self, schema: Any, dims: tuple, capacity: int, rows: list) -> ShardedDatabase:
        sdb = ShardedDatabase(
            schema, dims, dims[0], shards=self.shards, copies=self.copies, wal=True,
            buffer_pages=self.pool_pages, params=ICDE99_TESTBED, page_capacity=capacity,
        )
        sdb.load(rows)
        return sdb

    def build_orders(self, data: TPCDData, loaded_orders: list) -> ShardedDatabase:
        return self._sharded(
            data.order_schema, ("o_orderkey", "o_orderdate"),
            plans.order_page_capacity(data), loaded_orders,
        )

    def build(self, data: TPCDData) -> World:
        started = clock()
        orders = shuffled(data.orders)
        spare = orders[: self.held_back]
        spare_keys = {row[O_ORDERKEY] for row in spare}
        loaded_orders = orders[self.held_back:]
        loaded_lineitems = [
            row for row in shuffled(data.lineitems) if row[L_ORDERKEY] not in spare_keys
        ]
        order_sdb = self.build_orders(data, loaded_orders)
        lineitem_sdb = self._sharded(
            data.lineitem_schema, ("l_orderkey", "l_shipdate"),
            plans.lineitem_page_capacity(data), loaded_lineitems,
        )
        dbs = [copy.db for sdb in (order_sdb, lineitem_sdb)
               for shard in sdb.shards for copy in shard.copies]
        world = World(data, dbs, 0.0, 0.0,
                      sharded={"order": order_sdb, "lineitem": lineitem_sdb})
        world.extra.update(
            join=CoPartitionedJoin(order_sdb, lineitem_sdb, kind="inner"),
            loaded_lineitems=loaded_lineitems,
            loaded_orders=loaded_orders,
            spare_orders=spare,
            shard_load_s=clock() - started,
        )
        return world

    def prepare(self, world: World) -> None:
        self.params = []
        for u_ship, u_pos in lattice(self.rng("shard"), self.ops_per_pass, 2):
            bound = between(dt.date(1992, 7, 1), dt.date(1997, 6, 30), u_ship)
            start = between(ORDERDATE_LO, ORDERDATE_HI - dt.timedelta(days=179), u_pos)
            self.params.append((bound, start, start + dt.timedelta(days=179)))
        self._sorted = orderkey_shipdate_order(world.extra["loaded_lineitems"])
        self._orders = sorted(world.extra["loaded_orders"], key=lambda row: row[O_ORDERKEY])

    def op(self, world: World, param: tuple, probe: Probe) -> Sample:
        bound, start, end = param
        lineitem_sdb = world.sharded["lineitem"]
        restriction = {"l_shipdate": (bound, None)}
        t0 = clock()
        with probe.span("shard.scan"):
            scan = lineitem_sdb.sorted_scan(restriction, "l_orderkey")
        first_wall = clock() - t0
        with probe.span("shard.join"):
            joined = world.extra["join"].run({"o_orderdate": (start, end)}, restriction)
        wall = clock() - t0
        sim = scan.simulated_elapsed + joined.simulated_elapsed
        if probe.tracer is not None:
            rows = scan.per_shard_rows
            probe.count("shard.sim_elapsed_s", sim)
            probe.count("shard.row_skew", max(rows) * len(rows) / max(1, sum(rows)))
            probe.count("shard.degradations",
                        len(scan.degradations) + len(joined.degradations))
        return Sample(wall, first_wall, sim, scan.simulated_elapsed, 0, (scan, joined))

    def check(self, param: tuple, sample: Sample) -> bool:
        bound, start, end = param
        scan, joined = sample.output
        if scan.degraded or scan.partial or joined.degraded or joined.partial:
            return False
        qualifying = [row for row in self._sorted if row[L_SHIPDATE] >= bound]
        if [payload for _, payload in scan.rows] != qualifying:
            return False
        by_key: dict[int, list[tuple]] = {}
        for row in qualifying:
            by_key.setdefault(row[L_ORDERKEY], []).append(row)
        expected = [
            order + item
            for order in self._orders
            if start <= order[O_ORDERDATE] <= end
            for item in by_key.get(order[O_ORDERKEY], ())
        ]
        return joined.rows == expected


# ----------------------------------------------------------------------
# 6. scan_parallel_w2
# ----------------------------------------------------------------------
class ScanParallelW2(Workload):
    # Why: the only workload where planner.parallel and kernels.shm do
    # the work and the buffer pool is hot (the table fits), so
    # cache-miss or device-stack changes predict no wall-clock change.
    # The simulated clock of a hot pool is 0, which the contract does not
    # allow a bounded metric to be: the simulated metrics come from one
    # cold execution of every op, the wall metrics from the warm ones.
    name = "scan_parallel_w2"
    scale_factor = 1.0
    ops_per_pass = 60
    quick_ops_per_pass = 15
    pool_pages = 4096
    warm = True

    def build(self, data: TPCDData) -> World:
        db = Database(ICDE99_TESTBED, buffer_pages=self.pool_pages)
        rows = shuffled(data.lineitems)
        table = ub_table(
            db, "lineitem_ub_sort", data.lineitem_schema, ("l_orderkey", "l_shipdate"),
            plans.lineitem_page_capacity(data), rows)
        world = World(data, [db], 0.0, 0.0, tables={"lineitem": table})
        world.extra["loaded_lineitems"] = rows
        return world

    def prepare(self, world: World) -> None:
        self.params = [
            between(ANYDATE_LO, dt.date(1997, 12, 31), u)
            for (u,) in lattice(self.rng("parallel"), self.ops_per_pass, 1)
        ]
        self._sorted = orderkey_shipdate_order(world.extra["loaded_lineitems"])

    def warm_up(self, world: World) -> None:
        for _ in world.tables["lineitem"].tetris_scan(None, "l_orderkey"):
            pass

    def op(self, world: World, param: dt.date, probe: Probe) -> Sample:
        db = world.db
        t0, c0 = clock(), db.disk.clock
        with probe.span("planner.parallel"):
            result = parallel_tetris_scan(
                world.tables["lineitem"], {"l_shipdate": (param, None)}, "l_orderkey",
                workers=WORKERS, executor="auto",
            )
        wall, sim = clock() - t0, db.disk.clock - c0
        probe.count("planner.parallel.fallbacks", len(result.fallbacks))
        # the parallel scan hands over a finished list: first row == last row
        return Sample(wall, wall, sim, sim, 0, result)

    def check(self, param: dt.date, sample: Sample) -> bool:
        expected = [row for row in self._sorted if row[L_SHIPDATE] >= param]
        return [payload for _, payload in sample.output.rows] == expected


# ----------------------------------------------------------------------
# 7. ingest_durable
# ----------------------------------------------------------------------
class IngestDurable(Workload):
    # Why: the write side of the layers workload 4 reads through (WAL,
    # replica mirroring, B+-tree splits).  A read-path gain bought with
    # write amplification shows here.  After the timed inserts a seeded
    # write crash hits one further batch; recover() plus a full sorted
    # scan must return exactly the acknowledged rows.
    #
    # One op is one journaled single-row insert, but one *sample* is the
    # mean over 50 consecutive inserts: the simulated cost of an insert
    # that does not split is a constant of the log protocol (same value
    # for every seed), so percentiles over single inserts carry no
    # information; over windows they follow the split rate as the
    # bulk-loaded (full) leaves fill up.
    name = "ingest_durable"
    scale_factor = 1.0
    ops_per_pass = 200  # windows
    ops_per_sample = 50
    pool_pages = 256
    gc_every = 10
    fresh_world_per_pass = True
    crash_batch = 64
    stack = {"wal": True, "replicas": 2}

    def build(self, data: TPCDData, stack: dict | None = None) -> World:
        db = Database(ICDE99_TESTBED, buffer_pages=self.pool_pages,
                      **(self.stack if stack is None else stack))
        rows = shuffled(data.lineitems, seed=self.seed)
        inserts = self.ops_per_pass * self.ops_per_sample
        held = inserts + self.crash_batch
        table = ub_table(
            db, "lineitem_ub_sort", data.lineitem_schema, ("l_orderkey", "l_shipdate"),
            plans.lineitem_page_capacity(data), rows[held:])
        world = World(data, [db], 0.0, 0.0, tables={"lineitem": table})
        world.extra.update(loaded=rows[held:], inserts=rows[:inserts],
                           crash_rows=rows[inserts:held])
        return world

    def build_bare(self, data: TPCDData) -> World:
        """The same table on a bare disk, for ``storage.stack.write_overhead_ratio``."""
        return self.build(data, stack={})

    def prepare(self, world: World) -> None:
        rows, width = world.extra["inserts"], self.ops_per_sample
        self.params = [rows[at: at + width] for at in range(0, len(rows), width)]

    def before_op(self, world: World) -> None:
        """Inserts never touch the pool's cached frames; nothing to drop."""

    def op(self, world: World, param: list, probe: Probe) -> Sample:
        db = world.db
        insert = world.tables["lineitem"].insert
        t0, c0 = clock(), db.disk.clock
        for row in param:
            insert(row)
        wall = (clock() - t0) / len(param)
        sim = (db.disk.clock - c0) / len(param)
        # the acknowledgement is an insert's only output
        return Sample(wall, wall, sim, sim, 0, None)

    def check(self, param: list, sample: Sample) -> bool:
        return True  # durability is verified for the whole pass, below

    def after_first_pass(self, world: World, probe: Probe) -> bool:
        db, table = world.db, world.tables["lineitem"]
        acknowledged = list(world.extra["inserts"])
        # the crash hook lives on the base device, under the replica layer
        base_disk(db.disk).crash_after_writes(1 + self.rng("crash").randrange(self.crash_batch))
        try:
            for row in world.extra["crash_rows"]:
                table.insert(row)
                acknowledged.append(row)
        except SimulatedCrashError:
            pass
        else:
            return False  # the crash never fired: the check checked nothing
        started = clock()
        db.recover()
        probe.count("storage.wal.recover_s", clock() - started)
        expected = orderkey_shipdate_order(world.extra["loaded"] + acknowledged)
        return [row for _, row in table.tetris_scan(None, "l_orderkey")] == expected


WORKLOAD_CLASSES: tuple[type[Workload], ...] = (
    Q6RangeStream,
    Q3TetrisJoin,
    Q3ClassicSort,
    Q4SemijoinFullstack,
    ShardScanJoinK4,
    ScanParallelW2,
    IngestDurable,
)


def make(name: str, seed: int, quick: bool = False) -> Workload:
    for cls in WORKLOAD_CLASSES:
        if cls.name == name:
            return cls(seed, quick)
    raise KeyError(f"unknown workload {name!r}")

