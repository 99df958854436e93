"""Per-layer metrics: where the wrappers go and how counters become metrics.

Wrapper boundary list (instance attribute -> span name); README.md has
the same table with the layer each span feeds:

==============================  ============================================
live instance                   attributes wrapped
==============================  ============================================
active ``KernelBackend``        scan_page, scan_page_run, scan_block,
                                merge_sorted_keys, filter_space_page,
                                region_min_keys, prime_page_columns,
                                encode_batch, filter_box_batch,
                                argsort_keys, make_run_buffer (push/cut)
``UBTable``                     tetris_scan (scans re-classed to
                                ``TracedTetrisScan``)
``UBTree``                      range_query, regions_overlapping, insert,
                                bulk_load
``BPlusTree``                   insert, leaf_for
``HeapTable``                   scan
``BufferPool``                  get, prefetch
top ``ReplicatedDisk``          write, repair_page
base ``SimulatedDisk``          read, write
``IOScheduler``                 read, submit, claim
``WriteAheadLog``               begin, commit, abort, touch, log_alloc,
                                log_image, log_free, recover
``DualCursorPrefetcher``        advise (per op, in the workload)
operator tree                   joins grafted behind ``Traced`` proxies
==============================  ============================================

Counters are deltas of the engine's own ``*Stats`` objects taken at the
same boundaries, over exactly the traced ops.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Any

from repro import kernels, telemetry
from repro.core.query_space import QueryBox
from repro.core.zorder import ZSpace
from repro.costmodel.model import CostParameters, c_tetris
from repro.planner import executor as plan_executor
from repro.planner import parallel as plan_parallel
from repro.planner.optimizer import RelationStats, choose_plan
from repro.relational.operators import TetrisOperator
from repro.relational.table import HeapTable, UBTable
from repro.shard import register_shard_observer, unregister_shard_observer
from repro.storage import (
    ICDE99_TESTBED,
    ReplicatedDisk,
    register_recovery_observer,
    unregister_recovery_observer,
)
from repro.tpcd import Q3Params
from repro.tpcd.schema import ANYDATE_HI, ANYDATE_LO
from repro.txn import TransactionCoordinator, register_txn_observer, unregister_txn_observer

from catalogue import PER_LAYER_NAMES, WORKLOAD_NAMES
from measure import p50_ms, quantile
from tracing import Tracer
from workloads import DAY, WORKERS, Probe, Workload, World, base_disk

KERNEL_BATCH = 100_000
_TETRIS_FIELDS = (
    "regions_examined", "regions_read", "regions_skipped",
    "pages_skipped_by_pushdown", "slices", "tuples_output",
)
_OBSERVER_FAMILIES = (
    (telemetry.register_join_observer, telemetry.unregister_join_observer),
    (register_shard_observer, unregister_shard_observer),
    (plan_parallel.register_fallback_observer, plan_parallel.unregister_fallback_observer),
    (plan_executor.register_degradation_observer,
     plan_executor.unregister_degradation_observer),
    (register_recovery_observer, unregister_recovery_observer),
    (register_txn_observer, unregister_txn_observer),
)


def calibration_ms() -> float:
    """A fixed Python + NumPy spin: tells machine drift from code change."""
    import numpy as np

    started = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value & 0xFF
    array = np.arange(400_000, dtype=np.int64)
    for _ in range(10):
        total += int(np.sort(array[::-1] * 3 % 1_000_003).sum() & 0xFF)
    return (time.perf_counter() - started) * 1000.0


class LayerTrace:
    """Installs the wrappers on one world and turns the run into metrics."""

    def __init__(self, workload: Workload, world: World, tracer: Tracer, probe: Probe) -> None:
        self.workload = workload
        self.world = world
        self.tracer = tracer
        self.probe = probe
        self.events = 0
        self.evicted = 0
        self.index_gets = 0
        self.dropping = False
        self.tetris: dict[str, float] = dict.fromkeys(_TETRIS_FIELDS, 0)
        self.tetris_max_cache = 0
        self.leg_max_s = 0.0
        self.tetris_tables = 0
        self._before: dict[str, float] = {}

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        tracer, world = self.tracer, self.world
        backend = kernels.get_backend()
        for attr, name in (
            ("scan_page", "kernels.scan_page"),
            ("scan_page_run", "kernels.scan_page"),
            ("scan_block", "kernels.scan_block"),
            ("merge_sorted_keys", "kernels.merge_sorted_keys"),
            ("region_min_keys", "kernels.region_min_keys"),
            ("encode_batch", "kernels.batch"),
            ("filter_box_batch", "kernels.batch"),
            ("argsort_keys", "kernels.batch"),
        ):
            tracer.wrap(backend, attr, name)
        if hasattr(backend, "prime_page_columns"):
            tracer.wrap(backend, "prime_page_columns", "kernels.batch")
        tracer.trace_run_buffers(backend, "kernels.run_buffer")
        self._wrap_filter_space_page(backend)

        tables = list(world.tables.values())
        for sdb in world.sharded.values():
            tables.extend(copy.table for shard in sdb.shards for copy in shard.copies)
        self.tetris_tables = sum(isinstance(table, UBTable) for table in tables)
        for table in tables:
            if isinstance(table, UBTable):
                tracer.trace_tetris_scans(table)
                tree = table.ubtree
                tracer.wrap(tree, "range_query", "core.ubtree.range_query", iterate=True)
                tracer.wrap(tree, "regions_overlapping", "core.ubtree.regions", iterate=True)
                tracer.wrap(tree, "insert", "core.ubtree.insert")
                tracer.wrap(tree, "bulk_load", "core.ubtree.bulk_load")
                tracer.wrap(tree.tree, "insert", "btree.insert")
                tracer.wrap(tree.tree, "leaf_for", "btree.descent")
            elif isinstance(table, HeapTable):
                self._wrap_heap_scan(table)

        for db in world.dbs:
            self._wrap_pool_get(db.buffer)
            self._wrap_drop_all(db.buffer)
            tracer.wrap(db.buffer, "prefetch", "storage.prefetch")
            db.buffer.add_eviction_observer(self._on_evicted)
            if isinstance(db.disk, ReplicatedDisk):
                tracer.wrap(db.disk, "write", "storage.replica")
                tracer.wrap(db.disk, "repair_page", "storage.replica")
            base = base_disk(db.disk)
            tracer.wrap(base, "read", "storage.disk")
            tracer.wrap(base, "write", "storage.disk")
            if db.scheduler is not None:
                for attr in ("read", "submit", "claim"):
                    tracer.wrap(db.scheduler, attr, "storage.scheduler")
            if db.wal is not None:
                for attr in ("begin", "commit", "abort", "touch", "log_alloc",
                             "log_image", "log_free", "recover"):
                    tracer.wrap(db.wal, attr, "storage.wal")
        for register, _ in _OBSERVER_FAMILIES:
            register(self._on_event)
        self._before = self._counters()

    def uninstall(self) -> None:
        for _, unregister in _OBSERVER_FAMILIES:
            unregister(self._on_event)
        for db in self.world.dbs:
            db.buffer.remove_eviction_observer(self._on_evicted)
        self.tracer.uninstall()

    def _on_event(self, event: Any) -> None:
        self.events += 1

    def _on_evicted(self, page_id: int) -> None:
        if not self.dropping:
            self.evicted += 1

    def _wrap_drop_all(self, pool: Any) -> None:
        """Frames dropped by a pool reset or a recovery are not evictions."""
        original = pool.drop_all

        def drop_all() -> None:
            self.dropping = True
            try:
                original()
            finally:
                self.dropping = False

        self.tracer.patch(pool, "drop_all", drop_all)

    def _wrap_filter_space_page(self, backend: Any) -> None:
        original = backend.filter_space_page
        timed = self.tracer.timed(original, "kernels.filter_space_page")
        probe = self.probe

        def filter_space_page(space: Any, page: Any) -> list[int]:
            selected = timed(space, page)
            probe.count("ubtree.tuples_returned", len(selected))
            probe.count("ubtree.tuples_fetched", len(page.records))
            return selected

        self.tracer.patch(backend, "filter_space_page", filter_space_page)

    def _wrap_pool_get(self, pool: Any) -> None:
        """``storage.buffer`` span, plus a count of index-level lookups
        (``charge=False``: the descents' inner-node reads)."""
        timed = self.tracer.timed(pool.get, "storage.buffer")

        def get(page_id: int, **how: Any) -> Any:
            if not how.get("charge", True):
                self.index_gets += 1
            return timed(page_id, **how)

        self.tracer.patch(pool, "get", get)

    def _wrap_heap_scan(self, table: HeapTable) -> None:
        original = table.scan
        tracer, probe = self.tracer, self.probe

        def scan() -> Any:
            probe.count("relational.heap.pages_scanned", table.page_count)
            return tracer.iterate(original(), "relational.heap")

        tracer.patch(table, "scan", scan)

    # ------------------------------------------------------------------
    # per-op hooks (traced passes only)
    # ------------------------------------------------------------------
    def after_op(self) -> None:
        """Fold the finished op's sweeps into the ``core.tetris`` counters."""
        legs = [scan.harness_wall for scan in self.tracer.scans]
        if legs and self.world.sharded:
            self.leg_max_s += max(legs)
        for scan in self.tracer.take_scans():
            stats = scan.stats
            for name in _TETRIS_FIELDS:
                self.tetris[name] += getattr(stats, name)
            self.tetris_max_cache = max(self.tetris_max_cache, stats.max_cache_tuples)
            self.probe.count("tetris.cache_tuples", stats.max_cache_tuples)

    # ------------------------------------------------------------------
    # counters at the layer boundaries
    # ------------------------------------------------------------------
    def _counters(self) -> dict[str, float]:
        totals: dict[str, float] = {}

        def add(name: str, value: float) -> None:
            totals[name] = totals.get(name, 0) + value

        params = ICDE99_TESTBED
        for db in self.world.dbs:
            stats = db.disk.stats
            for bucket in stats.categories.values():
                add("disk.pages_read", bucket.pages_read)
                add("disk.read_seeks", bucket.read_seeks)
                add("disk.sim_read_s",
                    bucket.pages_read * params.t_tau + bucket.read_seeks * params.t_pi)
                add("disk.sim_write_s",
                    bucket.pages_written * params.t_tau + bucket.write_seeks * params.t_pi)
            faults, prefetch = stats.faults, stats.prefetch
            add("retries", faults.retries)
            add("wal.sim_s", faults.wal_delay)
            add("wal.forces", faults.wal_appends + faults.wal_reforced)
            add("replica.copies", faults.replica_writes)
            add("replica.repairs", faults.repaired_pages)
            add("prefetch.issued", prefetch.prefetch_issued)
            add("prefetch.hits", prefetch.prefetch_hits)
            add("prefetch.wasted", prefetch.prefetch_wasted)
            add("queue.busy", prefetch.queue_busy_time)
            add("queue.wait", prefetch.queue_wait_time)
            add("pool.hits", db.buffer.hits)
            add("pool.misses", db.buffer.misses)
            if db.wal is not None:
                add("wal.records", db.wal.append_count)
                add("wal.pages_written", db.wal.device.stats.pages_written)
        return totals

    def delta(self) -> dict[str, float]:
        now = self._counters()
        return {name: now[name] - self._before.get(name, 0) for name in now}

    # ------------------------------------------------------------------
    # the metric table
    # ------------------------------------------------------------------
    def metrics(self, run: dict[str, Any]) -> dict[str, float]:
        """Every per-layer metric by name; 0 where the layer did nothing."""
        self_s = self.tracer.self_seconds()
        total_s = self.tracer.total_seconds()
        calls = self.tracer.call_counts()
        delta = self.delta()
        counts = self.probe.counts
        world = self.world
        ops = max(1, run["traced_samples"])

        def ratio(top: float, bottom: float) -> float:
            return top / bottom if bottom else 0.0

        values: dict[str, float] = dict.fromkeys(PER_LAYER_NAMES, 0.0)
        values.update(run["standalone"])
        values.update(
            {
                "pages_read_per_op": run["pages_read_per_op"],
                "pages_written_per_op": run["pages_written_per_op"],
                "temp_pages_per_op": run["temp_pages_per_op"],
                "failed_ops_share": run["failed_ops_share"],
                "tpcd.generate_s": world.generate_s,
                "tpcd.rows_generated": len(world.data.customers) + len(world.data.orders)
                + len(world.data.lineitems),
                "kernels.scan_page_s": self_s["kernels.scan_page"],
                "kernels.scan_block_s": self_s["kernels.scan_block"],
                "kernels.merge_sorted_keys_s": self_s["kernels.merge_sorted_keys"],
                "kernels.filter_space_page_s": self_s["kernels.filter_space_page"],
                "kernels.region_min_keys_s": self_s["kernels.region_min_keys"],
                "kernels.run_buffer_s": self_s["kernels.run_buffer"],
                "kernels.batch_s": self_s["kernels.batch"],
                "kernels.calls": sum(
                    count for name, count in calls.items() if name.startswith("kernels.")
                ),
                "core.tetris.self_s": self_s["core.tetris"],
                "core.tetris.regions_examined": self.tetris["regions_examined"],
                "core.tetris.regions_read": self.tetris["regions_read"],
                "core.tetris.regions_skipped": self.tetris["regions_skipped"],
                "core.tetris.pages_skipped_by_pushdown":
                    self.tetris["pages_skipped_by_pushdown"],
                "core.tetris.slices": self.tetris["slices"],
                "core.tetris.max_cache_tuples": self.tetris_max_cache,
                "core.tetris.cache_share": ratio(
                    counts.get("tetris.cache_tuples", 0), self.tetris["tuples_output"]),
                "core.ubtree.range_query_self_s": self_s["core.ubtree.range_query"],
                "core.ubtree.regions_self_s": self_s["core.ubtree.regions"],
                "core.ubtree.insert_self_s": self_s["core.ubtree.insert"],
                "core.ubtree.bulk_load_s": world.load_s if self.tetris_tables else 0.0,
                "core.ubtree.pages_per_query": ratio(
                    calls["kernels.filter_space_page"], ops),
                "core.ubtree.useful_tuple_ratio": ratio(
                    counts.get("ubtree.tuples_returned", 0),
                    counts.get("ubtree.tuples_fetched", 0)),
                "btree.index_pages_per_lookup": ratio(
                    self.index_gets, calls["btree.descent"] + calls["btree.insert"]),
                "btree.insert_self_s": self_s["btree.insert"],
                "btree.descent_self_s": self_s["btree.descent"],
                "storage.buffer.get_s": self_s["storage.buffer"],
                "storage.buffer.get_calls": calls["storage.buffer"],
                "storage.buffer.hit_ratio": ratio(
                    delta["pool.hits"], delta["pool.hits"] + delta["pool.misses"]),
                "storage.buffer.evictions": self.evicted,
                "storage.disk.busy_s": self_s["storage.disk"],
                "storage.disk.read_calls": delta["disk.pages_read"],
                "storage.disk.read_seeks": delta["disk.read_seeks"],
                "storage.disk.sim_read_s": delta["disk.sim_read_s"],
                "storage.disk.sim_write_s": delta["disk.sim_write_s"],
                "storage.scheduler.submit_s": self_s["storage.scheduler"],
                "storage.scheduler.queue_busy_sim_s": delta["queue.busy"],
                "storage.scheduler.queue_wait_sim_s": delta["queue.wait"],
                "storage.prefetch.advise_s": self_s["storage.prefetch"],
                "storage.prefetch.issued": delta["prefetch.issued"],
                "storage.prefetch.hits": delta["prefetch.hits"],
                "storage.prefetch.wasted": delta["prefetch.wasted"],
                "storage.prefetch.useful_ratio": ratio(
                    delta["prefetch.hits"], delta["prefetch.issued"]),
                "storage.wal.append_s": self_s["storage.wal"]
                - counts.get("storage.wal.recover_s", 0.0),
                "storage.wal.records": delta.get("wal.records", 0),
                "storage.wal.forces": delta["wal.forces"],
                "storage.wal.pages_written": delta.get("wal.pages_written", 0),
                "storage.wal.sim_s": delta["wal.sim_s"],
                "storage.wal.recover_s": counts.get("storage.wal.recover_s", 0.0),
                "storage.replica.write_s": self_s["storage.replica"],
                "storage.replica.copies_written": delta["replica.copies"],
                "storage.replica.repairs": delta["replica.repairs"],
                "storage.retry.retries": delta["retries"],
                "relational.heap.scan_s": self_s["relational.heap"],
                "relational.join.self_s": self_s["relational.join"],
                "relational.join.rows_in_per_row_out": ratio(
                    counts.get("join.rows_in", 0), counts.get("join.rows_out", 0)),
                "planner.plan_build_s": total_s["planner.plan_build"],
                "planner.pushdown.skip_ratio": ratio(
                    counts.get("pushdown.skipped", 0),
                    counts.get("pushdown.skipped", 0) + counts.get("pushdown.read", 0)),
                "planner.parallel.stage_s": (
                    total_s["core.ubtree.regions"] + total_s["storage.buffer"]
                    + total_s["kernels.batch"]
                    if self.workload.name == "scan_parallel_w2" else 0.0
                ),
                "shard.leg_sum_s": total_s["core.tetris"] if world.sharded else 0.0,
                "shard.leg_max_s": self.leg_max_s,
                "shard.merge_self_s": self_s["shard.scan"],
                "shard.join_self_s": self_s["shard.join"],
                "shard.row_skew": ratio(counts.get("shard.row_skew", 0), ops),
                "shard.load_s": world.extra.get("shard_load_s", 0.0),
                "telemetry.events_emitted": self.events,
                "telemetry.emit_s": self.events * run["emit_cost_s"],
                "harness.trace_overhead_ratio": ratio(
                    run["traced_p50_ms"], run["untraced_p50_ms"]),
                "harness.unattributed_share": ratio(self_s["op"], total_s["op"]),
                "harness.traced_samples": run["traced_samples"],
            }
        )
        for name in (
            "relational.sort.run_gen_s", "relational.sort.merge_s",
            "relational.sort.runs_created", "relational.sort.merge_passes",
            "relational.sort.peak_temp_pages", "relational.heap.pages_scanned",
            "planner.pushdown.cover_intervals", "planner.pushdown.cover_keys",
            "planner.pushdown.build_rows", "planner.parallel.fallbacks",
            "shard.sim_elapsed_s", "shard.degradations",
        ):
            values[name] = counts.get(name, 0)
        return values


# ----------------------------------------------------------------------
# standalone and one-off measurements of the traced run
# ----------------------------------------------------------------------
def standalone_kernels(seed: int) -> dict[str, float]:
    """The five batch kernels on 100k seeded points, both backends."""
    space = ZSpace((12, 12, 8))
    rng = random.Random(f"kernels/{seed}")
    points = [
        tuple(rng.randrange(bound + 1) for bound in space.coord_max)
        for _ in range(KERNEL_BATCH)
    ]
    lo = [bound // 4 for bound in space.coord_max]
    hi = [3 * bound // 4 for bound in space.coord_max]
    box = QueryBox(lo, hi)
    result: dict[str, float] = {}
    for backend_name, prefix in (("numpy", "kernels."), ("python", "kernels.pure.")):
        if backend_name not in kernels.available_backends():
            continue
        backend = kernels.backend(backend_name)
        addresses: list[int] = []

        def encode() -> None:
            addresses[:] = backend.encode_batch(space.z, points)

        for metric, call in (
            ("encode_batch_s", encode),
            ("decode_batch_s", lambda: backend.decode_batch(space.z, addresses)),
            ("filter_box_batch_s", lambda: backend.filter_box_batch(lo, hi, points)),
            ("filter_space_batch_s", lambda: backend.filter_space_batch(box, points)),
            ("argsort_keys_s", lambda: backend.argsort_keys(addresses)),
        ):
            started = time.perf_counter()
            call()
            result[prefix + metric] = time.perf_counter() - started
    return result


def emit_cost_s() -> float:
    """Wall seconds to deliver one event to one counting subscriber."""
    seen = []
    event = telemetry.JoinEvent(operator="calibration", rows=0)
    telemetry.register_join_observer(seen.append)
    try:
        started = time.perf_counter()
        for _ in range(2000):
            telemetry.emit_join_event(event)
        return (time.perf_counter() - started) / 2000
    finally:
        telemetry.unregister_join_observer(seen.append)


def extras(workload: Workload, world: World, untraced_walls: list[float]) -> dict[str, float]:
    """The one-off probes a workload owns (run after its traced passes)."""
    name = workload.name
    result: dict[str, float] = {}
    if name == "q6_range_stream":
        result["invariants.checks_overhead_ratio"] = checks_overhead(workload, untraced_walls)
    elif name == "q3_tetris_join":
        result.update(planner_probes(workload, world))
    elif name == "q4_semijoin_fullstack":
        bare = workload.build_bare(world.data)
        idle = Probe(None)
        params = workload.params[:: max(1, len(workload.params) // 12)]
        result["storage.stack.read_overhead_ratio"] = (
            p50_ms(workload, world, idle, params) / p50_ms(workload, bare, idle, params)
        )
    elif name == "shard_scan_join_k4":
        result.update(txn_probe(workload, world))
    elif name == "scan_parallel_w2":
        result.update(parallel_probes(workload, world))
    elif name == "ingest_durable":
        bare = workload.build_bare(world.data)
        result["storage.stack.write_overhead_ratio"] = (
            quantile(untraced_walls, 0.5) * 1000.0 / p50_ms(workload, bare, Probe(None))
        )
    return result


def checks_overhead(workload: Workload, untraced_walls: list[float]) -> float:
    """First ops of workload 1 with ``REPRO_CHECKS=1`` in a subprocess / without."""
    count = min(40, len(workload.params))
    env = dict(os.environ, REPRO_CHECKS="1")
    command = [
        sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
        "--workload", workload.name, "--seed", str(workload.seed),
        "--checks-probe", str(count),
    ]
    if workload.quick:
        command.append("--quick")
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"checks probe failed: {done.stderr[-400:]}")
    checked_ms = json.loads(done.stdout.strip().splitlines()[-1])["p50_ms"]
    return checked_ms / (quantile(untraced_walls[:count], 0.5) * 1000.0)


def planner_probes(workload: Workload, world: World) -> dict[str, float]:
    """``planner.choose_plan_s`` and the Section 4 prediction for Q3's LINEITEM access."""
    table = world.tables["lineitem"]
    span_days = (ANYDATE_HI - ANYDATE_LO).days
    stats = RelationStats(
        pages=table.page_count, attributes=table.dims, ub_instance=table.name,
        ub_fill_factor=1.0,
    )
    cost = CostParameters.from_disk(ICDE99_TESTBED)
    started = time.perf_counter()
    for param in workload.params:
        low = ((param.shipdate_after - ANYDATE_LO).days + 1) / span_days
        choose_plan(stats, {"l_shipdate": (max(0.0, low), 1.0)}, "l_orderkey", cost)
    chosen_s = time.perf_counter() - started

    default = Q3Params()
    low = ((default.shipdate_after - ANYDATE_LO).days + 1) / span_days
    predicted = c_tetris(table.page_count, [(0.0, 1.0), (low, 1.0)], cost)
    world.reset()
    before = world.db.disk.clock
    for _ in TetrisOperator(
        table, {"l_shipdate": (default.shipdate_after + DAY, None)}, "l_orderkey",
    ):
        pass
    measured = world.db.disk.clock - before
    return {
        "planner.choose_plan_s": chosen_s,
        "costmodel.predicted_over_measured": predicted / measured if measured else 0.0,
    }


def txn_probe(workload: Workload, world: World) -> dict[str, float]:
    """2PC ``atomic_insert`` against a plain ``insert_batch`` of the same rows.

    Each runs on its own, identically loaded ORDER world, so both touch
    the same pages and the ratio prices the protocol alone (prepare
    forces, decision log), not which leaves happened to split.
    """
    rows = world.extra["spare_orders"]
    plain_sdb = world.sharded["order"]
    before = plain_sdb.clock_total()
    plain_sdb.insert_batch(rows)
    plain = plain_sdb.clock_total() - before

    atomic_sdb = workload.build_orders(world.data, world.extra["loaded_orders"])
    coordinator = TransactionCoordinator(atomic_sdb)
    before = atomic_sdb.clock_total() + coordinator.log.device.clock
    started = time.perf_counter()
    coordinator.atomic_insert(rows)
    wall = time.perf_counter() - started
    atomic = atomic_sdb.clock_total() + coordinator.log.device.clock - before
    return {
        "txn.atomic_insert_s": wall,
        "txn.commit_overhead_ratio": atomic / plain if plain else 0.0,
        "txn.log_forces": coordinator.log.append_count,
    }


def parallel_probes(workload: Workload, world: World) -> dict[str, float]:
    """Warm serial vs parallel p50, and the pure-Python fork path."""
    table = world.tables["lineitem"]

    def scan_p50(params: list, run: Any) -> float:
        walls = []
        for bound in params:
            started = time.perf_counter()
            run({"l_shipdate": (bound, None)})
            walls.append(time.perf_counter() - started)
        return statistics.median(walls)

    def serial(restriction: dict) -> None:
        for _ in table.tetris_scan(restriction, "l_orderkey"):
            pass

    shipped = 0

    def parallel(restriction: dict, **how: Any) -> None:
        nonlocal shipped
        result = plan_parallel.parallel_tetris_scan(
            table, restriction, "l_orderkey", workers=WORKERS, **how)
        shipped += sum(result.serialized_bytes_per_slab or ())

    params = workload.params[:: max(1, len(workload.params) // 12)]
    speedup = scan_p50(params, serial) / scan_p50(
        params, lambda r: parallel(r, executor="auto"))
    few = params[::4]  # cut from the issue's 20: a pure-Python fork scan costs ~1 s
    with kernels.use_backend("python"):
        fork = scan_p50(few, serial) / scan_p50(
            few, lambda r: parallel(r, executor="fork", measure_serialization=True))
    return {
        "planner.parallel.speedup_vs_serial": speedup,
        "planner.parallel.fork_vs_serial": fork,
        "planner.parallel.serialized_bytes": shipped,
    }


# ----------------------------------------------------------------------
# the "not on" column as hard counts
# ----------------------------------------------------------------------
def isolation_violations(workload_name: str, values: dict[str, float]) -> list[str]:
    """A workload that stops isolating its layer fails loudly here."""
    number = WORKLOAD_NAMES.index(workload_name) + 1
    expect_zero = ["shard.degradations", "storage.retry.retries"]
    if number in (1, 3):
        expect_zero.append("core.tetris.regions_read")
    if number != 3:
        expect_zero.append("relational.sort.runs_created")
    if number in (1, 2, 3, 6):
        expect_zero.append("storage.wal.records")
    if number != 4:
        expect_zero.append("storage.prefetch.issued")
    problems = [
        f"{name} = {values[name]:g}, expected 0 on {workload_name}"
        for name in expect_zero
        if values[name] != 0
    ]
    if number == 6 and values["storage.buffer.hit_ratio"] < 0.99:
        problems.append(
            f"storage.buffer.hit_ratio = {values['storage.buffer.hit_ratio']:.4f}, "
            "expected >= 0.99 on scan_parallel_w2"
        )
    return problems
