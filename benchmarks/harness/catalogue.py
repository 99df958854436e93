"""The names the benchmark reports: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written to
disk; the smoke test asserts the two agree, so a metric renamed here and
not there fails loudly.  Layer metrics are named after the ``repro.*``
module whose boundary they are taken at.  ``moves`` is the end-to-end
metric a change to the layer is expected to move, ``on`` the workloads
(1-based, order of :data:`WORKLOADS`) where it should move and
``not_on`` where the prediction is *no change*.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 10
COMMAND = ["python3", "benchmarks/harness/run.py"]
PATHS = ["benchmarks/harness"]

#: (name, why) in issue order; the index + 1 is the workload number
WORKLOADS: tuple[tuple[str, str], ...] = (
    (
        "q6_range_stream",
        "Q6 variants on a table 8x the pool: UB range query, filter kernels and "
        "buffer pool do the work; sweep, sort, join, shard and WAL changes must not move it",
    ),
    (
        "q3_tetris_join",
        "the paper's headline path: Tetris sweep + run buffer, box-cover pushdown "
        "and merge join; where sweep, kernel-argsort and planner changes must show",
    ),
    (
        "q3_classic_sort",
        "the honest rival: heap scans + external merge sort on the same Q3 parameters; "
        "a Tetris gain predicts no change here, a sort fix shows only here",
    ),
    (
        "q4_semijoin_fullstack",
        "two live sweeps over a triangular space with every read crossing "
        "replica, scheduler and prefetch claim; the workload where the two clocks disagree",
    ),
    (
        "shard_scan_join_k4",
        "k=4 x 2-copy sharded sorted scan plus co-partitioned join: time is in "
        "coordinator legs and the k-way merge, and the slowest leg sets the simulated clock",
    ),
    (
        "scan_parallel_w2",
        "slab-parallel restricted scans on a pool the table fits in: the only workload "
        "where the parallel planner works hot, so device-stack changes predict no wall change",
    ),
    (
        "ingest_durable",
        "journaled single-row inserts through WAL + 2 replicas, then crash and recover: "
        "a read-path gain bought with write amplification shows here",
    ),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str
    #: repeats exactly between two runs of the same code and seed
    deterministic: bool = False


#: Every metric here is reported by every workload and is never 0, as the
#: benchmark contract requires.  Bounds are at least three times the
#: spread observed across ten seeds on the noisiest workload (README,
#: "Bounds"), not the issue's list: the driver refuses a benchmark whose
#: unchanged code spreads wider than its own bound.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "generate data + build/load every structure (median of the run's set-ups)"),
    EndToEnd("op_wall_ms_p50", "ms", "lower", 0.25,
             "median wall time per op, plan construction to last tuple consumed"),
    EndToEnd("op_wall_ms_p90", "ms", "lower", 0.25,
             "90th percentile of the same samples"),
    EndToEnd("first_tuple_wall_ms_p50", "ms", "lower", 0.25,
             "median wall time until the caller holds the op's first output"),
    EndToEnd("throughput_ops_s", "1/s", "higher", 0.25,
             "timed samples / total timed wall"),
    EndToEnd("op_sim_s_p50", "s", "lower", 0.15,
             "median simulated (t_pi, t_tau, C) seconds per op", True),
    EndToEnd("op_sim_s_p90", "s", "lower", 0.15,
             "90th percentile of the same", True),
    EndToEnd("first_tuple_sim_s_p50", "s", "lower", 0.15,
             "median simulated seconds until the first output", True),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the workload's process"),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str = ""
    on: tuple[int, ...] = ()
    not_on: tuple[int, ...] = ()


def _group(
    names: str,
    unit: str,
    better: str,
    moves: str = "",
    on: tuple[int, ...] = (),
    not_on: tuple[int, ...] = (),
) -> list[Layer]:
    return [Layer(name, unit, better, moves, on, not_on) for name in names.split()]


_ALL = (1, 2, 3, 4, 5, 6, 7)
_KERNEL_BATCHES = (
    "encode_batch_s decode_batch_s filter_box_batch_s filter_space_batch_s argsort_keys_s"
)

PER_LAYER: tuple[Layer, ...] = tuple(
    # the four issue "end-to-end" metrics that are 0 on at least one
    # workload; the contract forbids that for a bounded metric, so they
    # are reported (same names, same definitions) without a bound
    _group("pages_read_per_op pages_written_per_op temp_pages_per_op", "pages", "lower",
           "op_sim_s_p50", _ALL)
    + _group("failed_ops_share", "fraction", "lower", "", _ALL)
    + _group("tpcd.generate_s", "s", "lower", "setup_s", _ALL)
    + _group("tpcd.rows_generated", "count", "higher", "setup_s", _ALL)
    + _group(" ".join(f"kernels.{n}" for n in _KERNEL_BATCHES.split()), "s", "lower",
             "op_wall_ms_p50", (1, 2, 6), (7,))
    + _group(" ".join(f"kernels.pure.{n}" for n in _KERNEL_BATCHES.split()), "s", "lower",
             "op_wall_ms_p50", (1, 2, 6), (7,))
    + _group("kernels.scan_page_s kernels.scan_block_s kernels.merge_sorted_keys_s "
             "kernels.filter_space_page_s kernels.region_min_keys_s kernels.run_buffer_s "
             "kernels.batch_s", "s", "lower", "op_wall_ms_p50", (1, 2, 4), (7,))
    + _group("kernels.calls", "count", "lower", "op_wall_ms_p50", (1, 2, 4), (7,))
    + _group("core.tetris.self_s", "s", "lower", "op_wall_ms_p50", (2, 4, 5), (1, 3, 7))
    + _group("core.tetris.regions_examined core.tetris.regions_read "
             "core.tetris.max_cache_tuples", "count", "lower",
             "temp_pages_per_op", (2, 4, 5), (1, 3, 7))
    + _group("core.tetris.regions_skipped core.tetris.pages_skipped_by_pushdown "
             "core.tetris.slices", "count", "higher",
             "first_tuple_wall_ms_p50", (2, 4, 5), (1, 3, 7))
    + _group("core.tetris.cache_share", "ratio", "lower",
             "temp_pages_per_op", (2, 4, 5), (1, 3, 7))
    + _group("core.ubtree.range_query_self_s core.ubtree.regions_self_s "
             "core.ubtree.insert_self_s", "s", "lower", "op_wall_ms_p50", (1, 7), (3,))
    + _group("core.ubtree.bulk_load_s", "s", "lower", "setup_s", (1, 7), (3,))
    + _group("core.ubtree.pages_per_query", "pages", "lower", "pages_read_per_op", (1,), (3,))
    + _group("core.ubtree.useful_tuple_ratio", "ratio", "higher",
             "op_wall_ms_p50", (1,), (3,))
    + _group("btree.index_pages_per_lookup", "pages", "lower",
             "pages_read_per_op", (1, 7), (6,))
    + _group("btree.insert_self_s btree.descent_self_s", "s", "lower",
             "op_wall_ms_p50", (1, 7), (6,))
    + _group("storage.buffer.get_s", "s", "lower", "op_wall_ms_p50", (1, 2, 3, 4, 5), (6,))
    + _group("storage.buffer.get_calls storage.buffer.evictions", "count", "lower",
             "op_wall_ms_p50", (1, 2, 3, 4, 5), (6,))
    + _group("storage.buffer.hit_ratio", "ratio", "higher",
             "pages_read_per_op", (1, 2, 3, 4, 5), (6,))
    + _group("storage.disk.busy_s", "s", "lower", "op_wall_ms_p50", (1, 2, 3, 4, 5, 7), (6,))
    + _group("storage.disk.read_calls storage.disk.read_seeks", "count", "lower",
             "op_sim_s_p50", (1, 2, 3, 4, 5, 7), (6,))
    + _group("storage.disk.sim_read_s storage.disk.sim_write_s", "s", "lower",
             "op_sim_s_p50", (1, 2, 3, 4, 5, 7), (6,))
    + _group("storage.scheduler.submit_s", "s", "lower",
             "op_wall_ms_p50", (4,), (1, 2, 3, 5, 6, 7))
    + _group("storage.scheduler.queue_busy_sim_s storage.scheduler.queue_wait_sim_s",
             "s", "lower", "op_sim_s_p50", (4,), (1, 2, 3, 5, 6, 7))
    + _group("storage.prefetch.advise_s", "s", "lower",
             "op_wall_ms_p50", (4,), (1, 2, 3, 5, 6, 7))
    + _group("storage.prefetch.issued storage.prefetch.wasted", "count", "lower",
             "op_wall_ms_p50", (4,), (1, 2, 3, 5, 6, 7))
    + _group("storage.prefetch.hits", "count", "higher",
             "first_tuple_sim_s_p50", (4,), (1, 2, 3, 5, 6, 7))
    + _group("storage.prefetch.useful_ratio", "ratio", "higher",
             "first_tuple_sim_s_p50", (4,), (1, 2, 3, 5, 6, 7))
    + _group("storage.wal.append_s storage.wal.sim_s storage.wal.recover_s", "s", "lower",
             "op_wall_ms_p50", (7,), (1, 2, 3, 6))
    + _group("storage.wal.records storage.wal.forces storage.wal.pages_written",
             "count", "lower", "pages_written_per_op", (7,), (1, 2, 3, 6))
    + _group("storage.replica.write_s", "s", "lower", "op_wall_ms_p50", (7,), (1, 2, 3, 6))
    + _group("storage.replica.copies_written storage.replica.repairs", "count", "lower",
             "pages_written_per_op", (7,), (1, 2, 3, 6))
    + _group("storage.stack.read_overhead_ratio storage.stack.write_overhead_ratio",
             "ratio", "lower", "op_wall_ms_p50", (4, 7), (1, 2))
    + _group("storage.retry.retries", "count", "lower", "op_wall_ms_p50", (4, 7), (1, 2))
    + _group("relational.sort.run_gen_s relational.sort.merge_s", "s", "lower",
             "first_tuple_wall_ms_p50", (3,), (1, 2, 4, 5, 6, 7))
    + _group("relational.sort.runs_created relational.sort.merge_passes", "count", "lower",
             "pages_written_per_op", (3,), (1, 2, 4, 5, 6, 7))
    + _group("relational.sort.peak_temp_pages", "pages", "lower",
             "temp_pages_per_op", (3,), (1, 2, 4, 5, 6, 7))
    + _group("relational.heap.scan_s", "s", "lower", "op_wall_ms_p50", (3,), (1, 2))
    + _group("relational.heap.pages_scanned", "pages", "lower", "op_wall_ms_p50", (3,), (1, 2))
    + _group("relational.join.self_s", "s", "lower", "op_wall_ms_p50", (2, 3, 4), (1, 6, 7))
    + _group("relational.join.rows_in_per_row_out", "ratio", "lower",
             "op_wall_ms_p50", (2, 3, 4), (1, 6, 7))
    + _group("planner.plan_build_s planner.choose_plan_s", "s", "lower",
             "first_tuple_wall_ms_p50", (2,), (1, 3))
    + _group("planner.pushdown.cover_intervals planner.pushdown.cover_keys "
             "planner.pushdown.build_rows", "count", "lower",
             "first_tuple_wall_ms_p50", (2,), (1, 3))
    + _group("planner.pushdown.skip_ratio", "ratio", "higher",
             "pages_read_per_op", (2,), (1, 3))
    + _group("planner.parallel.speedup_vs_serial planner.parallel.fork_vs_serial",
             "ratio", "higher", "op_wall_ms_p50", (6,), (1, 2, 3, 4, 5, 7))
    + _group("planner.parallel.stage_s", "s", "lower",
             "op_wall_ms_p50", (6,), (1, 2, 3, 4, 5, 7))
    + _group("planner.parallel.fallbacks", "count", "lower",
             "op_wall_ms_p50", (6,), (1, 2, 3, 4, 5, 7))
    + _group("planner.parallel.serialized_bytes", "bytes", "lower",
             "op_wall_ms_p50", (6,), (1, 2, 3, 4, 5, 7))
    + _group("shard.leg_max_s shard.leg_sum_s shard.merge_self_s shard.join_self_s",
             "s", "lower", "op_wall_ms_p50", (5,), (1, 2, 3, 4, 6, 7))
    + _group("shard.sim_elapsed_s", "s", "lower",
             "op_sim_s_p50", (5,), (1, 2, 3, 4, 6, 7))
    + _group("shard.row_skew", "ratio", "lower", "op_sim_s_p50", (5,), (1, 2, 3, 4, 6, 7))
    + _group("shard.degradations", "count", "lower",
             "op_wall_ms_p50", (5,), (1, 2, 3, 4, 6, 7))
    + _group("shard.load_s", "s", "lower", "setup_s", (5,), (1, 2, 3, 4, 6, 7))
    + _group("txn.atomic_insert_s", "s", "lower", "", (5,))
    + _group("txn.commit_overhead_ratio", "ratio", "lower", "", (5,))
    + _group("txn.log_forces", "count", "lower", "", (5,))
    + _group("telemetry.events_emitted", "count", "lower", "op_wall_ms_p50", (2, 4, 5), (1,))
    + _group("telemetry.emit_s", "s", "lower", "op_wall_ms_p50", (2, 4, 5), (1,))
    + _group("invariants.checks_overhead_ratio", "ratio", "lower", "", (1,))
    + _group("costmodel.predicted_over_measured", "ratio", "lower", "op_sim_s_p50", (2,))
    + _group("harness.calibration_ms", "ms", "lower", "", _ALL)
    + _group("harness.trace_overhead_ratio harness.unattributed_share", "ratio", "lower",
             "", _ALL)
    + _group("harness.traced_samples", "count", "higher", "", _ALL)
)
PER_LAYER_NAMES = tuple(layer.name for layer in PER_LAYER)


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json``, in the benchmark contract's schema."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": layer.name, "unit": layer.unit, "better": layer.better}
            for layer in PER_LAYER
        ],
    }
