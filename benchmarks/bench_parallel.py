"""Scheduler scaling and slab-parallel wall-clock benchmark.

Two measurements back the PR's performance claims, written to
``BENCH_parallel.json`` at the repo root:

* **scheduler scaling** (simulated clock): the Q3-style restricted
  Tetris sweep over LINEITEM, re-run with the multi-queue
  :class:`~repro.storage.scheduler.IOScheduler` striping pages across
  ``d`` = 1..4 device queues with sweep-ahead prefetching armed.  The
  simulated elapsed time must decrease monotonically with ``d`` (reads
  overlap across queues) while the emitted stream stays bit-identical
  to the single-disk engine's.

* **slab-parallel speedup** (wall clock): the same sweep executed
  serially and through
  :func:`~repro.planner.parallel.parallel_tetris_scan` with 2 and 4
  workers on a ~100k-tuple LINEITEM instance, under both kernel
  backends.  The serial baseline is reported twice — *cold* (first
  touch: buffer-pool misses, column builds) and *warm* (best of the
  repeats) — and every speedup is computed against the **warm** number,
  the honest one.  Each worker entry records the executor that ran
  (``threads`` on the NumPy backend, ``inline`` on the pure one), any
  :class:`~repro.planner.parallel.ExecutorFallbackEvent`, the bytes
  serialized per slab (zero: both executors are zero-copy), and
  ``underprovisioned: true`` whenever the host has fewer cores than
  workers — on such a host the numbers cannot show a speedup and say so
  instead of hiding it.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_parallel.py           # full
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick   # CI smoke

CI gate mode (used by the ``speedup`` workflow leg)::

    PYTHONPATH=src python benchmarks/bench_parallel.py \\
        --assert-speedup 1.5 --workers 4

which exits non-zero when the measured 4-worker speedup on the NumPy
backend falls below the threshold — or skips with an annotation (exit
0) when the host has fewer than 4 cores, so laptop checkouts and
throttled runners do not fail spuriously.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import invariants, kernels
from repro.planner import parallel_tetris_scan
from repro.relational.table import Database, UBTable
from repro.tpcd import TPCDConfig, generate
from repro.tpcd.plans import build_lineitem_ub_sort
from repro.tpcd.queries import Q3Params

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Q3's access pattern: SHIPDATE restriction (~50 %), ORDERKEY order
SORT_ATTR = "l_orderkey"
PREFETCH_DEPTH = 16


def _restrictions() -> dict[str, tuple[Any, Any]]:
    params = Q3Params()
    return {"l_shipdate": (params.shipdate_after, None)}


def _build_world(
    data: Any, *, devices: int = 1, prefetch_depth: int = 0
) -> tuple[Database, UBTable]:
    db = Database(buffer_pages=128, devices=devices, prefetch_depth=prefetch_depth)
    table = build_lineitem_ub_sort(db, data)
    db.reset_measurement()
    return db, table


# ----------------------------------------------------------------------
# simulated clock: device-queue scaling with prefetch armed
# ----------------------------------------------------------------------
def bench_scheduler_scaling(data: Any) -> dict[str, Any]:
    series: list[dict[str, Any]] = []
    reference: list | None = None
    for devices in (1, 2, 3, 4):
        db, table = _build_world(
            data, devices=devices, prefetch_depth=PREFETCH_DEPTH
        )
        before = db.disk.stats.time
        stream = list(table.tetris_scan(_restrictions(), SORT_ATTR))
        elapsed = db.disk.stats.time - before
        prefetch = db.disk.stats.prefetch
        if reference is None:
            reference = stream
        elif stream != reference:
            raise AssertionError(
                f"devices={devices}: stream diverged from the single-disk scan"
            )
        series.append(
            {
                "devices": devices,
                "elapsed_simulated": round(elapsed, 6),
                "prefetch_issued": prefetch.prefetch_issued,
                "prefetch_hits": prefetch.prefetch_hits,
                "prefetch_wasted": prefetch.prefetch_wasted,
                "queue_busy_time": round(prefetch.queue_busy_time, 6),
                "queue_wait_time": round(prefetch.queue_wait_time, 6),
            }
        )
        print(
            f"[scheduler] devices={devices} elapsed={elapsed:.4f}s "
            f"(prefetch {prefetch.prefetch_hits} hits / "
            f"{prefetch.prefetch_wasted} wasted)"
        )
    elapsed_series = [entry["elapsed_simulated"] for entry in series]
    monotonic = all(
        later < earlier
        for earlier, later in zip(elapsed_series, elapsed_series[1:])
    )
    assert reference is not None
    return {
        "backend": kernels.get_backend().name,
        "prefetch_depth": PREFETCH_DEPTH,
        "tuples_output": len(reference),
        "series": series,
        "monotonic_decreasing": monotonic,
        "identical_streams": True,  # asserted above
    }


# ----------------------------------------------------------------------
# wall clock: serial vs slab-parallel execution
# ----------------------------------------------------------------------
def bench_parallel_speedup(
    data: Any,
    backend: str,
    repeats: int,
    worker_counts: "tuple[int, ...]" = (2, 4),
) -> tuple[dict[str, Any], list]:
    restrictions = _restrictions()
    cpu_count = os.cpu_count() or 1
    with kernels.use_backend(backend):
        db, table = _build_world(data)
        # cold baseline: the first touch pays buffer-pool misses and
        # per-page column builds that every later run amortizes
        db.reset_measurement()
        start = time.perf_counter()
        serial_stream = list(table.tetris_scan(restrictions, SORT_ATTR))
        serial_cold = time.perf_counter() - start
        # warm baseline: best of the repeats — the number the parallel
        # runs (which also enjoy warm caches) must honestly beat
        serial_warm = serial_cold
        for _ in range(repeats):
            db.reset_measurement()
            start = time.perf_counter()
            serial_stream = list(table.tetris_scan(restrictions, SORT_ATTR))
            serial_warm = min(serial_warm, time.perf_counter() - start)
        entry: dict[str, Any] = {
            "serial_cold_seconds": round(serial_cold, 4),
            "serial_warm_seconds": round(serial_warm, 4),
            "tuples_output": len(serial_stream),
            "workers": {},
        }
        print(
            f"[{backend}] serial cold {serial_cold:.3f}s, "
            f"warm {serial_warm:.3f}s"
        )
        for workers in worker_counts:
            best = float("inf")
            result = None
            for _ in range(repeats):
                db.reset_measurement()
                start = time.perf_counter()
                result = parallel_tetris_scan(
                    table,
                    restrictions,
                    SORT_ATTR,
                    workers=workers,
                    measure_serialization=True,
                )
                best = min(best, time.perf_counter() - start)
                if result.rows != serial_stream:
                    raise AssertionError(
                        f"{backend}/workers={workers}: parallel stream is "
                        "not bit-identical to the serial scan"
                    )
            assert result is not None
            serialized = list(result.serialized_bytes_per_slab or [])
            entry["workers"][str(workers)] = {
                "seconds": round(best, 4),
                "speedup": round(serial_warm / best, 3) if best > 0 else None,
                "pool_workers": result.workers,
                "executor": result.executor,
                "fallbacks": [event.describe() for event in result.fallbacks],
                "serialized_bytes_per_slab": serialized,
                "serialized_bytes_total": sum(serialized),
                "bit_identical": True,  # asserted above
                "underprovisioned": cpu_count < workers,
            }
            print(
                f"[{backend}] workers={workers} {best:.3f}s via "
                f"{result.executor} (warm serial {serial_warm:.3f}s, "
                f"speedup {serial_warm / best:.2f}x, "
                f"{sum(serialized)} bytes serialized"
                f"{', UNDERPROVISIONED' if cpu_count < workers else ''})"
            )
    return entry, serial_stream


# ----------------------------------------------------------------------
# CI gate: --assert-speedup
# ----------------------------------------------------------------------
def assert_speedup(threshold: float, workers: int, quick: bool) -> int:
    cpu_count = os.cpu_count() or 1
    if cpu_count < workers:
        # GitHub annotation, visible on the job summary; exiting 0 keeps
        # underprovisioned hosts (laptops, throttled runners) green
        print(
            f"::notice::speedup gate skipped: host has {cpu_count} "
            f"core(s), fewer than the {workers} workers under test "
            "(underprovisioned)"
        )
        return 0
    backends = kernels.available_backends()
    backend = "numpy" if "numpy" in backends else backends[0]
    scale_factor = 0.5 if quick else 1.7
    data = generate(TPCDConfig(scale_factor=scale_factor))
    print(
        f"[gate] {len(data.lineitems):,} LINEITEM tuples, backend "
        f"{backend}, {workers} workers, threshold {threshold}x ..."
    )
    entry, _ = bench_parallel_speedup(
        data, backend, repeats=3, worker_counts=(workers,)
    )
    measured = entry["workers"][str(workers)]["speedup"]
    if measured is None or measured < threshold:
        print(
            f"ERROR: {workers}-worker speedup {measured}x is below the "
            f"required {threshold}x on a {cpu_count}-core host",
            file=sys.stderr,
        )
        return 1
    print(f"[gate] OK: {measured}x >= {threshold}x")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small workloads, one repetition",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_parallel.json"),
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="X",
        help="gate mode: fail unless the --workers speedup reaches X "
        "(skips with an annotation on hosts with fewer cores)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker count for --assert-speedup (default: 4)",
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

    if args.assert_speedup is not None:
        return assert_speedup(args.assert_speedup, args.workers, args.quick)

    # ~100k LINEITEM tuples at SF 1.7 (1/100-scale generator); the
    # scheduler-scaling leg rebuilds the world once per device count, so
    # it runs at a smaller scale to keep the sweep affordable
    speedup_sf = 0.25 if args.quick else 1.7
    scaling_sf = 0.1 if args.quick else 0.5
    repeats = 1 if args.quick else 3

    speedup_data = generate(TPCDConfig(scale_factor=speedup_sf))
    scaling_data = (
        speedup_data
        if scaling_sf == speedup_sf
        else generate(TPCDConfig(scale_factor=scaling_sf))
    )
    backends = kernels.available_backends()
    cpu_count = os.cpu_count() or 1
    report: dict[str, Any] = {
        "workload": {
            "query": "Q3-style: 50% SHIPDATE restriction, ORDERKEY order",
            "speedup_scale_factor": speedup_sf,
            "speedup_lineitems": len(speedup_data.lineitems),
            "scaling_scale_factor": scaling_sf,
            "scaling_lineitems": len(scaling_data.lineitems),
            "repeats": repeats,
            "quick": args.quick,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": None,
            "backends": list(backends),
            "cpu_count": cpu_count,
            # the headline claim needs 4 true cores; anything less and
            # every 4-worker number below is a ceiling, not a result
            "underprovisioned": cpu_count < 4,
        },
    }
    if "numpy" in backends:
        import numpy

        report["environment"]["numpy"] = numpy.__version__

    print(
        f"[scheduler] {len(scaling_data.lineitems):,} LINEITEM tuples, "
        f"devices 1..4, prefetch depth {PREFETCH_DEPTH} ..."
    )
    report["scheduler_scaling"] = bench_scheduler_scaling(scaling_data)

    streams: dict[str, list] = {}
    speedup: dict[str, Any] = {}
    for backend in backends:
        print(
            f"[{backend}] slab-parallel scan "
            f"({len(speedup_data.lineitems):,} LINEITEM tuples) ..."
        )
        speedup[backend], streams[backend] = bench_parallel_speedup(
            speedup_data, backend, repeats
        )
    if len(streams) == 2:
        identical = streams["python"] == streams["numpy"]
        speedup["identical_across_backends"] = identical
        print(f"stream parity across backends: {identical}")
        if not identical:
            print("ERROR: backends disagree on the scan", file=sys.stderr)
            return 1
    report["parallel_speedup"] = speedup

    if not report["scheduler_scaling"]["monotonic_decreasing"]:
        print(
            "ERROR: simulated elapsed is not monotonically decreasing "
            "in the device count",
            file=sys.stderr,
        )
        return 1

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
