"""Wall-clock CPU benchmark for the batch-kernel layer.

Unlike the simulated-clock benchmarks around it, this harness measures
*real* time: it runs the kernel primitives (curve encode/decode, page
filtering, key argsort) and a 100k-tuple Q6-style ``TetrisScan`` under
both kernel backends, verifies the emitted tuple stream, page access
order and simulated-clock stats are bit-identical, and writes the
timings to ``BENCH_cpu.json`` at the repo root so future changes have a
perf trajectory to regress against.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_cpu_kernels.py           # full
    PYTHONPATH=src python benchmarks/bench_cpu_kernels.py --quick   # CI smoke

The pure-Python backend always runs; the NumPy rows appear only when
NumPy is importable (it is an optional dependency).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from typing import Any, Callable

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import invariants, kernels
from repro.core.curves import Curve
from repro.core.query_space import QueryBox
from repro.core.tetris import tetris_sorted
from repro.core.ubtree import UBTree
from repro.core.zorder import ZSpace
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the scan workload: a 4-d universe, Q6-style box restricting three of
#: the four attributes, sorted output on the unrestricted first one
SCAN_BITS = (16, 16, 16, 16)
SCAN_CAPACITY = 256
SEED = 20260805


def _best_of(repeats: int, fn: Callable[[], Any]) -> tuple[float, Any]:
    """Minimum wall-clock time over ``repeats`` runs (and the last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# ----------------------------------------------------------------------
# kernel micro-benchmarks: one column of points / keys per call
# ----------------------------------------------------------------------
def bench_kernels(backend: str, count: int, repeats: int) -> dict[str, float]:
    rng = random.Random(SEED)
    curve = Curve.z_curve(SCAN_BITS)
    points = [
        tuple(rng.randrange(1 << bits) for bits in SCAN_BITS)
        for _ in range(count)
    ]
    lo = tuple(1 << (bits - 2) for bits in SCAN_BITS)
    hi = tuple(3 * (1 << (bits - 2)) for bits in SCAN_BITS)
    box = QueryBox(lo, hi)
    with kernels.use_backend(backend) as kernel:
        encode_time, addresses = _best_of(
            repeats, lambda: kernel.encode_batch(curve, points)
        )
        decode_time, decoded = _best_of(
            repeats, lambda: kernel.decode_batch(curve, addresses)
        )
        assert decoded == points
        filter_box_time, _ = _best_of(
            repeats, lambda: kernel.filter_box_batch(lo, hi, points)
        )
        filter_space_time, _ = _best_of(
            repeats, lambda: kernel.filter_space_batch(box, points)
        )
        shuffled = list(addresses)
        rng.shuffle(shuffled)
        argsort_time, _ = _best_of(
            repeats, lambda: kernel.argsort_keys(shuffled)
        )
    return {
        "encode_batch": encode_time,
        "decode_batch": decode_time,
        "filter_box_batch": filter_box_time,
        "filter_space_batch": filter_space_time,
        "argsort_keys": argsort_time,
    }


# ----------------------------------------------------------------------
# the headline workload: Q6-style TetrisScan
# ----------------------------------------------------------------------
def build_scan_tree(tuples: int) -> UBTree:
    rng = random.Random(SEED)
    rows = [
        (
            tuple(rng.randrange(1 << bits) for bits in SCAN_BITS),
            ("payload", index),
        )
        for index in range(tuples)
    ]
    disk = SimulatedDisk()
    buffer = BufferPool(disk, capacity=1 << 20)
    tree = UBTree(buffer, ZSpace(SCAN_BITS), page_capacity=SCAN_CAPACITY)
    tree.bulk_load(rows)
    return tree


def scan_box() -> QueryBox:
    lo = [0] * len(SCAN_BITS)
    hi = [(1 << bits) - 1 for bits in SCAN_BITS]
    # restrict dims 1-3 (Q6 restricts SHIPDATE, DISCOUNT and QUANTITY
    # and sorts on an unrestricted attribute)
    lo[1], hi[1] = 0, (1 << SCAN_BITS[1]) // 2
    lo[2], hi[2] = (1 << SCAN_BITS[2]) // 10, (1 << SCAN_BITS[2]) * 4 // 10
    lo[3], hi[3] = (1 << SCAN_BITS[3]) // 4, (1 << SCAN_BITS[3]) * 55 // 100
    return QueryBox(tuple(lo), tuple(hi))


def run_scan(tree: UBTree, space: QueryBox) -> tuple[list, list, dict]:
    scan = tetris_sorted(tree, space, 0)
    stream = list(scan)
    return stream, scan.page_access_order, vars(scan.stats)


def bench_scan(
    backend: str, tuples: int, repeats: int
) -> tuple[dict[str, Any], tuple]:
    # a fresh tree per backend keeps the simulated disk clocks aligned,
    # so the stats parity check below compares like with like
    tree = build_scan_tree(tuples)
    space = scan_box()
    with kernels.use_backend(backend):
        stream, pages, stats = run_scan(tree, space)  # parity reference
        elapsed, (stream2, pages2, _) = _best_of(
            repeats, lambda: run_scan(tree, space)
        )
    assert stream2 == stream and pages2 == pages
    result = {
        "seconds": elapsed,
        "tuples_scanned": tuples,
        "tuples_output": stats["tuples_output"],
        "pages_read": len(pages),
    }
    return result, (stream, pages, stats)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small workloads, one repetition",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_cpu.json"),
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)

    if invariants.enabled():
        raise RuntimeError(
            "benchmarks must run with invariant checks disabled "
            "(unset REPRO_CHECKS); checks-on timings are not comparable"
        )
    from repro.storage import armed_disk_count, armed_scheduler_count

    if armed_disk_count():
        raise RuntimeError(
            "benchmarks must run fault-free; disarm every FaultyDisk "
            "before timing (chaos-mode numbers are not comparable)"
        )
    if armed_scheduler_count():
        raise RuntimeError(
            "CPU benchmarks must run without prefetching; disarm every "
            "IOScheduler before timing (scheduler numbers belong in "
            "BENCH_parallel.json via bench_parallel.py)"
        )

    kernel_count = 10_000 if args.quick else 100_000
    scan_tuples = 10_000 if args.quick else 100_000
    repeats = 1 if args.quick else 5

    backends = kernels.available_backends()
    report: dict[str, Any] = {
        "workload": {
            "bits": list(SCAN_BITS),
            "page_capacity": SCAN_CAPACITY,
            "kernel_batch": kernel_count,
            "scan_tuples": scan_tuples,
            "repeats": repeats,
            "quick": args.quick,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": None,
            "backends": list(backends),
        },
        "kernels": {},
        "tetris_scan": {},
    }
    if "numpy" in backends:
        import numpy

        report["environment"]["numpy"] = numpy.__version__

    parity: dict[str, tuple] = {}
    for backend in backends:
        print(f"[{backend}] kernel primitives ({kernel_count:,} points) ...")
        report["kernels"][backend] = bench_kernels(
            backend, kernel_count, repeats
        )
        print(f"[{backend}] Q6-style TetrisScan ({scan_tuples:,} tuples) ...")
        report["tetris_scan"][backend], parity[backend] = bench_scan(
            backend, scan_tuples, repeats
        )

    if len(parity) == 2:
        python_run, numpy_run = parity["python"], parity["numpy"]
        identical = python_run == numpy_run
        report["tetris_scan"]["identical_across_backends"] = identical
        speedup = (
            report["tetris_scan"]["python"]["seconds"]
            / report["tetris_scan"]["numpy"]["seconds"]
        )
        report["tetris_scan"]["numpy_speedup"] = round(speedup, 2)
        print(
            f"scan parity (stream, page order, stats): {identical}; "
            f"numpy speedup: {speedup:.2f}x"
        )
        if not identical:
            print("ERROR: backends disagree on the scan", file=sys.stderr)
            return 1

    for backend, times in report["kernels"].items():
        line = "  ".join(f"{name}={value * 1e3:.2f}ms" for name, value in times.items())
        print(f"[{backend}] {line}")
    for backend in backends:
        scan_result = report["tetris_scan"][backend]
        print(
            f"[{backend}] scan: {scan_result['seconds'] * 1e3:.1f}ms "
            f"({scan_result['tuples_output']} tuples out, "
            f"{scan_result['pages_read']} pages)"
        )

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
