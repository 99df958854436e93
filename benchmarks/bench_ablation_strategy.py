"""Ablation: the two Tetris strategies (event-point sweep vs. eager heap).

DESIGN.md calls out the dual implementation as a deliberate design
decision.  This benchmark verifies on a sizeable tree that both
strategies access the same pages in the same order (identical simulated
I/O) and compares their *wall-clock* CPU cost — the one place they may
differ, since the sweep recomputes event points with bit arithmetic
while the eager variant pre-keys all regions.  The wall clock is printed
(``pytest -s``), not written to ``results/ablation_strategy.txt``: the
committed file holds only what every machine reproduces.
"""

import random
import time

from repro.core import QueryBox, UBTree, ZSpace, tetris_sorted
from repro.storage import BufferPool, SimulatedDisk

from _support import format_table, report


def build(bits=(8, 8), rows=15000, page_capacity=16, seed=3):
    disk = SimulatedDisk()
    tree = UBTree(BufferPool(disk, 256), ZSpace(bits), page_capacity=page_capacity)
    rng = random.Random(seed)
    for index in range(rows):
        tree.insert(tuple(rng.randrange(1 << b) for b in bits), index)
    return tree


def run(tree, strategy):
    box = QueryBox((0, 32), (191, 223))
    started = time.perf_counter()
    scan = tetris_sorted(tree, box, 1, strategy=strategy)
    count = sum(1 for _ in scan)
    wall = time.perf_counter() - started
    return {
        "wall": wall,
        "rows": count,
        "pages": list(scan.page_access_order),
        "io_time": scan.stats.elapsed,
        "cache": scan.stats.max_cache_tuples,
    }


def test_ablation_strategy_equivalence(benchmark):
    tree = build()
    results = benchmark.pedantic(
        lambda: {s: run(tree, s) for s in ("sweep", "eager")},
        rounds=1,
        iterations=1,
    )
    sweep, eager = results["sweep"], results["eager"]

    report(
        "ablation_strategy",
        "Ablation — sweep (event points) vs eager (static keys)\n\n"
        + format_table(
            ["strategy", "sim I/O", "rows", "pages", "peak cache"],
            [
                ["sweep", f"{sweep['io_time']:.2f}s",
                 sweep["rows"], len(sweep["pages"]), sweep["cache"]],
                ["eager", f"{eager['io_time']:.2f}s",
                 eager["rows"], len(eager["pages"]), eager["cache"]],
            ],
        ),
    )
    # wall clock is what this machine measured today: shown on ``-s``
    # runs, kept out of the committed result file so a run leaves the
    # tree clean
    print(f"wall clock: sweep {sweep['wall']:.3f}s, eager {eager['wall']:.3f}s")

    # provable equivalence, demonstrated at scale
    assert sweep["pages"] == eager["pages"]
    assert sweep["rows"] == eager["rows"]
    assert abs(sweep["io_time"] - eager["io_time"]) < 1e-6
