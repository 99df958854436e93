"""``--compare A.json B.json``: is B no worse than A, metric by metric?

Both files come from ``run.py --out``.  Per workload x end-to-end metric
the tool prints both medians, the ratio B/A with its base, and a verdict
against the metric's bound from the catalogue:

``ok``          B's median is not worse than A's by more than the bound
``regressed``   it is
``unresolved``  the runs inside A or inside B spread (distance between
                the quartiles, as a share of the median) wider than the
                bound, so the bound cannot be checked with these files
``differs``     a deterministic metric is not equal to the last digit

Exit status 1 on any ``regressed`` or ``differs``.
"""

from __future__ import annotations

import json
import statistics

from catalogue import END_TO_END


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(middle)


def metric_values(summary: dict, workload: str, metric: str) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for run in summary["runs"].get(workload, ())
        if metric in run["metrics"]
    ]


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        summary_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        summary_b = json.load(handle)
    same_seed = summary_a.get("seed") == summary_b.get("seed")
    status = 0
    print(f"{'workload':<24}{'metric':<26}{'A':>14}{'B':>14}{'B/A':>9}  verdict")
    for workload in summary_a["runs"]:
        for metric in END_TO_END:
            a = metric_values(summary_a, workload, metric.name)
            b = metric_values(summary_b, workload, metric.name)
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            ratio = median_b / median_a if median_a else float("inf")
            worse = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
            if metric.deterministic and same_seed:
                verdict = "ok" if set(a) == set(b) else "differs"
            elif max(spread(a), spread(b)) > metric.bound:
                verdict = f"unresolved (spread {max(spread(a), spread(b)):.1%})"
            else:
                verdict = "regressed" if worse > metric.bound else "ok"
            if verdict in ("regressed", "differs"):
                status = 1
            print(
                f"{workload:<24}{metric.name:<26}{median_a:>14.6g}{median_b:>14.6g}"
                f"{ratio:>9.3f}  {verdict} (base A, bound {metric.bound:.0%})"
            )
    return status
