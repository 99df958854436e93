"""``pairs``: alternating parent/head harness runs, and their summary.

A wall-clock claim in this repository rests on alternating pairs
(``docs/PERFORMANCE.md``): the same harness run at the parent revision
and at the working tree, seed by seed, parent first on even seeds and
head first on odd ones, so that neither side always runs second on a
box that drifts.  This tool runs such a campaign::

    python -m tools.pairs --parent REV --workload W --seeds 11-24

The parent is extracted with ``git archive REV | tar -x`` into a
temporary directory; the head is the working tree, or another extracted
revision with ``--head REV``.  ``--parent X --head X`` is an A/A
campaign: what placement alone moves a metric by.  Every run is
``python3 benchmarks/harness/run.py --workload W --seed S --seconds 10
--trace 0`` in that checkout, and its last stdout line (the harness's
JSON contract line) is what counts.  Nothing else may run on the box
meanwhile.

The report lists every run's end-to-end metrics (the ``end_to_end``
entries of ``BENCHMARK.json``), then per metric the parent's and the
head's median and quartiles, the change of the median, in how many
pairs the head was better, and the gap between the medians over the
parent's interquartile range.  Simulated metrics (``*_sim_*``) repeat
exactly per seed, so they are compared as strings: any difference is
flagged, and so is a run that was not ``correct``.  Either makes the
exit status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Sequence

__all__ = ["main", "order_of", "parse_seeds", "summarise"]

REPO = Path(__file__).resolve().parents[2]
HARNESS = "benchmarks/harness/run.py"
SECONDS = "10"
SIDES = ("parent", "head")

#: one seed's pair: side -> the harness's JSON contract line, parsed
Pair = dict[str, dict]


def parse_seeds(text: str) -> list[int]:
    """``"11-24"`` or ``"11,13,20-22"`` as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def order_of(seed: int) -> tuple[str, str]:
    """Which side runs first: the parent on even seeds."""
    return SIDES if seed % 2 == 0 else SIDES[::-1]


def _quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, middle, high


def _better(head: float, parent: float, direction: str) -> bool:
    return head < parent if direction == "lower" else head > parent


def summarise(
    pairs: dict[int, Pair], metrics: Sequence[tuple[str, str]]
) -> tuple[list[str], bool]:
    """The report on a finished campaign, and whether it is clean.

    ``pairs`` maps each seed to its two contract lines; ``metrics`` are
    ``(name, better)`` pairs, ``better`` being ``"lower"`` or
    ``"higher"``.  Clean means every run was correct and every
    simulated metric equal per seed.
    """
    lines: list[str] = []
    clean = True
    seeds = sorted(pairs)
    names = [name for name, _ in metrics]
    lines.append("# every run: " + " ".join(names))
    for seed in seeds:
        for side in order_of(seed):
            run = pairs[seed][side]
            values = " ".join(f"{run['metrics'][name]['value']:.6g}" for name in names)
            lines.append(f"{seed} {side:<6} {values}")
            if not run.get("correct", False) or run.get("failed", 0):
                clean = False
                lines.append(f"# NOT CORRECT: seed {seed} {side}")
    lines.append(
        "# metric: parent median [q1-q3] -> head median [q1-q3], change, "
        "head better in k/n, |gap| / parent IQR"
    )
    for name, better in metrics:
        parent = [pairs[seed]["parent"]["metrics"][name]["value"] for seed in seeds]
        head = [pairs[seed]["head"]["metrics"][name]["value"] for seed in seeds]
        p_low, p_mid, p_high = _quartiles(parent)
        h_low, h_mid, h_high = _quartiles(head)
        wins = sum(map(_better, head, parent, [better] * len(seeds)))
        change = (h_mid - p_mid) / p_mid if p_mid else 0.0
        spread = p_high - p_low
        ratio = f"{abs(h_mid - p_mid) / spread:.2f}" if spread else "inf"
        lines.append(
            f"{name}: {p_mid:.6g} [{p_low:.6g}-{p_high:.6g}] -> "
            f"{h_mid:.6g} [{h_low:.6g}-{h_high:.6g}], {change:+.1%}, "
            f"head better in {wins}/{len(seeds)}, gap/IQR {ratio}"
        )
        if "_sim_" not in name:
            continue
        for seed in seeds:
            was = repr(pairs[seed]["parent"]["metrics"][name]["value"])
            now = repr(pairs[seed]["head"]["metrics"][name]["value"])
            if was != now:
                clean = False
                lines.append(f"# SIMULATED DIFFERS: {name} seed {seed}: {was} -> {now}")
    if clean:
        lines.append("# every run correct; simulated metrics equal on every seed")
    return lines, clean


def run_harness(checkout: Path, workload: str, seed: int) -> dict:
    """One harness run in ``checkout``: its parsed contract line."""
    command = [
        sys.executable, HARNESS, "--workload", workload, "--seed", str(seed),
        "--seconds", SECONDS, "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{HARNESS} printed nothing in {checkout}:\n{done.stderr}")
    return json.loads(lines[-1])


def extract(revision: str, destination: Path) -> None:
    """``git archive revision | tar -x -C destination``."""
    archive = subprocess.Popen(
        ["git", "archive", revision], cwd=REPO, stdout=subprocess.PIPE
    )
    untar = subprocess.run(["tar", "-x", "-C", str(destination)], stdin=archive.stdout)
    if archive.stdout is not None:
        archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"cannot extract revision {revision!r}")


def end_to_end_metrics() -> list[tuple[str, str]]:
    contract = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(metric["name"], metric["better"]) for metric in contract["end_to_end"]]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.pairs",
        description="alternating parent/head harness runs of one workload",
    )
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument(
        "--head",
        metavar="REV",
        help="extract the head from a revision too (default: the working "
        "tree); --head equal to --parent runs an A/A campaign",
    )
    parser.add_argument("--workload", required=True, metavar="W")
    parser.add_argument("--seeds", required=True, metavar="A-B")
    options = parser.parse_args(argv)
    pairs: dict[int, Pair] = {}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        checkouts: dict[str, Path] = {}
        for side in SIDES:
            revision = getattr(options, side)
            if revision is None:
                checkouts[side] = REPO
                continue
            checkouts[side] = Path(tmp) / side
            checkouts[side].mkdir()
            extract(revision, checkouts[side])
        for seed in parse_seeds(options.seeds):
            pairs[seed] = {}
            for side in order_of(seed):
                run = run_harness(checkouts[side], options.workload, seed)
                pairs[seed][side] = run
                value = run["metrics"]["op_wall_ms_p50"]["value"]
                print(f"# seed {seed} {side}: op_wall_ms_p50 {value:.6g}", flush=True)
    lines, clean = summarise(pairs, end_to_end_metrics())
    head = options.head or "(working tree)"
    print(f"# {options.workload}: parent {options.parent} vs head {head}")
    print("\n".join(lines))
    return 0 if clean else 1
