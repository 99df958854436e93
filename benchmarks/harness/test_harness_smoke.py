"""Smoke test of the benchmark harness (not part of tier-1 ``testpaths``).

Run explicitly::

    python -m pytest benchmarks/harness

Checks that ``--quick`` output names exactly the workloads and metrics
``BENCHMARK.json`` declares, that every name is well-formed, and that the
simulated-clock metrics repeat exactly for one seed and move for another.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from catalogue import END_TO_END, benchmark_json  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def quick(tmp_path, seed: int, trace: int, tag: str) -> dict:
    out = tmp_path / f"quick-{tag}.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--seed", str(seed),
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.strip().splitlines()[-1])["claim"] is None
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> dict:
    return quick(tmp_path_factory.mktemp("harness"), 11, 0, "a")


def test_benchmark_json_is_the_catalogue() -> None:
    assert declared() == benchmark_json()


def test_names_are_well_formed() -> None:
    document = declared()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in document[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_quick_reports_exactly_the_declared_names(untraced, tmp_path) -> None:
    document = declared()
    workloads = [entry["name"] for entry in document["workloads"]]
    assert list(untraced["runs"]) == workloads
    end_to_end = {entry["name"] for entry in document["end_to_end"]}
    for name in workloads:
        (run,) = untraced["runs"][name]
        assert set(run["metrics"]) == end_to_end
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 10
        assert all(metric["value"] != 0 for metric in run["metrics"].values())
    traced = quick(tmp_path, 11, 1, "traced")
    per_layer = {entry["name"] for entry in document["per_layer"]}
    for name in workloads:
        (run,) = traced["runs"][name]
        assert set(run["metrics"]) == per_layer
        assert run["correct"]


def test_simulated_metrics_repeat_for_a_seed_and_move_with_it(untraced, tmp_path) -> None:
    deterministic = [metric.name for metric in END_TO_END if metric.deterministic]
    again = quick(tmp_path, 11, 0, "b")
    other = quick(tmp_path, 12, 0, "c")
    for name, (run,) in ((n, runs) for n, runs in untraced["runs"].items()):
        first = [run["metrics"][metric]["value"] for metric in deterministic]
        same = [again["runs"][name][0]["metrics"][metric]["value"] for metric in deterministic]
        moved = [other["runs"][name][0]["metrics"][metric]["value"] for metric in deterministic]
        assert first == same, name
        assert first != moved, name
