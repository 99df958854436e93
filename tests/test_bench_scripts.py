"""Smoke tests for the stand-alone benchmark scripts.

The scripts under ``benchmarks/`` run in CI steps whose failures are
easy to miss, and they reach into ``repro.tpcd.plans``; a helper they use
being renamed or folded away must fail the tier-1 suite, not only a
workflow log.  Each test imports a script the way ``python script.py``
would and runs one of its measurement functions on a tiny instance.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.tpcd import TPCDConfig, generate

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_script(name: str):
    """Import ``benchmarks/<name>.py`` under a private module name."""
    spec = importlib.util.spec_from_file_location(
        f"_bench_script_{name}", BENCHMARKS / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    path_before = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path_before  # the scripts put src/ on the path themselves
    return module


@pytest.fixture(scope="module")
def tiny_data():
    # the smallest instance on which the sweeps still have I/O to overlap
    return generate(TPCDConfig(scale_factor=0.05, correlated_dates=True))


def test_bench_join_q4_overlap_runs(tiny_data):
    bench_join = load_script("bench_join")
    problems: list[str] = []
    measured = bench_join.bench_q4_overlap(tiny_data, problems)
    assert problems == []
    for mode in ("sequential", "pipelined", "dual_cursor"):
        assert mode in measured
    assert measured["dual_cursor"]["pages_read"] > 0
    assert measured["overlap_vs_sequential"] > 1.0
