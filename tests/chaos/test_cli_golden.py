"""Golden CLI output: what ``tools.chaos`` and ``tools.crashgrid`` print
on a passing run is pinned byte for byte.

The text carries fault counts, degradation trails and error messages,
so any drift in the failure ladder — or in the harness itself — shows
up as a diff here.  Every case pins ``--backend python`` (always
installed), so the test runs in all four tier-1 configurations; where
``REPRO_CHECKS=1`` legitimately changes the output (the checks-on
``ShardedDatabase.load`` leaves one page in each copy's pool, so seed 7
of the shard and join sweeps injects one fault fewer) a
``<name>.checks.txt`` variant sits beside ``<name>.txt``.

To re-pin after an intended change, redirect the invocation's stdout
into ``tests/chaos/golden/<name>.txt`` (and, with ``REPRO_CHECKS=1``,
into the ``.checks.txt`` variant if the two differ).
"""

from pathlib import Path

import pytest

from repro import invariants
from tools.chaos.__main__ import main as chaos_main
from tools.crashgrid.__main__ import main as crashgrid_main

GOLDEN = Path(__file__).parent / "golden"

#: golden file stem -> (CLI entry point, argv before ``--backend python``)
CASES = {
    "read": (chaos_main, []),
    "replicas2": (chaos_main, ["--replicas", "2"]),
    "write": (chaos_main, ["--write"]),
    "prefetch": (chaos_main, ["--prefetch"]),
    "shards4": (chaos_main, ["--shards", "4"]),
    "join": (chaos_main, ["--join"]),
    "txn": (chaos_main, ["--txn"]),
    "replay17_replicas2": (chaos_main, ["--replay", "17", "--replicas", "2"]),
    "prefetch_replay3": (chaos_main, ["--prefetch", "--replay", "3"]),
    "crashgrid_points": (crashgrid_main, ["--points"]),
}


@pytest.mark.parametrize("name", CASES)
def test_cli_output_is_pinned(name, capsys):
    main, argv = CASES[name]
    assert main([*argv, "--backend", "python"]) == 0
    golden = GOLDEN / f"{name}.txt"
    checks_variant = GOLDEN / f"{name}.checks.txt"
    if invariants.enabled() and checks_variant.exists():
        golden = checks_variant
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, complaint",
    [
        (["--write", "--replicas", "2"], "--replicas does not apply to the write"),
        (["--txn", "--copies", "3"], "--copies does not apply to the txn"),
        (["--copies", "3"], "--copies does not apply to the read"),
        (["--join", "--shards", "4"], "mutually exclusive"),
        (["--rows", "0"], "--rows must be at least 1"),
    ],
)
def test_cli_usage_errors(argv, complaint, capsys):
    """A flag the selected sweep does not take — and a size of zero,
    which used to fall back to the default without a word — is a usage
    error, not a silently different run."""
    with pytest.raises(SystemExit) as exit_info:
        chaos_main(argv)
    assert exit_info.value.code == 2
    assert complaint in capsys.readouterr().err
