"""Golden CLI output: what ``tools.chaos`` and ``tools.crashgrid`` print
on a passing run is pinned byte for byte.

The text carries fault counts, degradation trails and error messages,
so any drift in the failure ladder — or in the harness itself — shows
up as a diff here.  Every case pins ``--backend python`` (always
installed), so the test runs in all four tier-1 configurations, and
``REPRO_CHECKS=1`` must not change a byte: the validators read through
``disk.peek``, so a checks-on run leaves the storage layer exactly as a
checks-off run does and both compare against the one golden.

To re-pin after an intended change, redirect the invocation's stdout
into ``tests/chaos/golden/<name>.txt``.
"""

from pathlib import Path

import pytest

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
