"""CLI driver: ``python -m tools.chaos [--seeds ...] [--backend ...]``.

Prints one line per (backend, seed) outcome and exits non-zero when any
schedule breaks the correct-or-typed-error contract (a
:class:`~tools.chaos.ChaosViolation` propagates with a traceback — that
is a bug in the engine, not in the schedule).

Everything sweep-specific comes from :data:`tools.chaos.SWEEPS`: with
no sweep flag the ``read`` sweep runs; each other row's flag selects
that sweep instead (at most one), and its pinned seeds, default size,
parameters, line labels and summary wording follow from the row.
``--replicas`` / ``--shards`` / ``--copies`` are passed to sweeps that
take them and rejected on sweeps that do not; ``--replay SEED`` re-runs
a single schedule and prints the replayable fault log and
degradation/repair trail as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict

from repro import kernels

from . import SWEEPS, ChaosOutcome, run_schedule, run_suite


def _replay_json(outcome: ChaosOutcome, mode: str) -> str:
    """One schedule's outcome as pretty JSON, fault log expanded."""
    payload = asdict(outcome)
    payload["mode"] = mode
    payload["degradations"] = list(outcome.degradations)
    payload["fault_log"] = [
        {"op": op, "kind": kind, "page_id": page_id, "access": access}
        for op, kind, page_id, access in outcome.fault_log
    ]
    return json.dumps(payload, indent=2, sort_keys=True)


def main(argv: "list[str] | None" = None) -> int:
    default, *others = SWEEPS.values()
    parser = argparse.ArgumentParser(
        prog="chaos",
        description=(
            "Seeded fault-schedule sweep over the Tetris engine.  With no "
            f"sweep flag, the {default.name} sweep: {default.what}."
        ),
    )
    pinned = ", ".join(f"{s.name} {list(s.seeds)}" for s in SWEEPS.values())
    sizes = ", ".join(f"{s.name} {s.rows}" for s in SWEEPS.values())
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help=f"fault-plan seeds to sweep (default, by sweep: {pinned})",
    )
    parser.add_argument(
        "--backend",
        choices=[*kernels.available_backends(), "all"],
        default="all",
        help="kernel backend to sweep (default: every available backend)",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=None,
        help=f"relation size (default, by sweep: {sizes})",
    )
    for sweep in others:
        text = f"run the {sweep.name} sweep: {sweep.what}"
        if sweep.flag in sweep.params:
            # e.g. ``--shards K``: selects the sweep and sets its parameter
            parser.add_argument(
                f"--{sweep.flag}", type=int, default=None, metavar="K", help=text
            )
        else:
            parser.add_argument(f"--{sweep.flag}", action="store_true", help=text)
    parser.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="K",
        help="k-way page replicas under the fault layer (read sweep only)",
    )
    parser.add_argument(
        "--copies",
        type=int,
        default=None,
        metavar="R",
        help="replica copies per shard in failover scenarios (default 2)",
    )
    parser.add_argument(
        "--replay",
        type=int,
        default=None,
        metavar="SEED",
        help="re-run one schedule and print its fault/repair trail as JSON",
    )
    options = parser.parse_args(argv)

    flagged = [s for s in others if getattr(options, s.flag)]
    if len(flagged) > 1:
        parser.error(
            " and ".join(f"--{s.flag}" for s in flagged) + " are mutually exclusive"
        )
    sweep = flagged[0] if flagged else default
    params = {}
    for name in sorted({p for s in SWEEPS.values() for p in s.params}):
        value = getattr(options, name)
        if value is None:
            continue
        if name not in sweep.params:
            parser.error(f"--{name} does not apply to the {sweep.name} sweep")
        params[name] = value
    if options.rows is not None:
        if options.rows < 1:
            parser.error("--rows must be at least 1")
        params["rows"] = options.rows

    if options.replay is not None:
        backend = None if options.backend == "all" else options.backend
        outcomes = run_schedule(sweep.name, options.replay, backend=backend, **params)
        for (mode, _), outcome in zip(sweep.legs, outcomes):
            print(_replay_json(outcome, mode))
        return 0

    backends = None if options.backend == "all" else [options.backend]
    results = run_suite(sweep.name, options.seeds, backends=backends, **params)
    for outcomes in results:
        for (_, label), outcome in zip(sweep.legs, outcomes):
            print(f"{label}{outcome.describe()}")
            if sweep.trail:
                for event in outcome.degradations:
                    print(f"    degradation: {event}")
    statuses = Counter(outcomes[-1].status for outcomes in results)
    counts = ", ".join(f"{n} {status}" for status, n in sorted(statuses.items()))
    print("chaos: " + sweep.summary.format(count=len(results), statuses=counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
