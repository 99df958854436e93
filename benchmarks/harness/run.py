"""One command, one schema: the both-clocks, per-layer benchmark.

The benchmark driver runs one workload per process::

    python3 benchmarks/harness/run.py --workload NAME --seed N --seconds S --trace 0|1

and reads the last stdout line: ``{"correct", "attempted", "failed",
"metrics"}`` with every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``) of ``BENCHMARK.json``.

By hand, without ``--workload``, every workload runs in a fresh
subprocess (so ``peak_rss_mb`` is attributable)::

    python3 benchmarks/harness/run.py [--seed N] [--trace 1] [--quick]
                                      [--repeat K] [--out FILE]
    python3 benchmarks/harness/run.py --compare A.json B.json

Exit status is non-zero when any op failed (``failed_ops_share > 0``),
when a traced run breaks a workload-isolation check, and for
``--compare`` when a metric regressed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

from catalogue import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOAD_NAMES  # noqa: E402
from measure import clock, p50_ms, quantile, run_pass, timed_setup  # noqa: E402

DEFAULT_SEED = 11
SETUPS_PER_RUN = 3
OUT_DIR = os.path.join(HERE, "out")


def refuse_debug_modes() -> None:
    """Refuse to time with ``REPRO_CHECKS=1`` or an armed ``FaultyDisk``.

    The guards are ``benchmarks/_support.py``'s.  Its import also runs
    ``ensure_prefetch_free()`` once, which is harmless here: nothing is
    built yet, so no ``IOScheduler`` exists.  Its ``report()`` (which
    would run that guard again) is never called —
    ``q4_semijoin_fullstack`` arms a scheduler on purpose.
    """
    import _support

    _support.ensure_checks_disabled()
    _support.ensure_fault_free()


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    refuse_debug_modes()
    from workloads import make

    workload = make(name, seed, quick)
    min_setups = 1 if quick else SETUPS_PER_RUN
    # a workload that needs a fresh world per pass sets up as it goes
    initial = 1 if (trace or workload.fresh_world_per_pass) else min_setups
    setup_times: list[float] = []
    world = None
    # the collector runs only where the harness calls it: between ops,
    # never inside a timed region, set-up included
    gc.disable()
    try:
        while len(setup_times) < initial:
            world = None
            world = timed_setup(workload, setup_times)
        workload.prepare(world)
        gc.freeze()
        if trace:
            return traced_run(workload, world, seconds, setup_times)
        return untraced_run(workload, world, seconds, setup_times, min_setups)
    finally:
        gc.enable()


def accounting(workload, first) -> dict:
    """The deterministic numbers: first complete pass, cold pool."""
    ops = max(1, len(first.samples)) * workload.ops_per_sample
    sims = [sample.sim_s for sample in first.samples] or [0.0]
    first_sims = [sample.first_sim_s for sample in first.samples] or [0.0]
    attempted = len(workload.params)
    return {
        "op_sim_s_p50": quantile(sims, 0.5),
        "op_sim_s_p90": quantile(sims, 0.9),
        "first_tuple_sim_s_p50": quantile(first_sims, 0.5),
        "pages_read_per_op": first.pages_read / ops,
        "pages_written_per_op": first.pages_written / ops,
        "temp_pages_per_op": sum(sample.temp_pages for sample in first.samples) / ops,
        "failed_ops_share": first.failed / attempted if attempted else 1.0,
    }


def quantile_ms(seconds: list[float], share: float) -> float:
    return quantile(seconds, share) * 1000.0 if seconds else 0.0


def untraced_run(workload, world, seconds, setup_times, min_setups) -> dict:
    """End-to-end numbers: tracing off, passes until ``seconds`` are spent."""
    from workloads import Probe

    probe = Probe(None)
    first = None
    verified = True
    if workload.warm:
        # simulated clock and page counts from one cold execution of
        # every op; the wall clock from the warm passes that follow
        first = run_pass(workload, world, probe, reset=True)
        workload.warm_up(world)
    passes = []
    measured = 0.0
    while measured < seconds or len(setup_times) < min_setups or not passes:
        if workload.fresh_world_per_pass and passes:
            world = None
            world = timed_setup(workload, setup_times)
        started = clock()
        passes.append(run_pass(workload, world, probe, reset=not workload.warm))
        measured += clock() - started
        if len(passes) == 1 and not workload.after_first_pass(world, probe):
            print("whole-pass verification failed", file=sys.stderr)
            verified = False
    counted = passes if first is None else [first, *passes]
    attempted = len(workload.params) * len(counted)
    failed = sum(done.failed for done in counted) if verified else attempted
    walls = [wall for done in passes for wall in done.walls()]
    first_walls = [wall for done in passes for wall in done.first_walls()]
    raw_walls = [sample.wall_s for done in passes for sample in done.samples]
    spins = [spun for done in passes for spun in done.spins]
    report = accounting(workload, counted[0])
    report["failed_ops_share"] = failed / attempted
    report.update(
        {
            "setup_s": statistics.median(setup_times),
            "op_wall_ms_p50": quantile_ms(walls, 0.5),
            "op_wall_ms_p90": quantile_ms(walls, 0.9),
            "first_tuple_wall_ms_p50": quantile_ms(first_walls, 0.5),
            # a sample of k ops holds their mean wall, so this is ops (rows) per second
            "throughput_ops_s": len(walls) / sum(walls) if walls else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # not in the contract's JSON: what the correction started from
            "raw_op_wall_ms_p50": quantile_ms(raw_walls, 0.5),
            "reference_spin_ms_p50": statistics.median(spins) * 1000.0,
        }
    )
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "attempted": attempted * workload.ops_per_sample,
        "failed": failed * workload.ops_per_sample,
        "samples": len(walls),
        "passes": len(passes),
        "setups": len(setup_times),
        "values": report,
        "problems": [],
    }


def traced_run(workload, world, seconds, setup_times) -> dict:
    """Per-layer numbers: an untraced pass, then passes with the wrappers on."""
    import layers
    from tracing import Tracer, spans_as_dicts
    from workloads import Probe

    calibration = [layers.calibration_ms()]
    standalone = layers.standalone_kernels(workload.seed)
    emit_cost = layers.emit_cost_s()
    idle = Probe(None)
    first = run_pass(workload, world, idle, reset=True)
    attempted, failed = len(workload.params), first.failed
    if workload.warm:
        workload.warm_up(world)
        baseline = run_pass(workload, world, idle, reset=False)
    else:
        baseline = first
    untraced_walls = baseline.walls()
    verified = workload.after_first_pass(world, idle)
    if workload.fresh_world_per_pass:
        world = None
        world = timed_setup(workload, setup_times)

    tracer = Tracer()
    probe = Probe(tracer)
    layer = layers.LayerTrace(workload, world, tracer, probe)
    layer.install()
    traced_walls: list[float] = []
    passes = 0
    measured = 0.0
    try:
        # the ops mutate a fresh-per-pass world, so it gets one traced pass
        while not passes or (
            measured < seconds * 0.4 and not workload.fresh_world_per_pass
        ):
            started = clock()
            done = run_pass(workload, world, probe, reset=not workload.warm, layer=layer)
            measured += clock() - started
            passes += 1
            traced_walls.extend(done.walls())
            attempted += len(workload.params)
            failed += done.failed
        if workload.fresh_world_per_pass:
            # the traced world's crash + recover feeds storage.wal.recover_s
            verified = workload.after_first_pass(world, probe) and verified
        if not verified:
            failed = attempted
        report = accounting(workload, first)
        report["failed_ops_share"] = failed / attempted
        run = dict(
            report,
            standalone=standalone,
            emit_cost_s=emit_cost,
            traced_samples=len(traced_walls),
            traced_p50_ms=quantile_ms(traced_walls, 0.5),
            untraced_p50_ms=quantile_ms(untraced_walls, 0.5),
        )
        values = layer.metrics(run)
    finally:
        layer.uninstall()
    values.update(layers.extras(workload, world, untraced_walls))
    calibration.append(layers.calibration_ms())
    values["harness.calibration_ms"] = statistics.mean(calibration)
    problems = layers.isolation_violations(workload.name, values)

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": workload.seed,
                "truncated": tracer.truncated,
                "calibration_ms": calibration,
                "self_seconds": dict(tracer.self_seconds()),
                "spans": spans_as_dicts(tracer),
            },
            handle,
        )
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "attempted": attempted * workload.ops_per_sample,
        "failed": failed * workload.ops_per_sample,
        "samples": len(traced_walls),
        "passes": passes,
        "setups": len(setup_times),
        "values": values,
        "problems": problems,
        "top_layers": top_layers(tracer),
    }


def top_layers(tracer, count: int = 3) -> list[list]:
    """The layers with the largest wall self-time share of the traced ops."""
    self_s = tracer.self_seconds()
    total = tracer.total_seconds().get("op", 0.0)
    ranked = sorted(
        ((name, seconds) for name, seconds in self_s.items() if name != "op"),
        key=lambda item: -item[1],
    )
    return [[name, seconds / total if total else 0.0] for name, seconds in ranked[:count]]


def checks_probe(name: str, seed: int, count: int, quick: bool) -> int:
    """Internal: p50 of the first ``count`` ops in whatever mode the
    environment put the engine in (the parent sets ``REPRO_CHECKS=1``)."""
    from workloads import Probe, make

    workload = make(name, seed, quick)
    world = workload.setup()
    workload.prepare(world)
    print(json.dumps({"p50_ms": p50_ms(workload, world, Probe(None), workload.params[:count])}))
    return 0


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def catalogue_for(trace: bool):
    return PER_LAYER if trace else END_TO_END


def print_report(result: dict, trace: bool) -> None:
    values = result["values"]
    print(
        f"# {result['workload']} seed={result['seed']} samples={result['samples']} "
        f"passes={result['passes']} setups={result['setups']} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    for metric in catalogue_for(trace):
        print(f"{result['workload']:<24}{metric.name:<44}{values[metric.name]:>16.6g} {metric.unit}")
    if not trace:
        for name in ("pages_read_per_op", "pages_written_per_op", "temp_pages_per_op",
                     "failed_ops_share", "raw_op_wall_ms_p50", "reference_spin_ms_p50"):
            print(f"{result['workload']:<24}{name:<44}{values[name]:>16.6g}")
    for name, share in result.get("top_layers", ()):
        print(f"# top layer by wall self time: {name} {share:.1%}")
    for problem in result["problems"]:
        print(f"# ISOLATION: {problem}")


def contract_line(result: dict, trace: bool) -> str:
    values = result["values"]
    return json.dumps(
        {
            "correct": result["failed"] == 0 and not result["problems"],
            "attempted": max(1, result["attempted"]),
            "failed": result["failed"],
            "metrics": {
                metric.name: {"value": values[metric.name], "unit": metric.unit}
                for metric in catalogue_for(trace)
            },
        }
    )


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh subprocess; one file in ``--out``."""
    names = WORKLOAD_NAMES
    runs: dict[str, list[dict]] = {name: [] for name in names}
    status = 0
    for _ in range(args.repeat):
        for name in names:
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                status = 1
            if lines:
                runs[name].append(json.loads(lines[-1]))
    summary = {
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "seconds": args.seconds,
        "runs": runs,
        "claim": None,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    failed = sum(run["failed"] for group in runs.values() for run in group)
    print(json.dumps({"workloads": len(names), "failed_ops": failed, "claim": None}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="SF 0.1, one pass of >= 10 ops per workload")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (all-workload mode); --compare reads the spread")
    parser.add_argument("--out", help="write every run's metrics to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--checks-probe", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(RUN_SECONDS)

    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare)
    if args.checks_probe:
        return checks_probe(args.workload, args.seed, args.checks_probe, args.quick)
    if args.workload is None:
        return run_all(args)

    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.quick
        )
    except ImportError as error:
        # a checkout without src/ (or without NumPy) cannot run the engine
        print(f"cannot import the engine: {error}", file=sys.stderr)
        return 2
    print_report(result, bool(args.trace))
    print(contract_line(result, bool(args.trace)))
    return 1 if result["failed"] or result["problems"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
