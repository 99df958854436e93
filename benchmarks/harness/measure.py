"""The measuring loop: closed-loop passes, reference-speed correction.

Shared by the runner (``run.py``) and the traced run's one-off probes
(``layers.py``) so both time ops the same way.
"""

from __future__ import annotations

import gc
import math
import statistics
import sys
import time

clock = time.perf_counter

#: Wall-clock metrics are reported at *reference speed*.  This sandbox's
#: CPU switches between two speeds ~25 % apart and stays in one for
#: seconds, so same-seed runs spread 10-20 %.  Every ``SPIN_EVERY_S`` of
#: timed work the harness times a fixed pure-Python loop and scales the
#: samples between two such spins by ``REFERENCE_SPIN_S / their mean``;
#: the loop is harness code no engine change can touch, so parent and
#: change are still compared like for like.  Corrected, same-seed runs
#: spread 1-5 %.  The uncorrected median and the loop's own time are
#: printed as well.
REFERENCE_SPIN_S = 0.005
SPIN_EVERY_S = 0.05


def spin_seconds() -> float:
    """Wall time of the reference loop (~5 ms at this box's faster speed)."""
    started = clock()
    total = 0
    for value in range(100_000):
        total += value * value & 0xFF
    return clock() - started


def quantile(values: list[float], share: float) -> float:
    """The ``share`` quantile as a smooth L-estimator (Harrell-Davis, in
    its large-sample normal form): order statistics weighted by a normal
    kernel centred on rank ``share * n`` with the binomial width
    ``sqrt(n * share * (1 - share))``.

    Simulated costs are whole multiples of one page access, so the plain
    sample median is quantised — 28 pages for nine of ten seeds on
    ``q6_range_stream`` — and reads as a constant; the neighbouring
    order statistics carry the rest of the information.  It is also the
    lower-variance estimator for the wall clock.
    """
    ordered = sorted(values)
    count = len(ordered)
    centre = share * count + 0.5  # 1-based rank
    width = max(0.5, math.sqrt(count * share * (1.0 - share)))

    def below(rank: float) -> float:
        return 0.5 * (1.0 + math.erf((rank - centre) / (width * math.sqrt(2.0))))

    total = weighted = 0.0
    for rank, value in enumerate(ordered, start=1):
        weight = below(rank + 0.5) - below(rank - 0.5)
        total += weight
        weighted += weight * value
    return weighted / total


class PassResult:
    """Samples and failures of one pass over a workload's parameters."""

    def __init__(self) -> None:
        self.samples: list = []
        self.failed = 0
        self.pages_read = 0
        self.pages_written = 0
        self.spins: list[float] = []

    def walls(self) -> list[float]:
        """Per-op wall seconds at reference speed."""
        return [sample.wall_s * sample.speed for sample in self.samples]

    def first_walls(self) -> list[float]:
        return [sample.first_wall_s * sample.speed for sample in self.samples]


def run_pass(workload, world, probe, *, reset: bool, layer=None, params=None) -> PassResult:
    """One closed-loop pass: op, then check, then the next parameter.

    Reference spins bracket every ``SPIN_EVERY_S`` of timed work; the
    samples between two spins are scaled by the mean of both.
    """
    result = PassResult()
    stats = world.io_stats()
    read_before = sum(s.pages_read for s in stats)
    written_before = sum(s.pages_written for s in stats)
    tracer = probe.tracer if layer is not None else None
    gc_every = workload.gc_every
    bracket: list = []  # samples since the last spin
    since_spin = 0.0
    last_spin = spin_seconds()

    def close_bracket() -> float:
        spun = spin_seconds()
        result.spins.append(spun)
        speed = REFERENCE_SPIN_S / ((last_spin + spun) / 2)
        for sample in bracket:
            sample.speed = speed
        bracket.clear()
        return spun

    for index, param in enumerate(workload.params if params is None else params):
        if reset:
            workload.before_op(world)
        if index % gc_every == 0:
            gc.collect()
        if since_spin >= SPIN_EVERY_S:
            last_spin = close_bracket()
            since_spin = 0.0
        try:
            if tracer is None:
                sample = workload.op(world, param, probe)
            else:
                tracer.trace_id = tracer.trace_id + 1
                with tracer.span("op"):
                    sample = workload.op(world, param, probe)
                layer.after_op()
            ok = workload.check(param, sample)
        except Exception as error:  # an op that raises is a failed op, not an abort
            print(f"op {index} raised {type(error).__name__}: {error}", file=sys.stderr)
            result.failed += 1
            continue
        sample.output = None
        since_spin += sample.wall_s * workload.ops_per_sample
        bracket.append(sample)
        result.samples.append(sample)
        if not ok:
            result.failed += 1
    close_bracket()
    result.pages_read = sum(s.pages_read for s in stats) - read_before
    result.pages_written = sum(s.pages_written for s in stats) - written_before
    return result


def timed_setup(workload, setup_times: list[float]):
    """Build a world; the caller has dropped its reference to the last one."""
    gc.unfreeze()
    gc.collect()
    spun = spin_seconds()
    started = clock()
    world = workload.setup()
    elapsed = clock() - started
    spun = (spun + spin_seconds()) / 2
    setup_times.append(elapsed * REFERENCE_SPIN_S / spun)
    # what a set-up built lives as long as its world: keep the collector
    # from re-walking it between ops
    gc.collect()
    gc.freeze()
    return world




def p50_ms(workload, world, probe, params: list | None = None) -> float:
    """Median corrected wall ms of one pass over ``params`` (default: all)."""
    done = run_pass(workload, world, probe, reset=not workload.warm, params=params)
    return quantile(done.walls(), 0.5) * 1000.0
