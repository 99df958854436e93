"""Benchmark-side spans: timing wrappers installed on live engine instances.

R001 keeps the wall clock out of ``src/repro``, so the harness owns it:
:class:`Tracer` shadows *instance* attributes of already-built engine
objects (``pool.get``, ``disk.read``, ``wal.touch``, ...) with wrappers
that open a span around the original bound method.  Nothing under
``src/`` is edited and :meth:`Tracer.uninstall` deletes the instance
attributes again, restoring the class methods.

A span is ``(name, start, end, parent, trace_id, span_id)``; spans of one
op share a trace id.  A layer's *self* time is its span duration minus
the part covered by its child spans.  Aggregates (self seconds, total
seconds, calls per span name) are kept for every span; the raw spans are
kept in memory up to ``span_cap`` and written out when the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

from repro.core.tetris import TetrisScan

Span = tuple  # (name, start, end, parent_id, trace_id, span_id)


class _ThreadState:
    """Per-thread span stack and aggregates (merged on read)."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)


class Tracer:
    """Span recorder plus the registry of patched instance attributes."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        span_cap: int = 40_000,
    ) -> None:
        self.clock = clock
        self.span_cap = span_cap
        self.spans: list[Span] = []
        self.truncated = False
        self.trace_id = 0
        #: TetrisScan instances created through a traced table since the
        #: last :meth:`take_scans`; the harness reads their ``stats``
        self.scans: list[TetrisScan] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        #: (start, end) of top-level spans closed on worker threads; the
        #: next main-thread span to close absorbs their union as child time
        self._foreign: list[tuple[float, float]] = []
        self._patched: list[tuple[Any, str]] = []

    # ------------------------------------------------------------------
    # span stack
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, name: str) -> tuple[_ThreadState, list]:
        state = self._state()
        frame = [name, next(self._ids), 0.0, 0.0]
        state.stack.append(frame)
        frame[3] = self.clock()
        return state, frame

    def exit(self, state: _ThreadState, frame: list) -> float:
        end = self.clock()
        name, span_id, child_s, start = frame
        stack = state.stack
        stack.pop()
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_id = parent[1]
        else:
            parent_id = 0
            if threading.get_ident() != self._main:
                with self._lock:
                    self._foreign.append((start, end))
        if self._foreign and threading.get_ident() == self._main:
            with self._lock:
                foreign, self._foreign = self._foreign, []
            child_s += _union_length(foreign, start, end)
        state.self_s[name] += duration - child_s
        state.total_s[name] += duration
        state.calls[name] += 1
        if len(self.spans) < self.span_cap:
            self.spans.append((name, start, end, parent_id, self.trace_id, span_id))
        else:
            self.truncated = True
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        state, frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(state, frame)

    def iterate(
        self,
        iterable: Iterable[Any],
        name: str,
        note: Callable[[float, bool], None] | None = None,
    ) -> Iterator[Any]:
        """Yield from ``iterable`` with one span per ``next()`` — a
        generator only works while it is being resumed, so that is the
        only time charged to ``name``.  ``note(seconds, produced)`` hears
        about every pull, the exhausting one included."""
        pull = iter(iterable).__next__
        while True:
            state, frame = self.enter(name)
            produced = True
            try:
                item = pull()
            except StopIteration:
                produced = False
                return
            finally:
                spent = self.exit(state, frame)
                if note is not None:
                    note(spent, produced)
            yield item

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def _merged(self, field: str) -> dict[str, float]:
        merged: dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in getattr(state, field).items():
                merged[name] += value
        return merged

    def self_seconds(self) -> dict[str, float]:
        return self._merged("self_s")

    def total_seconds(self) -> dict[str, float]:
        return self._merged("total_s")

    def call_counts(self) -> dict[str, float]:
        return self._merged("calls")

    def take_scans(self) -> list[TetrisScan]:
        scans, self.scans = self.scans, []
        return scans

    # ------------------------------------------------------------------
    # instance patching
    # ------------------------------------------------------------------
    def wrap(self, obj: Any, attr: str, name: str, *, iterate: bool = False) -> None:
        """Shadow ``obj.attr`` with a span-opening wrapper named ``name``.

        ``iterate=True`` is for methods returning a generator: the call
        itself is free, the span is charged per resumed ``next()``.
        """
        original = getattr(obj, attr)
        if iterate:
            tracer = self

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return tracer.iterate(original(*args, **kwargs), name)

            self.patch(obj, attr, wrapper)
        else:
            self.patch(obj, attr, self.timed(original, name))

    def patch(self, obj: Any, attr: str, replacement: Any) -> None:
        """Set an instance attribute and remember to delete it again."""
        if attr in vars(obj):
            raise RuntimeError(f"{type(obj).__name__}.{attr} is already patched")
        setattr(obj, attr, replacement)
        self._patched.append((obj, attr))

    def uninstall(self) -> None:
        for obj, attr in reversed(self._patched):
            delattr(obj, attr)
        self._patched.clear()

    def trace_tetris_scans(self, table: Any) -> None:
        """Route ``table.tetris_scan`` through :class:`TracedTetrisScan`."""
        original = table.tetris_scan
        tracer = self

        def tetris_scan(*args: Any, **kwargs: Any) -> TetrisScan:
            scan = original(*args, **kwargs)
            scan.__class__ = TracedTetrisScan
            scan.harness_tracer = tracer
            scan.harness_wall = 0.0
            tracer.scans.append(scan)
            return scan

        self.patch(table, "tetris_scan", tetris_scan)

    def trace_run_buffers(self, backend: Any, name: str) -> None:
        """Time ``push``/``cut`` of every run buffer the backend hands out."""
        original = backend.make_run_buffer
        tracer = self

        def make_run_buffer() -> Any:
            buffer = original()
            for attr in ("push", "cut"):
                method = getattr(buffer, attr)
                setattr(buffer, attr, tracer.timed(method, name))
            return buffer

        self.patch(backend, "make_run_buffer", make_run_buffer)

    def timed(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``function`` with a ``name`` span around every call."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state, frame = self.enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.exit(state, frame)

        return wrapper


class TracedTetrisScan(TetrisScan):
    """A live :class:`TetrisScan` re-classed by the harness.

    Same object, same state; only the two public entry points open a
    ``core.tetris`` span, and the scan sums its own wall time so a shard
    leg can be read off after the fact.
    """

    harness_tracer: Tracer
    harness_wall: float

    def __iter__(self) -> Iterator[Any]:
        return self.harness_tracer.iterate(super().__iter__(), "core.tetris", self._spent)

    def upcoming_regions(self, count: int) -> list:
        tracer = self.harness_tracer
        state, frame = tracer.enter("core.tetris")
        try:
            return super().upcoming_regions(count)
        finally:
            self.harness_wall += tracer.exit(state, frame)

    def _spent(self, seconds: float, produced: bool) -> None:
        self.harness_wall += seconds


class Traced:
    """An iterable proxy charging each pulled row to a span name.

    Grafted between two live operators (``parent.child = Traced(child)``)
    or passed where a plan function takes an input stream.  Attribute
    reads fall through to the wrapped operator, so ``.stats`` keeps
    working for the engine's own telemetry.
    """

    def __init__(self, inner: Iterable[Any], tracer: Tracer, name: str) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = name
        self.rows = 0
        #: seconds inside ``next()`` calls: all of them, and the first one
        #: (for a blocking operator, everything before its first row)
        self.busy_s = 0.0
        self.first_pull_s = 0.0

    def __iter__(self) -> Iterator[Any]:
        return self.tracer.iterate(self.inner, self.name, self._pulled)

    def _pulled(self, seconds: float, produced: bool) -> None:
        if self.rows == 0 and self.first_pull_s == 0.0:
            self.first_pull_s = seconds
        self.busy_s += seconds
        self.rows += produced

    def __getattr__(self, attr: str) -> Any:
        return getattr(self.inner, attr)


def graft(root: Any, wanted: type | tuple[type, ...], tracer: Tracer, name: str) -> list[Traced]:
    """Wrap every ``wanted`` operator below ``root`` in a :class:`Traced`.

    Walks the public child attributes of the operator tree
    (``child``/``left``/``right``/``build``/``probe``) and re-points the
    parent's attribute at the proxy.  Returns the proxies created.
    """
    grafted: list[Traced] = []
    pending = [root]
    while pending:
        node = pending.pop()
        for attr in ("child", "left", "right", "build", "probe"):
            child = vars(node).get(attr) if hasattr(node, "__dict__") else None
            if child is None or isinstance(child, (list, tuple, Traced)):
                continue
            if isinstance(child, wanted):
                proxy = Traced(child, tracer, name)
                setattr(node, attr, proxy)
                grafted.append(proxy)
            pending.append(child)
    return grafted


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, hi)
        if end > start:
            covered += end - start
            edge = end
    return covered


def spans_as_dicts(tracer: Tracer) -> list[dict]:
    return [
        {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "trace_id": trace_id,
            "id": span_id,
        }
        for name, start, end, parent, trace_id, span_id in tracer.spans
    ]
