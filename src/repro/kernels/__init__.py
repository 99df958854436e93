"""Batched compute kernels: the CPU-side hot-path layer.

The repository prices I/O on a simulated clock, but *wall-clock* time is
decided by how the CPU-side work is executed.  This package provides the
slice-level batch primitives the hot paths (the Tetris sweep, UB-Tree
bulk loading, the external-sort baseline) are written against:

* :func:`encode_batch` / :func:`decode_batch` — whole-column curve
  address conversion via byte-chunked table lookups,
* :func:`filter_box_batch` / :func:`filter_space_batch` — predicate
  evaluation over a page's worth of points,
* :func:`argsort_keys` — one stable slice-level sort permutation,
* :func:`page_entries` / :func:`scan_page` / :func:`region_min_keys` —
  fused compound kernels: one call filters + keys + sorts a whole page
  (``scan_page`` straight from the storage page, letting backends keep a
  memoized columnar view), one call keys every candidate Z-region of a
  scan,
* :func:`schedule_regions` — a restricted scan's whole region schedule
  (BIGMIN walk, pruning verdicts, static Tetris keys) from the tree's
  region directory in one call,
* :func:`scan_page_run` / :func:`make_run_buffer` — DPG-style run
  formation: per-page sorted runs in the backend's native representation
  feed a :class:`SortRunBuffer` that consolidates them hierarchically,
* :func:`scan_block` — the whole-slab fused kernel the parallel thread
  executor dispatches (one task per slab, not per scan step),
* :func:`merge_sorted_keys` — stable pairwise merge permutation over two
  sorted runs (the external sort's run consolidation step).

Two interchangeable backends implement them:

``numpy``
    Vectorized over NumPy arrays (:mod:`repro.kernels.numpy_backend`).
    Selected automatically at import when NumPy is installed.

``python``
    Tuple-at-a-time standard-library loops (:mod:`repro.kernels.pure`).
    Always available; NumPy stays an *optional* dependency.

Selection: the environment variable ``REPRO_KERNEL_BACKEND`` (``numpy``,
``python`` or ``auto``) pins the backend at import time; programmatic
control is available through :func:`set_backend` and the
:func:`use_backend` context manager.  Backends are observationally
identical — the simulated-clock numbers, emitted tuple streams and page
access orders of every algorithm are bit-identical whichever one runs
(asserted by the test suite); only wall-clock speed differs.  See
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator, Sequence, TYPE_CHECKING

from .base import KernelBackend, ScheduledRegion, SortRunBuffer
from .pure import PurePythonBackend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.curves import Curve, FlippedCurve
    from ..core.query_space import QuerySpace
    from ..core.region import RegionDirectory

    AnyCurve = Curve | FlippedCurve

__all__ = [
    "KernelBackend",
    "PurePythonBackend",
    "SortRunBuffer",
    "available_backends",
    "backend",
    "get_backend",
    "set_backend",
    "use_backend",
    "encode_batch",
    "decode_batch",
    "filter_box_batch",
    "filter_space_batch",
    "filter_space_page",
    "argsort_keys",
    "page_entries",
    "scan_page",
    "scan_page_run",
    "make_run_buffer",
    "scan_block",
    "merge_sorted_keys",
    "region_min_keys",
    "schedule_regions",
]

_ENV_VAR = "REPRO_KERNEL_BACKEND"

_backends: dict[str, KernelBackend] = {"python": PurePythonBackend()}

try:  # NumPy is optional; its absence selects the pure backend
    from .numpy_backend import NumPyBackend
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    NumPyBackend = None  # type: ignore[assignment, misc]
else:
    _backends["numpy"] = NumPyBackend()


def available_backends() -> tuple[str, ...]:
    """Names of the importable backends (always includes ``python``)."""
    return tuple(sorted(_backends))


def _resolve(name: str | None) -> KernelBackend:
    if name is None or name == "auto":
        return _backends.get("numpy", _backends["python"])
    try:
        return _backends[name]
    except KeyError:
        if name == "numpy":
            raise RuntimeError(
                "kernel backend 'numpy' requested but NumPy is not "
                "installed; install numpy or use REPRO_KERNEL_BACKEND=python"
            ) from None
        raise ValueError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())} (or 'auto')"
        ) from None


_active: KernelBackend = _resolve(os.environ.get(_ENV_VAR) or None)


def get_backend() -> KernelBackend:
    """The currently active kernel backend."""
    return _active


def backend(name: str) -> KernelBackend:
    """A registered backend by name, without changing the active one.

    Used by the cross-backend parity checks of :mod:`repro.invariants`.
    """
    return _resolve(name)


def set_backend(name: str | None) -> KernelBackend:
    """Select a backend by name (``None`` / ``"auto"`` re-auto-selects)."""
    global _active
    _active = _resolve(name)
    return _active


@contextmanager
def use_backend(name: str | None) -> Iterator[KernelBackend]:
    """Temporarily switch backends (used by tests and benchmarks)."""
    global _active
    previous = _active
    _active = _resolve(name)
    try:
        yield _active
    finally:
        _active = previous


# ----------------------------------------------------------------------
# module-level conveniences delegating to the active backend
# ----------------------------------------------------------------------
def encode_batch(curve: "AnyCurve", points: Sequence[Sequence[int]]) -> list[int]:
    return _active.encode_batch(curve, points)


def decode_batch(
    curve: "AnyCurve", addresses: Sequence[int]
) -> list[tuple[int, ...]]:
    return _active.decode_batch(curve, addresses)


def filter_box_batch(
    lo: Sequence[int], hi: Sequence[int], points: Sequence[Sequence[int]]
) -> list[int]:
    return _active.filter_box_batch(lo, hi, points)


def filter_space_batch(
    space: "QuerySpace", points: Sequence[Sequence[int]]
) -> list[int]:
    return _active.filter_space_batch(space, points)


def filter_space_page(space: "QuerySpace", page: Any) -> list[int]:
    return _active.filter_space_page(space, page)


def argsort_keys(keys: Sequence[Any], *, reverse: bool = False) -> list[int]:
    return _active.argsort_keys(keys, reverse=reverse)


def page_entries(
    curve: "AnyCurve",
    space: "QuerySpace",
    points: Sequence[Sequence[int]],
    base: int = 0,
) -> tuple[int, Sequence[int], Sequence[Sequence[int]]]:
    return _active.page_entries(curve, space, points, base)


def scan_page(
    curve: "AnyCurve", space: "QuerySpace", page: Any, base: int = 0
) -> tuple[int, Sequence[int], Sequence[Sequence[int]]]:
    return _active.scan_page(curve, space, page, base)


def scan_page_run(
    curve: "AnyCurve", space: "QuerySpace", page: Any, base: int = 0
) -> tuple[int, Sequence[int], Any]:
    return _active.scan_page_run(curve, space, page, base)


def make_run_buffer() -> SortRunBuffer:
    return _active.make_run_buffer()


def scan_block(
    curve: "AnyCurve", space: "QuerySpace", pages: Sequence[Any]
) -> tuple[list[Sequence[int]], Sequence[int]]:
    return _active.scan_block(curve, space, pages)


def merge_sorted_keys(
    keys_a: Sequence[Any], keys_b: Sequence[Any], *, reverse: bool = False
) -> list[int]:
    return _active.merge_sorted_keys(keys_a, keys_b, reverse=reverse)


def region_min_keys(
    z_curve: "Curve",
    sort_curve: "AnyCurve",
    intervals: Sequence[tuple[int, int]],
    lo: Sequence[int],
    hi: Sequence[int],
) -> "list[int | None]":
    return _active.region_min_keys(z_curve, sort_curve, intervals, lo, hi)


def schedule_regions(
    directory: "RegionDirectory",
    start: int,
    lo: Sequence[int],
    hi: Sequence[int],
    space: "QuerySpace",
    pushdown: "QuerySpace | None" = None,
    sort_curve: "AnyCurve | None" = None,
) -> "list[ScheduledRegion]":
    return _active.schedule_regions(
        directory, start, lo, hi, space, pushdown, sort_curve
    )
