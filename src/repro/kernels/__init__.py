"""Batched compute kernels: the CPU-side hot-path layer.

The repository prices I/O on a simulated clock, but *wall-clock* time is
decided by how the CPU-side work is executed.  This package provides the
slice-level batch primitives the hot paths (the Tetris sweep, UB-Tree
bulk loading, the external-sort baseline) are written against.  Each is
a method of the active backend, reached through :func:`get_backend`
(one entry point per kernel; :class:`~repro.kernels.base.KernelBackend`
documents them all):

* ``encode_batch`` / ``decode_batch`` — whole-column curve address
  conversion via byte-chunked table lookups,
* ``filter_box_batch`` / ``filter_space_batch`` / ``filter_space_page``
  — predicate evaluation over a page's worth of points,
* ``argsort_keys`` — one stable slice-level sort permutation,
* ``scan_page_run`` / ``make_run_buffer`` — the sweep's page kernel
  and DPG-style run formation: one call filters + keys + sorts a whole
  page (on NumPy from a memoized view: columns, a zone that skips
  bounds no record can fail, and per sort curve the page's run — its
  sorted keys with its rows in that order), and the per-page sorted
  runs, keys and ``(point, payload)`` rows in the backend's native
  representation, feed a :class:`SortRunBuffer` whose cut is one stable
  sort over the pending runs and hands a slice's keys and rows out,
* ``schedule_regions`` — a restricted scan's whole region schedule
  (BIGMIN walk, pruning verdicts, static Tetris keys) from the tree's
  region directory in one call,
* ``scan_block`` — a slab's ``(point, payload)`` stream, one call per
  slab of the slab-parallel scan (on NumPy: the pages' memoized runs,
  keys and rows, merged by one stable argsort),
* ``merge_sorted_keys`` — stable pairwise merge permutation over two
  sorted runs (the sharded scan's k-way merge step),
* ``sort_key_column`` / ``merge_key_columns`` / ``concat_key_columns``
  / ``list_key_column`` — the external sort's runs as native key
  columns: sort one run, merge the loaded parts of k runs one
  read-ahead chunk at a time, join a merge pass's output column, and
  hand a column back as Python keys.

Two interchangeable backends implement them:

``numpy``
    Vectorized over NumPy arrays (:mod:`repro.kernels.numpy_backend`).
    Selected automatically at import when NumPy is installed.  A call
    that does not vectorize (a curve over 64 bits, an opaque space,
    keys past ``int64``) runs the pure method in its place.

``python``
    Tuple-at-a-time standard-library loops (:mod:`repro.kernels.pure`).
    Always available; NumPy stays an *optional* dependency.

Selection: the environment variable ``REPRO_KERNEL_BACKEND`` (``numpy``,
``python`` or ``auto``) pins the backend at import time; the
:func:`use_backend` context manager switches it programmatically.
Backends are observationally identical — the simulated-clock numbers,
emitted tuple streams and page access orders of every algorithm are
bit-identical whichever one runs (asserted by the test suite); only
wall-clock speed differs.  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from .base import KernelBackend, SortRunBuffer
from .pure import PurePythonBackend

__all__ = [
    "KernelBackend",
    "PurePythonBackend",
    "SortRunBuffer",
    "available_backends",
    "backend",
    "get_backend",
    "use_backend",
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
