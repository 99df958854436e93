"""NumPy kernel backend: vectorized batch primitives.

The scalar :class:`~repro.core.curves.Curve` already encodes through
byte-chunked lookup tables; this backend lifts those same tables into
``uint64`` NumPy arrays and applies them to whole columns at once — one
fancy-indexing gather per (dimension, byte chunk) instead of a Python
loop per tuple.  Filtering compares entire coordinate columns, and key
sorts use NumPy's stable ``argsort`` / ``lexsort``.

A page is keyed once per sort order, not once per scan.  A tuple's
Tetris address is a fixed bit permutation of its point, so a page's
keys on one curve change only when the page does: the backend keeps a
view per page (:class:`_PageView`, stamped with ``Page.version``) that
holds the coordinate matrix and, per sort curve, the page's keys
ascending with their stable permutation.  A warm
:meth:`NumPyBackend.scan_page_run` is then a mask over the columns and
two takes through that permutation.  :meth:`NumPyBackend.scan_page` and
:meth:`NumPyBackend.page_entries` stay uncached: they are the reference
``REPRO_CHECKS=1`` holds the cached run to.

Addresses are carried as ``uint64``, so curves wider than 64 bits (or
key values outside the ``uint64`` / ``int64`` range) transparently fall
back to the pure-Python backend for that call — correctness never
depends on vectorizability.  All results are converted back to plain
Python ints, so downstream consumers (heap barriers, B-tree keys,
pickled pages) see exactly what the pure backend produces.
"""

from __future__ import annotations

import weakref
from typing import Any, Sequence

import numpy as np

from ..core.curves import Curve
from ..core.query_space import (
    ComparisonSpace,
    IntersectionSpace,
    IntervalUnionSpace,
    QueryBox,
    QuerySpace,
)
from ..core.region import RegionDirectory
from .base import ScheduledRegion, SortRunBuffer
from .pure import PurePythonBackend, PureSortRunBuffer

_U64 = np.uint64
_BYTE = _U64(0xFF)

_EMPTY_RUN = (np.empty(0, dtype=_U64), np.empty(0, dtype=_U64))

_NP_COMPARATORS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


class _NoGeometry(Exception):
    """A space these kernels know no vectorized geometry for — an opaque
    predicate, or bounds wider than 64 bits; the caller hands the whole
    call to the pure reference, which tests it point by point."""


def _int64_column(keys: Sequence[Any]) -> "np.ndarray | None":
    """``keys`` as an ``int64`` key column, or ``None`` (the column then
    stays a Python list).

    Integer keys become a 1-D array and tuples of integers a 2-D one,
    one row per key, ordered lexicographically; anything else — or an
    integer that does not fit ``int64`` — keeps Python semantics.
    """
    try:
        array = np.asarray(keys)
    except (OverflowError, ValueError, TypeError):
        return None
    if array.dtype != np.int64:
        return None
    return array if array.ndim == (2 if isinstance(keys[0], tuple) else 1) else None


def _key_values(column: Any) -> list[Any]:
    """A key column's keys as the Python values it was built from."""
    if not isinstance(column, np.ndarray):
        return column
    values = column.tolist()
    return values if column.ndim == 1 else list(map(tuple, values))


def _as_lists(columns: Sequence[Any]) -> "list[Any] | None":
    """``None`` when the columns are arrays of one shape; otherwise all of
    them in the pure backend's list form (say, one run held a key past
    ``int64``)."""
    if all(isinstance(column, np.ndarray) for column in columns) and (
        len({column.shape[1:] for column in columns}) == 1
    ):
        return None
    return [_key_values(column) for column in columns]


def _stable_order(keys: "np.ndarray") -> "np.ndarray":
    """Stable ascending sort permutation of a key column (2-D: rows
    compared lexicographically)."""
    if keys.ndim == 1:
        return np.argsort(keys, kind="stable")
    return np.lexsort(keys.T[::-1])


def _count_before(column: "np.ndarray", key: "np.ndarray", ties: bool) -> int:
    """How many leading keys of the ascending ``column`` sort before
    ``key`` (or tie with it, when ``ties``)."""
    if column.ndim == 1:
        return int(np.searchsorted(column, key, side="right" if ties else "left"))
    # lexicographic, built up from the last component to the first
    ahead = np.full(len(column), ties)
    for component in range(column.shape[1] - 1, -1, -1):
        values, bound = column[:, component], key[component]
        ahead = (values < bound) | ((values == bound) & ahead)
    return int(np.count_nonzero(ahead))


def _merge_runs(
    a: "tuple[np.ndarray, np.ndarray]", b: "tuple[np.ndarray, np.ndarray]"
) -> "tuple[np.ndarray, np.ndarray]":
    """Stable merge of two sorted ``(keys, orders)`` runs, ``a`` first.

    ``searchsorted`` computes each element's target slot directly:
    ``a[i]`` lands at ``i + |{b < a[i]}|`` and ``b[j]`` at
    ``j + |{a <= b[j]}|`` — on key ties every ``a`` element precedes
    every ``b`` element, which (with ``a`` the older run, holding the
    smaller arrival orders) is exactly ``(key, order)`` order.  Two
    scatters instead of a comparison loop: the DPG pairwise merge at
    memory speed.
    """
    keys_a, orders_a = a
    keys_b, orders_b = b
    pos_a = np.arange(len(keys_a), dtype=np.intp) + np.searchsorted(
        keys_b, keys_a, side="left"
    )
    pos_b = np.arange(len(keys_b), dtype=np.intp) + np.searchsorted(
        keys_a, keys_b, side="right"
    )
    keys = np.empty(len(keys_a) + len(keys_b), dtype=_U64)
    orders = np.empty_like(keys)
    keys[pos_a] = keys_a
    keys[pos_b] = keys_b
    orders[pos_a] = orders_a
    orders[pos_b] = orders_b
    return keys, orders


class NumPySortRunBuffer(SortRunBuffer):
    """Array-native Tetris cache: ``uint64`` runs, hierarchical merges.

    Runs stay contiguous ``(keys, orders)`` array pairs from push to
    cut — no per-entry Python objects — and a flush consolidates them
    by pairwise :func:`_merge_runs` reduction.  Runs are pushed in
    arrival order, so pairwise-adjacent merging keeps older runs on the
    tie-winning side and the result equals the pure buffer's total
    ``(key, order)`` sort bit for bit.

    A curve wider than 64 bits keys every page of its scan as a pure
    list run (:meth:`NumPyBackend.scan_page_run`); the first such run
    turns the buffer into a
    :class:`~repro.kernels.pure.PureSortRunBuffer` for the whole scan.
    """

    def __init__(self) -> None:
        self._runs: "list[tuple[np.ndarray, np.ndarray]]" = []
        self._count = 0
        self._fallback: PureSortRunBuffer | None = None

    def push(self, run: Any) -> None:
        if self._fallback is None and not isinstance(run, tuple):
            if self._runs:
                raise TypeError("a pure list run after uint64 runs in one scan")
            self._fallback = PureSortRunBuffer()
        if self._fallback is not None:
            self._fallback.push(run)
            return
        keys, orders = run
        if len(keys):
            self._runs.append((keys, orders))
            self._count += len(keys)

    def __len__(self) -> int:
        if self._fallback is not None:
            return len(self._fallback)
        return self._count

    def has_key_below(self, barrier: "int | None") -> bool:
        if self._fallback is not None:
            return self._fallback.has_key_below(barrier)
        if not self._runs:
            return False
        if barrier is None:
            return True
        limit = _U64(barrier)
        return any(keys[0] < limit for keys, _ in self._runs)

    def cut(self, barrier: "int | None") -> "tuple[list[int], list[int]]":
        if self._fallback is not None:
            return self._fallback.cut(barrier)
        if not self._runs:
            return [], []
        if len(self._runs) > 1:
            self._consolidate()
        keys, orders = self._runs[0]
        split = (
            len(keys)
            if barrier is None
            else int(np.searchsorted(keys, _U64(barrier), side="left"))
        )
        if split == 0:
            return [], []
        emitted = keys[:split].tolist(), orders[:split].tolist()
        if split == len(keys):
            self._runs.clear()
        else:
            self._runs[0] = (keys[split:], orders[split:])
        self._count -= split
        return emitted

    def _consolidate(self) -> None:
        runs = self._runs
        while len(runs) > 1:
            merged = [
                _merge_runs(runs[index], runs[index + 1])
                for index in range(0, len(runs) - 1, 2)
            ]
            if len(runs) % 2:
                merged.append(runs[-1])
            runs = merged
        self._runs = runs


class _CurveTables:
    """The byte-chunk lookup tables of one curve, as uint64 arrays."""

    __slots__ = ("encode", "decode", "coord_max", "suffix_masks")

    def __init__(self, curve: Curve) -> None:
        #: per dimension: array (chunk_count, 256) of address contributions
        self.encode = [
            np.array(dim_tables, dtype=_U64)
            for dim_tables in curve._encode_tables.tables
        ]
        #: array (chunk_count, 256, dims) of coordinate contributions
        self.decode = np.array(curve._decode_tables.chunks, dtype=_U64)
        self.coord_max = np.array(curve.coord_max, dtype=_U64)
        #: array (total_bits + 1, dims): coordinate bits freed by the k
        #: least significant schedule positions (aligned-block hi corners)
        self.suffix_masks = np.array(curve._suffix_masks, dtype=_U64)


class _DirectoryArrays:
    """A region directory's columns and block geometry as arrays.

    Every region's Z-interval is tiled by maximal aligned blocks (the
    decomposition of :meth:`~repro.core.curves.Curve.interval_blocks`),
    each an axis-aligned box.  Region ``i`` owns the block rows
    ``offsets[i]:offsets[i + 1]`` of ``los`` / ``his`` (the boxes' low
    and high corners, decoded once); ``owner`` maps a block row back to
    its region.  O(regions x blocks x dims) memory, no query state.
    """

    __slots__ = ("firsts", "lasts", "page_ids", "offsets", "owner", "los", "his")

    def __init__(self, directory: RegionDirectory, tables: "_CurveTables") -> None:
        self.firsts = np.asarray(directory.firsts, dtype=_U64)
        self.lasts = np.asarray(directory.lasts, dtype=_U64)
        self.page_ids = np.asarray(directory.page_ids, dtype=np.int64)
        positions, levels, counts = _aligned_blocks(
            self.firsts, self.lasts, directory.curve.total_bits
        )
        self.offsets = np.zeros(len(counts) + 1, dtype=np.intp)
        np.cumsum(counts, out=self.offsets[1:])
        self.owner = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
        self.los = NumPyBackend._decode_addresses(tables, positions)
        self.his = self.los | tables.suffix_masks[levels]


def _aligned_blocks(
    firsts: "np.ndarray", lasts: "np.ndarray", total_bits: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """:meth:`~repro.core.curves.Curve.interval_blocks` of every interval
    ``[firsts[i], lasts[i]]`` at once: ``(positions, levels, counts)``,
    blocks grouped by interval and ascending within it.

    The greedy decomposition has two phases, and both are bit-level
    loops that run for all intervals in lockstep.  Climbing: while the
    lowest set bit of the position is a block that still fits, take it
    (the carry aligns the position to ever larger blocks).  Descending:
    from there, take the largest power of two that fits, largest first.
    ``remaining`` counts the addresses left *after* the position, so
    nothing here can overflow ``uint64`` even at 64 bits.
    """
    one = _U64(1)
    position = firsts.copy()
    remaining = lasts - firsts
    active = np.ones(len(firsts), dtype=bool)
    owners: "list[np.ndarray]" = []
    positions: "list[np.ndarray]" = []
    levels: "list[np.ndarray]" = []
    steps = [(level, True) for level in range(total_bits)]
    steps += [(level, False) for level in range(total_bits, -1, -1)]
    for level, climbing in steps:
        span = _U64((1 << level) - 1)  # block size - 1
        take = active & (remaining >= span)
        if climbing:  # only where this bit of the position is set
            take &= ((position >> _U64(level)) & one).astype(bool)
        taken = np.flatnonzero(take)
        if not taken.size:
            continue
        owners.append(taken)
        positions.append(position[taken])
        levels.append(np.full(taken.size, level, dtype=np.intp))
        done = take & (remaining == span)
        active &= ~done
        step = take & ~done
        if step.any():  # never for a 2**64 block: that ends its interval
            position[step] += span + one
            remaining[step] -= span + one
    # every step emitted its blocks in interval order and a later step's
    # block lies further along, so a stable sort by owner finishes it
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    return (
        np.concatenate(positions)[order],
        np.concatenate(levels)[order],
        np.bincount(owner, minlength=len(firsts)),
    )


def _page_matrix(records: Sequence[Any]) -> "np.ndarray | None":
    """A Z-region page's points as a (records, dims) uint64 matrix, or
    ``None`` when they do not convert (the pure backend then serves)."""
    try:
        # Z-region records are (z_address, (point, payload)); every
        # stored point passed checked encoding, so the coordinate count
        # and ranges are valid by construction and the flat fill cannot
        # misalign
        flat = np.fromiter(
            (coordinate for _, (point, _) in records for coordinate in point),
            dtype=_U64,
        )
    except (OverflowError, ValueError, TypeError):
        return None
    return flat.reshape(len(records), -1) if len(records) else None


class _PageView:
    """What the backend derives from one page, valid while the page's
    ``version`` equals :attr:`version`.

    :attr:`columns` is the page's coordinate matrix (``None`` when it
    does not convert).  :attr:`runs` maps a sort curve to the page's
    keys on it in ascending order and their stable sort permutation (as
    ``uint64`` record indexes), built by the first scan in that order.
    Both arrays are read-only: runs handed to a run buffer share them.
    """

    __slots__ = ("version", "columns", "runs")

    def __init__(self, version: int, columns: "np.ndarray | None") -> None:
        self.version = version
        self.columns = columns
        self.runs: "dict[Curve, tuple[np.ndarray, ...]]" = {}

    def keyed(
        self, tables: "_CurveTables", curve: Curve
    ) -> "tuple[np.ndarray, np.ndarray]":
        """The page's ``(ascending keys, stable permutation)`` on
        ``curve``; ``columns`` must be present."""
        run = self.runs.get(curve)
        if run is None:
            keys = NumPyBackend._encode_columns(tables, self.columns)
            order = np.argsort(keys, kind="stable")
            run = (keys[order], order.astype(_U64))
            for array in run:
                array.flags.writeable = False
            self.runs[curve] = run
        return run


def _boxes_meeting_box(
    los: "np.ndarray", his: "np.ndarray", lo: "np.ndarray", hi: "np.ndarray"
) -> "np.ndarray":
    """Per box ``[los[i], his[i]]``: whether it meets the box ``[lo, hi]``."""
    return ((los <= hi) & (lo <= his)).all(axis=1)


class NumPyBackend(PurePythonBackend):
    """Vectorized batch primitives (inherits pure loops as fallbacks)."""

    name = "numpy"

    def __init__(self) -> None:
        self._tables: "weakref.WeakKeyDictionary[Curve, _CurveTables | None]" = (
            weakref.WeakKeyDictionary()
        )
        # per-QueryBox bound arrays: a scan tests the same box against
        # every page, so the conversion must not repeat per call
        self._boxes: "weakref.WeakKeyDictionary[QueryBox, tuple | None]" = (
            weakref.WeakKeyDictionary()
        )
        # per-pushdown-cover interval arrays, same reasoning as _boxes
        self._intervals: "weakref.WeakKeyDictionary[IntervalUnionSpace, tuple | None]" = (
            weakref.WeakKeyDictionary()
        )
        # one view per Z-region page, dying with the page and stamped
        # with its mutation version: the coordinate matrix plus, per sort
        # order, the page's sorted keys.  Repeated scans over the same
        # relation (the common OLAP pattern) then skip both the
        # Python-tuple → array conversion and the keying.
        self._views: "weakref.WeakKeyDictionary[Any, _PageView]" = (
            weakref.WeakKeyDictionary()
        )
        # per-tree region directory as arrays plus its block geometry;
        # dies with the directory when the tree's structure epoch moves
        self._directories: (
            "weakref.WeakKeyDictionary[RegionDirectory, _DirectoryArrays | None]"
        ) = weakref.WeakKeyDictionary()

    def _box_arrays(self, space: QueryBox) -> "tuple | None":
        arrays = self._boxes.get(space, False)
        if arrays is False:
            try:
                arrays = (
                    np.asarray(space.lo, dtype=_U64),
                    np.asarray(space.hi, dtype=_U64),
                )
            except (OverflowError, ValueError, TypeError):
                arrays = None
            self._boxes[space] = arrays
        return arrays

    def _interval_arrays(self, space: IntervalUnionSpace) -> "tuple | None":
        arrays = self._intervals.get(space, False)
        if arrays is False:
            try:
                arrays = (
                    np.asarray(space.starts, dtype=_U64),
                    np.asarray(space.ends, dtype=_U64),
                )
            except (OverflowError, ValueError, TypeError):
                arrays = None
            self._intervals[space] = arrays
        return arrays

    # ------------------------------------------------------------------
    # per-curve table preparation
    # ------------------------------------------------------------------
    def _tables_for(self, curve: Curve) -> _CurveTables | None:
        tables = self._tables.get(curve, False)
        if tables is False:
            # uint64 addresses cap the vectorizable width at 64 bits
            tables = _CurveTables(curve) if curve.total_bits <= 64 else None
            self._tables[curve] = tables
        return tables

    # ------------------------------------------------------------------
    # encode / decode
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_columns(tables: _CurveTables, columns: "np.ndarray") -> "np.ndarray":
        """Addresses of a (n, dims) coordinate array."""
        addresses = np.zeros(len(columns), dtype=_U64)
        for dim, dim_tables in enumerate(tables.encode):
            column = columns[:, dim]
            for chunk in range(dim_tables.shape[0]):
                addresses |= dim_tables[chunk][
                    (column >> _U64(8 * chunk)) & _BYTE
                ]
        return addresses

    @staticmethod
    def _decode_addresses(tables: _CurveTables, packed: "np.ndarray") -> "np.ndarray":
        """(n, dims) coordinate array of an address vector."""
        coords = np.zeros((len(packed), len(tables.coord_max)), dtype=_U64)
        for chunk in range(tables.decode.shape[0]):
            coords |= tables.decode[chunk][(packed >> _U64(8 * chunk)) & _BYTE]
        return coords

    def encode_batch(
        self, curve: Curve, points: Sequence[Sequence[int]]
    ) -> list[int]:
        if not len(points):
            return []
        tables = self._tables_for(curve)
        if tables is None:
            return super().encode_batch(curve, points)
        columns = np.asarray(points, dtype=_U64)
        return self._encode_columns(tables, columns).tolist()

    def decode_batch(
        self, curve: Curve, addresses: Sequence[int]
    ) -> list[tuple[int, ...]]:
        if not len(addresses):
            return []
        tables = self._tables_for(curve)
        if tables is None:
            return super().decode_batch(curve, addresses)
        packed = np.asarray(addresses, dtype=_U64)
        coords = self._decode_addresses(tables, packed)
        return [tuple(row) for row in coords.tolist()]

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------
    def filter_box_batch(
        self,
        lo: Sequence[int],
        hi: Sequence[int],
        points: Sequence[Sequence[int]],
    ) -> list[int]:
        if not len(points):
            return []
        try:
            columns = np.asarray(points, dtype=_U64)
            lo_arr = np.asarray(lo, dtype=_U64)
            hi_arr = np.asarray(hi, dtype=_U64)
        except (OverflowError, ValueError, TypeError):
            return super().filter_box_batch(lo, hi, points)
        mask = ((columns >= lo_arr) & (columns <= hi_arr)).all(axis=1)
        return np.nonzero(mask)[0].tolist()

    def filter_space_batch(
        self, space: QuerySpace, points: Sequence[Sequence[int]]
    ) -> list[int]:
        if not len(points):
            return []
        try:
            columns = np.asarray(points, dtype=_U64)
        except (OverflowError, ValueError, TypeError):
            return super().filter_space_batch(space, points)
        mask = np.ones(len(points), dtype=bool)
        try:
            self._mask_space(space, columns, mask)
        except _NoGeometry:
            return super().filter_space_batch(space, points)
        return np.nonzero(mask)[0].tolist()

    def _mask_space(
        self, space: QuerySpace, columns: "np.ndarray", mask: "np.ndarray"
    ) -> None:
        """AND ``space`` membership into ``mask`` (vectorized per part);
        raises :class:`_NoGeometry` for a space it cannot vectorize."""
        if isinstance(space, QueryBox):
            arrays = self._box_arrays(space)
            if arrays is None:
                raise _NoGeometry
            lo_arr, hi_arr = arrays
            mask &= ((columns >= lo_arr) & (columns <= hi_arr)).all(axis=1)
        elif isinstance(space, ComparisonSpace):
            compare = _NP_COMPARATORS[space.op]
            mask &= compare(columns[:, space.left_dim], columns[:, space.right_dim])
        elif isinstance(space, IntervalUnionSpace):
            arrays = self._interval_arrays(space)
            if arrays is None:
                raise _NoGeometry
            starts, ends = arrays
            if not starts.size:
                mask[:] = False
                return
            column = columns[:, space.dim]
            # slot of the last interval starting at or below each value;
            # membership iff that interval also ends at or above it
            slots = np.searchsorted(starts, column, side="right") - 1
            inside = slots >= 0
            np.clip(slots, 0, None, out=slots)
            mask &= inside & (column <= ends[slots])
        elif isinstance(space, IntersectionSpace):
            for part in space.parts:
                if not mask.any():
                    return
                self._mask_space(part, columns, mask)
        else:
            raise _NoGeometry

    def filter_space_page(self, space: QuerySpace, page: Any) -> list[int]:
        """Page-level space filter over the memoized columnar view."""
        records = page.records
        if not records:
            return []
        columns = self._page_view(page).columns
        if columns is None:
            return super().filter_space_page(space, page)
        mask = np.ones(len(columns), dtype=bool)
        try:
            self._mask_space(space, columns, mask)
        except _NoGeometry:
            return super().filter_space_page(space, page)
        return np.nonzero(mask)[0].tolist()

    # ------------------------------------------------------------------
    # sorting
    # ------------------------------------------------------------------
    def argsort_keys(self, keys: Sequence[Any]) -> list[int]:
        if not len(keys):
            return []
        try:
            array = np.asarray(keys)
        except (OverflowError, ValueError, TypeError):
            return super().argsort_keys(keys)
        if not np.issubdtype(array.dtype, np.integer):
            # floats, strings, objects, mixed tuples: Python semantics win
            return super().argsort_keys(keys)
        if array.ndim == 1:
            return np.argsort(array, kind="stable").tolist()
        if array.ndim == 2:
            # composite keys: lexsort is stable, last key is primary
            return np.lexsort(array.T[::-1]).tolist()
        return super().argsort_keys(keys)

    # ------------------------------------------------------------------
    # fused compound kernels
    # ------------------------------------------------------------------
    def page_entries(
        self,
        curve: Curve,
        space: QuerySpace,
        points: Sequence[Sequence[int]],
        base: int = 0,
    ) -> tuple[int, Sequence[int], Sequence[Sequence[int]]]:
        """Filter + key + sort one page with a single array conversion."""
        if not len(points):
            return 0, [], []
        tables = self._tables_for(curve)
        if tables is None:
            return super().page_entries(curve, space, points, base)
        try:
            columns = np.asarray(points, dtype=_U64)
        except (OverflowError, ValueError, TypeError):
            return super().page_entries(curve, space, points, base)
        try:
            return self._entries_from_columns(tables, space, columns, base)
        except _NoGeometry:
            return super().page_entries(curve, space, points, base)

    def _select_and_key(
        self,
        tables: _CurveTables,
        space: QuerySpace,
        columns: "np.ndarray",
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray] | None":
        """Filter + key + stable sort; ``(selected, keys, perm)`` arrays.

        ``selected`` holds the qualifying row indices ascending, ``keys``
        their curve addresses in arrival order, and ``perm``
        the stable sort permutation over ``keys``.  ``None`` when nothing
        qualifies.
        """
        mask = np.ones(len(columns), dtype=bool)
        self._mask_space(space, columns, mask)
        selected = np.nonzero(mask)[0]
        if not selected.size:
            return None
        keys = self._encode_columns(tables, columns[selected])
        perm = np.argsort(keys, kind="stable")
        return selected, keys, perm

    def _entries_from_columns(
        self,
        tables: _CurveTables,
        space: QuerySpace,
        columns: "np.ndarray",
        base: int,
    ) -> tuple[int, Sequence[int], Sequence[Sequence[int]]]:
        """Shared tail of :meth:`page_entries` / :meth:`scan_page`."""
        keyed = self._select_and_key(tables, space, columns)
        if keyed is None:
            return 0, [], []
        selected, keys, perm = keyed
        entries = np.stack(
            (keys[perm], perm.astype(_U64) + _U64(base)), axis=1
        ).tolist()
        return int(selected.size), selected.tolist(), entries

    def _page_view(self, page: Any) -> _PageView:
        """The page's view, rebuilt whenever ``page.version`` moved on —
        a mutated page can never serve stale columns or keys."""
        view = self._views.get(page)
        version = page.version
        if view is None or view.version != version:
            view = _PageView(version, _page_matrix(page.records))
            try:
                self._views[page] = view
            except TypeError:  # pragma: no cover - non-weakref page stand-ins
                pass
        return view

    def prime_page_columns(self, page: Any) -> None:
        """Build the page's view ahead of use — the coordinator's staging
        step before handing a slab to workers."""
        if page.records:
            self._page_view(page)

    def scan_page(
        self,
        curve: Curve,
        space: QuerySpace,
        page: Any,
        base: int = 0,
    ) -> tuple[int, Sequence[int], Sequence[Sequence[int]]]:
        """Fused page kernel, uncached: the page's columns are converted
        and its survivors keyed on every call, so this is the reference
        a memoized :meth:`scan_page_run` is checked against."""
        records = page.records
        if not records:
            return 0, [], []
        tables = self._tables_for(curve)
        if tables is None:
            return super().scan_page(curve, space, page, base)
        columns = _page_matrix(records)
        if columns is None or columns.shape[1] != curve.dims:
            return super().scan_page(curve, space, page, base)
        try:
            return self._entries_from_columns(tables, space, columns, base)
        except _NoGeometry:
            return super().scan_page(curve, space, page, base)

    def scan_page_run(
        self,
        curve: Curve,
        space: QuerySpace,
        page: Any,
        base: int = 0,
    ) -> tuple[int, Sequence[int], Any]:
        """:meth:`scan_page` whose entries stay ``uint64`` array pairs.

        The page is keyed once per sort order (:meth:`_PageView.keyed`);
        a scan masks the columns against ``space`` and takes the
        survivors through the cached permutation.  Keys still ascend and
        arrival order (a survivor's rank, ``cumsum(mask) - 1``) still
        breaks ties, because a stable sort of a subset is the subset of
        the stable sort.
        """
        records = page.records
        if not records:
            return 0, [], _EMPTY_RUN
        tables = self._tables_for(curve)
        if tables is None:
            return super().scan_page_run(curve, space, page, base)
        view = self._page_view(page)
        columns = view.columns
        try:
            if columns is None or columns.shape[1] != curve.dims:
                raise _NoGeometry
            mask = np.ones(len(columns), dtype=bool)
            self._mask_space(space, columns, mask)
        except _NoGeometry:
            # the pure reference; its keys fit uint64 (the curve does),
            # so its entry list becomes this backend's array run
            count, selected, entries = super().scan_page_run(curve, space, page, base)
            keys, orders = np.asarray(entries, dtype=_U64).reshape(-1, 2).T
            return count, selected, (keys.copy(), orders.copy())
        (selected,) = mask.nonzero()
        if not selected.size:
            return 0, [], _EMPTY_RUN
        keys, order = view.keyed(tables, curve)
        if selected.size == len(columns):
            return int(selected.size), selected.tolist(), (keys, order + _U64(base))
        take = mask[order]
        orders = mask.cumsum(dtype=_U64)[order[take]]
        orders += _U64(base)
        orders -= _U64(1)
        return int(selected.size), selected.tolist(), (keys[take], orders)

    def make_run_buffer(self) -> SortRunBuffer:
        return NumPySortRunBuffer()

    def scan_block(
        self,
        curve: Curve,
        space: QuerySpace,
        pages: Sequence[Any],
    ) -> tuple[list[Sequence[int]], Sequence[int]]:
        """Whole-slab fused kernel: one concatenate + filter + key +
        stable argsort over every page of the block.

        The big-array calls here (compare, gather, table lookups,
        argsort) release the GIL, which is what lets the thread executor
        scale; per-page kernels never get arrays large enough for the
        release to beat the dispatch overhead.  Worker threads run it,
        so it only reads page views (:meth:`prime_page_columns` builds
        them under the staging lock) and converts a page it finds
        without a current one on the spot.
        """
        tables = self._tables_for(curve)
        if tables is None:
            return super().scan_block(curve, space, pages)
        page_columns: "list[np.ndarray]" = []
        offsets = [0]
        views = self._views
        for page in pages:
            records = page.records
            if not records:
                offsets.append(offsets[-1])
                continue
            view = views.get(page)
            columns = (
                view.columns
                if view is not None and view.version == page.version
                else _page_matrix(records)
            )
            if columns is None or columns.shape[1] != curve.dims:
                return super().scan_block(curve, space, pages)
            page_columns.append(columns)
            offsets.append(offsets[-1] + len(columns))
        if not page_columns:
            return [[] for _ in pages], []
        block = (
            page_columns[0]
            if len(page_columns) == 1
            else np.concatenate(page_columns, axis=0)
        )
        try:
            keyed = self._select_and_key(tables, space, block)
        except _NoGeometry:
            return super().scan_block(curve, space, pages)
        if keyed is None:
            return [[] for _ in pages], []
        selected, keys, perm = keyed
        # split the ascending global selection back into per-page slices
        bounds = np.searchsorted(selected, np.asarray(offsets, dtype=np.intp))
        selected_per_page = [
            (selected[bounds[i] : bounds[i + 1]] - offsets[i]).tolist()
            for i in range(len(pages))
        ]
        return selected_per_page, perm.tolist()

    def merge_sorted_keys(
        self, keys_a: Sequence[Any], keys_b: Sequence[Any]
    ) -> list[int]:
        if not len(keys_a) or not len(keys_b):
            return list(range(len(keys_a) + len(keys_b)))
        try:
            array_a = np.asarray(keys_a)
            array_b = np.asarray(keys_b)
        except (OverflowError, ValueError, TypeError):
            return super().merge_sorted_keys(keys_a, keys_b)
        if (
            array_a.ndim != 1
            or array_b.ndim != 1
            or not np.issubdtype(array_a.dtype, np.integer)
            or array_a.dtype != array_b.dtype
        ):
            return super().merge_sorted_keys(keys_a, keys_b)
        length_a = len(array_a)
        pos_a = np.arange(length_a, dtype=np.intp) + np.searchsorted(
            array_b, array_a, side="left"
        )
        pos_b = np.arange(len(array_b), dtype=np.intp) + np.searchsorted(
            array_a, array_b, side="right"
        )
        permutation = np.empty(length_a + len(array_b), dtype=np.intp)
        permutation[pos_a] = np.arange(length_a, dtype=np.intp)
        permutation[pos_b] = np.arange(
            length_a, length_a + len(array_b), dtype=np.intp
        )
        return permutation.tolist()

    # ------------------------------------------------------------------
    # key columns: int64 arrays where every key fits, lists otherwise
    # ------------------------------------------------------------------
    def sort_key_column(self, keys: Sequence[Any]) -> tuple[list[int], Any]:
        column = _int64_column(keys)
        if column is None:
            return super().sort_key_column(keys)
        order = _stable_order(column)
        return order.tolist(), column[order]

    def merge_key_columns(
        self, columns: Sequence[Any], more: Sequence[bool]
    ) -> "tuple[int | None, list[int], list[int], Any]":
        lists = _as_lists(columns)
        if lists is not None:
            return super().merge_key_columns(lists, more)
        lasts = [column[-1].tolist() if len(column) else None for column in columns]
        stop: "int | None" = None
        for index, (last, pending) in enumerate(zip(lasts, more)):
            if pending and last is not None and (stop is None or last < lasts[stop]):
                stop = index
        if stop is None:
            taken = [len(column) for column in columns]
        else:
            bound = columns[stop][-1]
            taken = [
                len(column)
                if index == stop
                else _count_before(column, bound, index < stop)
                for index, column in enumerate(columns)
            ]
        keys = np.concatenate(
            [column[:count] for column, count in zip(columns, taken)]
        )
        order = _stable_order(keys)
        return stop, taken, order.tolist(), keys[order]

    def list_key_column(self, column: Any) -> list[Any]:
        return _key_values(column)

    def concat_key_columns(self, columns: Sequence[Any]) -> Any:
        lists = _as_lists(columns)
        if lists is not None:
            return super().concat_key_columns(lists)
        return np.concatenate(columns)

    # ------------------------------------------------------------------
    # region scheduling
    # ------------------------------------------------------------------
    def _directory_arrays(self, directory: RegionDirectory) -> "_DirectoryArrays | None":
        arrays = self._directories.get(directory, False)
        if arrays is False:
            tables = self._tables_for(directory.curve)
            arrays = None if tables is None else _DirectoryArrays(directory, tables)
            self._directories[directory] = arrays
        return arrays

    def _boxes_meeting(
        self, space: QuerySpace, los: "np.ndarray", his: "np.ndarray"
    ) -> "np.ndarray":
        """Per box ``[los[i], his[i]]``: ``space.intersects_box`` of it."""
        if isinstance(space, QueryBox):
            arrays = self._box_arrays(space)
            if arrays is not None:
                return _boxes_meeting_box(los, his, *arrays)
        elif isinstance(space, ComparisonSpace):
            compare = _NP_COMPARATORS[space.op]
            if space.op in ("<", "<="):
                return compare(los[:, space.left_dim], his[:, space.right_dim])
            return compare(his[:, space.left_dim], los[:, space.right_dim])
        elif isinstance(space, IntervalUnionSpace):
            arrays = self._interval_arrays(space)
            if arrays is not None:
                starts, ends = arrays
                if not starts.size:
                    return np.zeros(len(los), dtype=bool)
                # the first interval ending at or after the box's low end
                # either starts within the box's range or nothing does
                slots = np.searchsorted(ends, los[:, space.dim], side="left")
                found = slots < len(starts)
                np.clip(slots, None, len(starts) - 1, out=slots)
                return found & (starts[slots] <= his[:, space.dim])
        elif isinstance(space, IntersectionSpace):
            meeting = np.ones(len(los), dtype=bool)
            for part in space.parts:
                meeting &= self._boxes_meeting(part, los, his)
            return meeting
        # spaces this backend knows no geometry for: ask box by box
        return np.fromiter(
            (
                space.intersects_box(tuple(lo), tuple(hi))
                for lo, hi in zip(los.tolist(), his.tolist())
            ),
            dtype=bool,
            count=len(los),
        )

    def schedule_regions(
        self,
        directory: RegionDirectory,
        start: int,
        lo: Sequence[int],
        hi: Sequence[int],
        space: QuerySpace,
        pushdown: "QuerySpace | None" = None,
        sort_curve: "Curve | None" = None,
    ) -> "list[ScheduledRegion]":
        """One pass over the directory slice the box's Z-range spans:
        the regions owning a block box that meets ``[lo, hi]`` are the
        walk's; clamp those blocks and reduce per region from there."""
        curve = directory.curve
        arrays = self._directory_arrays(directory)
        z_tables = self._tables_for(curve)
        sort_tables: "_CurveTables | None" = None
        if sort_curve is not None:
            sort_tables = self._tables_for(sort_curve)
        if arrays is None or z_tables is None or (
            sort_curve is not None and sort_tables is None
        ):
            return super().schedule_regions(
                directory, start, lo, hi, space, pushdown, sort_curve
            )
        lo_arr = np.asarray(lo, dtype=_U64)
        hi_arr = np.asarray(hi, dtype=_U64)
        # regions whose interval reaches into [start, encode(hi)]
        head, tail = np.searchsorted(
            arrays.lasts,
            np.array([start, curve.encode_unchecked(hi)], dtype=_U64),
            side="left",
        ).tolist()
        begin, end = arrays.offsets[head], arrays.offsets[tail + 1]
        los = arrays.los[begin:end]
        his = arrays.his[begin:end]
        inside = np.flatnonzero(_boxes_meeting_box(los, his, lo_arr, hi_arr))
        if not inside.size:
            return []
        # blocks are grouped by region, so the surviving ones still are:
        # a group per region that meets the box, in Z-order
        owners = arrays.owner[begin:end][inside]
        groups = np.flatnonzero(
            np.concatenate(([True], owners[1:] != owners[:-1]))
        )
        chosen = owners[groups]
        clamped_lo = np.maximum(los[inside], lo_arr)
        # the smallest Z-address of a box is its low corner's
        probes = np.minimum.reduceat(
            self._encode_columns(z_tables, clamped_lo), groups
        )
        probes[0] = start

        # pruning looks at whole (unclamped) blocks, like ZRegion.classify
        segments = arrays.offsets[head : tail + 1] - begin
        picked = chosen - head
        if isinstance(space, QueryBox):
            in_space = np.ones(len(chosen), dtype=bool)
        else:
            in_space = np.logical_or.reduceat(
                self._boxes_meeting(space, los, his), segments
            )[picked]
        in_cover = in_space
        if pushdown is not None:
            in_cover = in_space & np.logical_or.reduceat(
                self._boxes_meeting(pushdown, los, his), segments
            )[picked]

        keys: "list[int | None]" = [None] * len(chosen)
        if sort_tables is not None:
            # the minimal sort-curve address of a clamped box sits at
            # its low corner (see region_min_keys)
            minima = np.minimum.reduceat(
                self._encode_columns(sort_tables, clamped_lo), groups
            )
            keys = [
                key if wanted else None
                for key, wanted in zip(minima.tolist(), in_cover.tolist())
            ]
        return list(
            zip(
                probes.tolist(),
                arrays.firsts[chosen].tolist(),
                arrays.lasts[chosen].tolist(),
                arrays.page_ids[chosen].tolist(),
                in_space.tolist(),
                in_cover.tolist(),
                keys,
            )
        )
