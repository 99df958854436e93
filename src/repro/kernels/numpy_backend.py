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
holds the coordinate matrix, its per-dimension min and max (its *zone*)
and, per sort curve, the page's keys ascending with their stable
permutation.  A warm :meth:`NumPyBackend.scan_page_run` is then a mask
of the bounds the zone straddles and two takes through that
permutation; ``REPRO_CHECKS=1`` holds it to the pure backend's
``scan_page_run``, which reads the page's records afresh.

Addresses are carried as ``uint64``, so not every call vectorizes: a
curve wider than 64 bits, points or keys that do not convert to a
``uint64`` / ``int64`` array, or a space with no vectorized geometry.
Such a method raises :class:`_NoGeometry`, and :func:`_vectorized`, the
backend's one fallback, hands the whole call to the pure backend's
method of the same name — correctness never depends on
vectorizability.  All results are converted back to plain Python ints,
so downstream consumers (heap barriers, B-tree keys, pickled pages) see
exactly what the pure backend produces.
"""

from __future__ import annotations

import functools
import weakref
from bisect import bisect_right
from operator import mul
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
#: no sum of an ``int64`` product column may reach this
_INT64_LIMIT = 1 << 63
_BYTE = _U64(0xFF)

_EMPTY_RUN = (np.empty(0, dtype=_U64), np.empty(0, dtype=_U64))

_NP_COMPARATORS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


class _NoGeometry(Exception):
    """The call does not vectorize: a curve over 64 bits, values that do
    not convert to an integer array, or a space these kernels know no
    geometry for.  :func:`_vectorized` hands the whole call to the pure
    backend; arguments given here replace the call's own (key columns
    in the list form the pure methods read)."""


def _vectorized(method: Any) -> Any:
    """``method``, handing the call to :class:`PurePythonBackend`'s method
    of the same name where it raises :class:`_NoGeometry` — the one place
    this backend falls back."""
    name = method.__name__

    @functools.wraps(method)
    def dispatch(self: Any, *args: Any, **kwargs: Any) -> Any:
        try:
            return method(self, *args, **kwargs)
        except _NoGeometry as fallback:
            pure = getattr(PurePythonBackend, name)
            return pure(self, *(fallback.args or args), **kwargs)

    return dispatch


def _array(values: Any, dtype: Any = None) -> "np.ndarray":
    """``values`` as an array; :class:`_NoGeometry` when they do not
    convert (say, an integer past ``uint64``)."""
    try:
        return np.asarray(values, dtype=dtype)
    except (OverflowError, ValueError, TypeError):
        raise _NoGeometry from None


def _key_array(keys: Sequence[Any]) -> "np.ndarray":
    """Keys as an array.  Python ints on both sides of ``2**63``, which
    NumPy would make ``float64``, become ``uint64``: 64-bit addresses."""
    array = _array(keys)
    if array.dtype == np.float64 and all(type(key) is int for key in keys):
        return _array(keys, _U64)
    return array


def _int64_column(keys: Sequence[Any]) -> "np.ndarray":
    """``keys`` as an ``int64`` key column, or :class:`_NoGeometry` (the
    column then stays a Python list).

    Integer keys become a 1-D array and tuples of integers a 2-D one,
    one row per key, ordered lexicographically; anything else — or an
    integer that does not fit ``int64`` — keeps Python semantics.
    """
    array = _array(keys)
    if array.dtype != np.int64 or array.ndim != (
        2 if isinstance(keys[0], tuple) else 1
    ):
        raise _NoGeometry
    return array


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


def _merge_slots(
    keys_a: "np.ndarray", keys_b: "np.ndarray"
) -> "tuple[np.ndarray, np.ndarray]":
    """Where a stable merge of two ascending key arrays, ``keys_a`` first,
    puts each element.

    ``searchsorted`` computes each element's target slot directly:
    ``a[i]`` lands at ``i + |{b < a[i]}|`` and ``b[j]`` at
    ``j + |{a <= b[j]}|`` — on key ties every ``a`` element precedes
    every ``b`` element.  Two scatters through these slots instead of a
    comparison loop: a pairwise merge at memory speed.
    """
    pos_a = np.arange(len(keys_a), dtype=np.intp)
    pos_a += np.searchsorted(keys_b, keys_a, side="left")
    pos_b = np.arange(len(keys_b), dtype=np.intp)
    pos_b += np.searchsorted(keys_a, keys_b, side="right")
    return pos_a, pos_b


def _merge_runs(
    a: "tuple[np.ndarray, np.ndarray]", b: "tuple[np.ndarray, np.ndarray]"
) -> "tuple[np.ndarray, np.ndarray]":
    """Stable merge of two sorted ``(keys, orders)`` runs, ``a`` first:
    with ``a`` the older run, holding the smaller arrival orders, the
    tie rule of :func:`_merge_slots` is exactly ``(key, order)`` order —
    the DPG pairwise merge."""
    pos_a, pos_b = _merge_slots(a[0], b[0])
    keys = np.empty(len(pos_a) + len(pos_b), dtype=_U64)
    orders = np.empty_like(keys)
    keys[pos_a], orders[pos_a] = a
    keys[pos_b], orders[pos_b] = b
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
    its region; ``least_high`` / ``greatest_low`` are per dimension the
    least high and greatest low corner.  O(regions x blocks x dims).
    """

    __slots__ = ("firsts", "lasts", "page_ids", "offsets", "owner", "los", "his",
                 "least_high", "greatest_low")

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
        self.least_high = self.his.min(axis=0).tolist()
        self.greatest_low = self.los.max(axis=0).tolist()

    def meeting(self, los: Any, his: Any, lo: Any, hi: Any) -> "np.ndarray":
        """Per block ``[los[i], his[i]]``: whether it meets ``[lo, hi]``,
        testing only the bounds some block of the directory can fail."""
        meeting = np.ones(len(los), dtype=bool)
        for dim, (low, high) in enumerate(zip(lo, hi)):
            if low > self.least_high[dim]:
                meeting &= his[:, dim] >= low
            if high < self.greatest_low[dim]:
                meeting &= los[:, dim] <= high
        return meeting


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


def _zone(columns: "np.ndarray") -> "tuple[list[int], list[int]]":
    """A non-empty coordinate matrix's per-dimension min and max."""
    return columns.min(axis=0).tolist(), columns.max(axis=0).tolist()


class _PageView:
    """What the backend derives from one page, valid while the page's
    ``version`` equals :attr:`version`.

    :attr:`columns` is the page's coordinate matrix (``None`` when it does
    not convert), :attr:`lows` / :attr:`highs` its zone.  :attr:`runs` maps
    a sort curve to the page's keys on it ascending and their stable sort
    permutation (``uint64`` record indexes), built by the first scan in
    that order.  :attr:`products` pairs a tuple of payload positions with
    the ``int64`` column of their product per record, built by the first
    fold over them (:meth:`product`; a fold over other positions replaces
    it).  All are read-only: runs in a run buffer share them.
    """

    __slots__ = ("version", "columns", "lows", "highs", "runs", "products")

    def __init__(self, version: int, columns: "np.ndarray | None") -> None:
        self.version = version
        self.columns = columns
        self.lows, self.highs = (None, None) if columns is None else _zone(columns)
        self.runs: "dict[Curve, tuple[np.ndarray, ...]]" = {}
        self.products: "tuple[tuple[int, ...], np.ndarray | None] | None" = None

    def product(
        self, records: Sequence[Any], positions: tuple[int, ...]
    ) -> "np.ndarray | None":
        """The page's product column over payload ``positions``, or
        ``None`` when a value is not a Python ``int`` or a sum of the
        column could leave ``int64`` (``len · max|product| >= 2**63``)."""
        memo = self.products
        if memo is not None and memo[0] == positions:
            return memo[1]
        column = None
        rows = [payload for _, (_, payload) in records]
        factors = [[row[position] for row in rows] for position in positions]
        if all(type(value) is int for factor in factors for value in factor):
            values = factors[0]
            for factor in factors[1:]:
                values = list(map(mul, values, factor))
            if len(values) * max(map(abs, values), default=0) < _INT64_LIMIT:
                column = np.array(values, dtype=np.int64)
                column.flags.writeable = False
        self.products = (positions, column)
        return column

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


def _selection(mask: Any, count: int) -> "np.ndarray":
    """The row indexes, ascending, a narrowing of ``count`` rows admits."""
    return np.arange(count) if mask is True else np.flatnonzero(mask)


def _both(mask: Any, test: Any) -> Any:
    """Two narrowings that admit some row, ANDed (masks are fresh)."""
    if mask is True:
        return test
    if test is not True:
        mask &= test
    return mask


def _narrow_box(columns: Any, lows: Any, highs: Any, lo: Any, hi: Any) -> Any:
    """:meth:`NumPyBackend._narrow` of the box ``[lo, hi]``."""
    mask: Any = True
    for dim, (low, high, floor, ceiling) in enumerate(zip(lo, hi, lows, highs)):
        if low > ceiling or high < floor:
            return False
        if low > floor:
            mask = _both(mask, columns[:, dim] >= low)
        if high < ceiling:
            mask = _both(mask, columns[:, dim] <= high)
    return mask


class NumPyBackend(PurePythonBackend):
    """Vectorized batch primitives; a call that does not vectorize runs
    the inherited pure method (:func:`_vectorized`)."""

    name = "numpy"

    def __init__(self) -> None:
        self._tables: "weakref.WeakKeyDictionary[Curve, _CurveTables | None]" = (
            weakref.WeakKeyDictionary()
        )
        # per-pushdown-cover interval arrays: a scan tests the same cover
        # against every page, so the conversion must not repeat per call
        self._intervals: "weakref.WeakKeyDictionary[IntervalUnionSpace, tuple]" = (
            weakref.WeakKeyDictionary()
        )
        # one view per Z-region page, dying with the page and stamped
        # with its mutation version: the coordinate matrix and its zone
        # plus, per sort order, the page's sorted keys.  Repeated scans
        # over the same relation (the common OLAP pattern) then skip both
        # the Python-tuple → array conversion and the keying.
        self._views: "weakref.WeakKeyDictionary[Any, _PageView]" = (
            weakref.WeakKeyDictionary()
        )
        # per-tree region directory as arrays plus its block geometry;
        # dies with the directory when the tree's structure epoch moves
        self._directories: (
            "weakref.WeakKeyDictionary[RegionDirectory, _DirectoryArrays]"
        ) = weakref.WeakKeyDictionary()

    def _interval_arrays(
        self, space: IntervalUnionSpace
    ) -> "tuple[np.ndarray, np.ndarray]":
        arrays = self._intervals.get(space)
        if arrays is None:
            arrays = _array(space.starts, _U64), _array(space.ends, _U64)
            self._intervals[space] = arrays
        return arrays

    # ------------------------------------------------------------------
    # per-curve table preparation
    # ------------------------------------------------------------------
    def _tables_for(self, curve: Curve) -> _CurveTables:
        tables = self._tables.get(curve, False)
        if tables is False:
            # uint64 addresses cap the vectorizable width at 64 bits
            tables = _CurveTables(curve) if curve.total_bits <= 64 else None
            self._tables[curve] = tables
        if tables is None:
            raise _NoGeometry
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

    @_vectorized
    def encode_batch(
        self, curve: Curve, points: Sequence[Sequence[int]]
    ) -> list[int]:
        if not len(points):
            return []
        tables = self._tables_for(curve)
        return self._encode_columns(tables, _array(points, _U64)).tolist()

    @_vectorized
    def decode_batch(
        self, curve: Curve, addresses: Sequence[int]
    ) -> list[tuple[int, ...]]:
        if not len(addresses):
            return []
        tables = self._tables_for(curve)
        coords = self._decode_addresses(tables, _array(addresses, _U64))
        return [tuple(row) for row in coords.tolist()]

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------
    @_vectorized
    def filter_box_batch(
        self,
        lo: Sequence[int],
        hi: Sequence[int],
        points: Sequence[Sequence[int]],
    ) -> list[int]:
        if not len(points):
            return []
        columns = _array(points, _U64)
        mask = _narrow_box(columns, *_zone(columns), lo, hi)
        return _selection(mask, len(columns)).tolist()

    @_vectorized
    def filter_space_batch(
        self, space: QuerySpace, points: Sequence[Sequence[int]]
    ) -> list[int]:
        if not len(points):
            return []
        columns = _array(points, _U64)
        mask = self._narrow(space, columns, *_zone(columns))
        return _selection(mask, len(columns)).tolist()

    def _narrow(self, space: QuerySpace, columns: Any, lows: Any, highs: Any) -> Any:
        """Which rows of ``columns`` (zone ``[lows, highs]``) lie in
        ``space``: ``True`` when no bound can fail, ``False`` when none can
        pass, else a fresh mask of only the one-sided tests the zone
        straddles.  Raises :class:`_NoGeometry` for an unknown space."""
        if isinstance(space, QueryBox):
            return _narrow_box(columns, lows, highs, space.lo, space.hi)
        if isinstance(space, ComparisonSpace):
            left, right, compare = space.left_dim, space.right_dim, space._cmp
            # the most and the least favourable pairs of the two ranges
            best, worst = (lows[left], highs[right]), (highs[left], lows[right])
            if space.op in (">", ">="):
                best, worst = worst, best
            every, some = compare(*worst), compare(*best)
            if every or not some:
                return every
            return _NP_COMPARATORS[space.op](columns[:, left], columns[:, right])
        if isinstance(space, IntervalUnionSpace):
            starts, ends, dim = space.starts, space.ends, space.dim
            low, high = lows[dim], highs[dim]
            # the last intervals starting at or below the zone's two ends
            slot, last = bisect_right(starts, low) - 1, bisect_right(starts, high) - 1
            if slot >= 0 and high <= ends[slot]:
                return True  # the zone lies inside one interval
            first = slot + 1 if slot < 0 or ends[slot] < low else slot
            if first > last:
                return False  # the zone lies inside one gap
            if first == last:  # one interval meets the zone: a box on ``dim``
                bounds = [starts[first]], [ends[first]]
                return _narrow_box(columns[:, dim : dim + 1], [low], [high], *bounds)
            interval_starts, interval_ends = self._interval_arrays(space)
            # slot of the last interval starting at or below each value;
            # membership iff that interval also ends at or above it
            column = columns[:, dim]
            slots = np.searchsorted(interval_starts, column, side="right") - 1
            inside = slots >= 0
            np.clip(slots, 0, None, out=slots)
            inside &= column <= interval_ends[slots]
            return inside
        if isinstance(space, IntersectionSpace):
            mask = True
            for part in space.parts:
                narrowed = self._narrow(part, columns, lows, highs)
                if narrowed is False:
                    return False
                mask = _both(mask, narrowed)
            return mask
        raise _NoGeometry

    @_vectorized
    def filter_space_page(self, space: QuerySpace, page: Any) -> list[int]:
        """Page-level space filter over the memoized columnar view."""
        records = page.records
        if not records:
            return []
        view = self._page_view(page)
        if view.columns is None:
            raise _NoGeometry
        mask = self._narrow(space, view.columns, view.lows, view.highs)
        return _selection(mask, len(records)).tolist()

    @_vectorized
    def sum_products(
        self, page: Any, selection: Sequence[int], positions: tuple[int, ...]
    ) -> "int | None":
        """The selection's sum over the page view's memoized product
        column; a page without one (non-``int`` values, a sum that could
        leave ``int64``) is the pure backend's."""
        if not selection:
            return 0
        column = self._page_view(page).product(page.records, positions)
        if column is None:
            raise _NoGeometry
        return int(column.take(selection).sum())

    # ------------------------------------------------------------------
    # sorting
    # ------------------------------------------------------------------
    @_vectorized
    def argsort_keys(self, keys: Sequence[Any]) -> list[int]:
        if not len(keys):
            return []
        array = _key_array(keys)
        if not np.issubdtype(array.dtype, np.integer) or array.ndim > 2:
            # floats, strings, objects, mixed tuples: Python semantics win
            raise _NoGeometry
        # composite keys (2-D) sort lexicographically, row by row
        return _stable_order(array).tolist()

    # ------------------------------------------------------------------
    # page kernels
    # ------------------------------------------------------------------
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

    @_vectorized
    def scan_page_run(
        self,
        curve: Curve,
        space: QuerySpace,
        page: Any,
        base: int = 0,
    ) -> tuple[int, Sequence[int], Any]:
        """Filter, key and sort one page; the run is a ``uint64`` array
        pair ``(keys, orders)``.

        The page is keyed once per sort order (:meth:`_PageView.keyed`);
        a scan narrows the columns against ``space`` within the page's
        zone (:meth:`_narrow`) and takes the survivors through the cached
        permutation, or all of it.  Keys still ascend and arrival order
        (a survivor's rank, ``cumsum(mask) - 1``) still breaks ties,
        because a stable sort of a subset is the subset of the stable
        sort.  A space without vectorized geometry takes its rows from
        :meth:`filter_space_page` and keeps the array run, so one scan
        never mixes run types; only a curve over 64 bits (every page of
        its scan) or a page whose points do not convert (invalid input)
        gives the pure backend's list run.
        """
        records = page.records
        if not records:
            return 0, [], _EMPTY_RUN
        tables = self._tables_for(curve)
        view = self._page_view(page)
        columns = view.columns
        if columns is None or columns.shape[1] != curve.dims:
            raise _NoGeometry
        try:
            mask = self._narrow(space, columns, view.lows, view.highs)
        except _NoGeometry:
            mask = np.zeros(len(records), dtype=bool)
            mask[self.filter_space_page(space, page)] = True
        if mask is True:  # the whole page: its cached run as it is
            keys, order = view.keyed(tables, curve)
            return len(records), list(range(len(records))), (keys, order + _U64(base))
        selected = np.flatnonzero(mask)  # none for False
        if not selected.size:
            return 0, [], _EMPTY_RUN
        keys, order = view.keyed(tables, curve)
        take = mask[order]
        orders = mask.cumsum(dtype=_U64)[order[take]]
        orders += _U64(base)
        orders -= _U64(1)
        return int(selected.size), selected.tolist(), (keys[take], orders)

    def make_run_buffer(self) -> SortRunBuffer:
        return NumPySortRunBuffer()

    @_vectorized
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
                raise _NoGeometry
            page_columns.append(columns)
            offsets.append(offsets[-1] + len(columns))
        if not page_columns:
            return [[] for _ in pages], []
        block = (
            page_columns[0]
            if len(page_columns) == 1
            else np.concatenate(page_columns, axis=0)
        )
        selected = _selection(self._narrow(space, block, *_zone(block)), len(block))
        if not selected.size:
            return [[] for _ in pages], []
        perm = np.argsort(self._encode_columns(tables, block[selected]), kind="stable")
        # split the ascending global selection back into per-page slices
        bounds = np.searchsorted(selected, np.asarray(offsets, dtype=np.intp))
        selected_per_page = [
            (selected[bounds[i] : bounds[i + 1]] - offsets[i]).tolist()
            for i in range(len(pages))
        ]
        return selected_per_page, perm.tolist()

    @_vectorized
    def merge_sorted_keys(
        self, keys_a: Sequence[Any], keys_b: Sequence[Any]
    ) -> list[int]:
        if not len(keys_a) or not len(keys_b):
            return list(range(len(keys_a) + len(keys_b)))
        array_a, array_b = _key_array(keys_a), _key_array(keys_b)
        if (
            array_a.ndim != 1
            or array_b.ndim != 1
            or not np.issubdtype(array_a.dtype, np.integer)
            or array_a.dtype != array_b.dtype
        ):
            raise _NoGeometry
        pos_a, pos_b = _merge_slots(array_a, array_b)
        permutation = np.empty(len(pos_a) + len(pos_b), dtype=np.intp)
        permutation[pos_a] = np.arange(len(pos_a), dtype=np.intp)
        permutation[pos_b] = np.arange(len(pos_a), len(permutation), dtype=np.intp)
        return permutation.tolist()

    # ------------------------------------------------------------------
    # key columns: int64 arrays where every key fits, lists otherwise
    # ------------------------------------------------------------------
    @_vectorized
    def sort_key_column(self, keys: Sequence[Any]) -> tuple[list[int], Any]:
        column = _int64_column(keys)
        order = _stable_order(column)
        return order.tolist(), column[order]

    @_vectorized
    def merge_key_columns(
        self, columns: Sequence[Any], more: Sequence[bool]
    ) -> "tuple[int | None, list[int], list[int], Any]":
        lists = _as_lists(columns)
        if lists is not None:
            raise _NoGeometry(lists, more)
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

    @_vectorized
    def concat_key_columns(self, columns: Sequence[Any]) -> Any:
        lists = _as_lists(columns)
        if lists is not None:
            raise _NoGeometry(lists)
        return np.concatenate(columns)

    # ------------------------------------------------------------------
    # region scheduling
    # ------------------------------------------------------------------
    def _directory_arrays(self, directory: RegionDirectory) -> _DirectoryArrays:
        arrays = self._directories.get(directory)
        if arrays is None:
            arrays = _DirectoryArrays(directory, self._tables_for(directory.curve))
            self._directories[directory] = arrays
        return arrays

    def _boxes_meeting(
        self,
        space: QuerySpace,
        directory: _DirectoryArrays,
        los: "np.ndarray",
        his: "np.ndarray",
    ) -> "np.ndarray":
        """Per block ``[los[i], his[i]]`` of ``directory``: ``box_meets``
        of it.  Raises :class:`_NoGeometry` for an unknown space."""
        if isinstance(space, QueryBox):
            return directory.meeting(los, his, space.lo, space.hi)
        if isinstance(space, ComparisonSpace):
            compare = _NP_COMPARATORS[space.op]
            if space.op in ("<", "<="):
                return compare(los[:, space.left_dim], his[:, space.right_dim])
            return compare(his[:, space.left_dim], los[:, space.right_dim])
        if isinstance(space, IntervalUnionSpace):
            starts, ends = self._interval_arrays(space)
            if not starts.size:
                return np.zeros(len(los), dtype=bool)
            # the first interval ending at or after the box's low end
            # either starts within the box's range or nothing does
            slots = np.searchsorted(ends, los[:, space.dim], side="left")
            found = slots < len(starts)
            np.clip(slots, None, len(starts) - 1, out=slots)
            return found & (starts[slots] <= his[:, space.dim])
        if isinstance(space, IntersectionSpace):
            meeting = np.ones(len(los), dtype=bool)
            for part in space.parts:
                meeting &= self._boxes_meeting(part, directory, los, his)
            return meeting
        raise _NoGeometry

    @_vectorized
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
        sort_tables = None if sort_curve is None else self._tables_for(sort_curve)
        # regions whose interval reaches into [start, encode(hi)]
        head, tail = np.searchsorted(
            arrays.lasts,
            np.array([start, curve.encode_unchecked(hi)], dtype=_U64),
            side="left",
        ).tolist()
        begin, end = arrays.offsets[head], arrays.offsets[tail + 1]
        los = arrays.los[begin:end]
        his = arrays.his[begin:end]
        inside = np.flatnonzero(arrays.meeting(los, his, lo, hi))
        if not inside.size:
            return []
        # blocks are grouped by region, so the surviving ones still are:
        # a group per region that meets the box, in Z-order
        owners = arrays.owner[begin:end][inside]
        groups = np.flatnonzero(
            np.concatenate(([True], owners[1:] != owners[:-1]))
        )
        chosen = owners[groups]
        clamped_lo = np.maximum(los[inside], np.asarray(lo, dtype=_U64))
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
                self._boxes_meeting(space, arrays, los, his), segments
            )[picked]
        in_cover = in_space
        if pushdown is not None:
            in_cover = in_space & np.logical_or.reduceat(
                self._boxes_meeting(pushdown, arrays, los, his), segments
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
