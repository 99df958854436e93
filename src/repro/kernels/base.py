"""The batch-kernel backend interface.

A :class:`KernelBackend` supplies the slice-level compute primitives the
hot paths are written against: encoding a whole column of points into
curve addresses, filtering a page's worth of points against a query
space, and sorting key arrays.  Two implementations exist:

* :mod:`repro.kernels.pure` — tuple-at-a-time Python, always available;
* :mod:`repro.kernels.numpy_backend` — vectorized over NumPy arrays.

Both must be **observationally identical**: same addresses, same
selected indices in the same order, same (stable) sort permutations.
The test suite asserts this for randomized curves and workloads; with
``REPRO_CHECKS=1`` the Tetris sweep holds every page's
:meth:`KernelBackend.scan_page_run` to the other backend's
(:func:`repro.invariants.check_page_run`), and it relies on the parity
to keep its emitted stream and page access order bit-identical
regardless of the backend in use.  Every method is one the engine or
the benchmark harness calls; none is kept only as a reference.

All batch entry points assume *valid* inputs (coordinates within the
curve's per-dimension bit lengths); validation stays at API boundaries
such as :meth:`repro.core.curves.Curve.encode`.
"""

from __future__ import annotations

from typing import Any, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.curves import Curve
    from ..core.query_space import QuerySpace
    from ..core.region import RegionDirectory

#: one row of :meth:`KernelBackend.schedule_regions`:
#: ``(probe, first, last, page_id, in_space, in_cover, key)``
ScheduledRegion = tuple[int, int, int, int, bool, bool, "int | None"]


class SortRunBuffer:
    """DPG-style accumulator of per-page sorted ``(key, order)`` runs.

    The Tetris cache of Section 4.4, restated as cache-efficient run
    formation (Cooperman et al.'s DPG): each page contributes one
    already-sorted run (:meth:`KernelBackend.scan_page_run`), runs are
    kept separate while a slice is open, and a flush consolidates them
    with hierarchical pairwise merges — every merge step streams two
    sorted runs, so the working set per step is two runs, not the whole
    cache.  Backends keep runs in their native representation (Python
    lists of ``[key, order]`` pairs, or ``uint64`` array pairs), which
    is where the vectorized backend's win comes from: the cache never
    round-trips through per-entry Python objects.

    Entries are unique ``(key, order)`` pairs — ``order`` is the global
    arrival counter — so the induced order is total and identical to the
    key-then-arrival order of a per-tuple heap.
    """

    def push(self, run: Any) -> None:
        """Add one page's sorted run (the backend-native ``run`` of
        :meth:`KernelBackend.scan_page_run`)."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Buffered tuple count (the Tetris cache size)."""
        raise NotImplementedError

    def has_key_below(self, barrier: "int | None") -> bool:
        """Whether any buffered key is ``< barrier``.

        ``None`` means "no more unread regions": everything buffered is
        flushable, so the answer is ``len(self) > 0``.  Answered from
        the run heads alone — no consolidation happens here.
        """
        raise NotImplementedError

    def cut(self, barrier: "int | None") -> "tuple[list[int], list[int]]":
        """Remove all entries with ``key < barrier`` (all entries when
        ``barrier`` is ``None``) and return them as two parallel lists
        in ``(key, order)`` order: the keys the slice was ordered by and
        the arrival orders.  Consolidates the pending runs first.
        """
        raise NotImplementedError


class KernelBackend:
    """Batch compute primitives over points, addresses and keys."""

    #: registry name ("python", "numpy")
    name: str = "abstract"

    def encode_batch(
        self, curve: "Curve", points: Sequence[Sequence[int]]
    ) -> list[int]:
        """Curve address of every point, as plain Python ints.

        Coordinates must already be valid for ``curve`` (unchecked fast
        path).
        """
        raise NotImplementedError

    def decode_batch(
        self, curve: "Curve", addresses: Sequence[int]
    ) -> list[tuple[int, ...]]:
        """Point of every address (inverse of :meth:`encode_batch`)."""
        raise NotImplementedError

    def filter_box_batch(
        self,
        lo: Sequence[int],
        hi: Sequence[int],
        points: Sequence[Sequence[int]],
    ) -> list[int]:
        """Indices (ascending) of the points inside the box ``[lo, hi]``."""
        raise NotImplementedError

    def filter_space_batch(
        self, space: "QuerySpace", points: Sequence[Sequence[int]]
    ) -> list[int]:
        """Indices (ascending) of the points contained in ``space``.

        Must agree exactly with per-point
        :meth:`~repro.core.query_space.QuerySpace.contains_point`.
        Backends may vectorize the geometric space types (boxes,
        attribute comparisons, intersections) and fall back to the
        per-point test for opaque predicates.
        """
        raise NotImplementedError

    def filter_space_page(self, space: "QuerySpace", page: Any) -> list[int]:
        """Indices (ascending) of the page records whose point is in ``space``.

        Page-level twin of :meth:`filter_space_batch` over a storage
        page's ``(z_address, (point, payload))`` records — the kernel
        behind the UB-Tree range query, which filters but neither keys
        nor sorts.  Backends may reuse the memoized columnar view keyed
        on the page's ``version`` counter.
        """
        raise NotImplementedError

    def sum_products(
        self, page: Any, selection: Sequence[int], positions: tuple[int, ...]
    ) -> "int | None":
        """Σ over the selected records of the product of their payload's
        values at ``positions`` — the page fold of Q6's summand.

        ``selection`` indexes ``page.records`` (what
        :meth:`filter_space_page` returned).  The sum is exact, or
        ``None`` when a value is not a Python ``int`` (a float, a bool):
        then the caller folds the rows itself, left to right.  Backends
        may memoize a per-page product column keyed on ``version``.
        """
        raise NotImplementedError

    def argsort_keys(self, keys: Sequence[Any]) -> list[int]:
        """Stable sort permutation of ``keys``.

        ``[keys[i] for i in argsort_keys(keys)]`` is sorted; ties keep
        their original relative order.  Keys are typically curve
        addresses (ints) or composite-key tuples, but any totally
        ordered values must work.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # fused page kernels (one call per page / per region batch)
    # ------------------------------------------------------------------
    def scan_page_run(
        self, curve: "Curve", space: "QuerySpace", page: Any, base: int = 0
    ) -> tuple[int, Sequence[int], Any]:
        """Filter, key and sort one storage page's records in one call.

        ``page`` is a :class:`~repro.storage.page.Page` whose records are
        ``(z_address, (point, payload))`` pairs — the UB-Tree Z-region
        layout the Tetris sweep reads.  Returns ``(count, selected,
        run)``: ``selected`` holds the qualifying record indices in
        ascending (arrival) order, and ``run`` their entries sorted by
        ``(key, order)`` — ``key`` the curve address of a qualifying
        point, ``order = base + arrival_rank`` its global arrival number.
        Orders are unique across calls when ``base`` advances by
        ``count`` each time, which makes the entry ordering total.

        ``run`` is backend-native and feeds :meth:`make_run_buffer`'s
        buffer from the *same* backend: the pure backend returns the
        ``[key, order]`` entry list, the NumPy backend a pair of
        ``uint64`` arrays that never materialize per-entry Python
        objects.  Backends may memoize derived per-page state (e.g. a
        columnar view and the page's sorted keys) keyed on the page's
        ``version`` counter, which the storage layer bumps on every
        record mutation.
        """
        raise NotImplementedError

    def make_run_buffer(self) -> SortRunBuffer:
        """A fresh :class:`SortRunBuffer` in this backend's native
        run representation (see :meth:`scan_page_run`)."""
        raise NotImplementedError

    def scan_block(
        self, curve: "Curve", space: "QuerySpace", pages: Sequence[Any]
    ) -> tuple[list[Sequence[int]], Sequence[int]]:
        """Filter, key and sort a whole block of pages in one call.

        ``pages`` is a sequence of storage pages in *arrival* (region
        retrieval) order.  Returns ``(selected_per_page, emit_order)``:
        ``selected_per_page[p]`` holds page ``p``'s qualifying record
        indices in ascending order (exactly :meth:`scan_page_run`'s
        ``selected``), and ``emit_order`` is the sort permutation over
        the concatenation of all qualifying tuples in arrival order —
        indexing the concatenated arrivals with it reproduces, bit for
        bit, the stream a page-at-a-time Tetris sweep over the same
        region order emits (keys ascend; arrival order breaks ties).
        One task per slab, not per scan step: this is the whole-slab
        kernel the thread executor dispatches.
        """
        raise NotImplementedError

    def merge_sorted_keys(
        self, keys_a: Sequence[Any], keys_b: Sequence[Any]
    ) -> list[int]:
        """Stable merge permutation over two already-sorted key runs.

        Both inputs are sorted; the result indexes their concatenation
        (``keys_a`` first) such that gathering through it is sorted,
        with ``keys_a`` winning ties — i.e. exactly the permutation a
        stable sort of the concatenation would produce.
        This is the pairwise step of DPG's hierarchical run merging; the
        shard coordinator's k-way merge (:mod:`repro.shard.merge`) is
        built from it.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # key columns (the external sort's runs)
    # ------------------------------------------------------------------
    def sort_key_column(self, keys: Sequence[Any]) -> tuple[list[int], Any]:
        """:meth:`argsort_keys`, plus the keys it sorts as a key column.

        Returns ``(permutation, column)``: ``permutation`` equals
        ``argsort_keys(keys)`` and ``column`` holds the keys gathered
        through it, in this backend's native form — on NumPy an
        ``int64`` array when every key is an integer that fits (2-D, one
        row per key, for tuples of such integers), a list otherwise.  A
        column is opaque apart from ``len`` and slicing; it feeds
        :meth:`merge_key_columns`, :meth:`concat_key_columns` and
        :meth:`list_key_column` of the same backend.
        """
        raise NotImplementedError

    def merge_key_columns(
        self, columns: Sequence[Any], more: Sequence[bool]
    ) -> "tuple[int | None, list[int], list[int], Any]":
        """One chunk step of a k-way merge over sorted key columns.

        ``columns[i]`` is the loaded, not yet merged part of run ``i``
        (sorted) and ``more[i]`` says whether run ``i`` still has keys
        that are not loaded.  The merge order is ``(key, run,
        position)`` — equal keys go to the lower run, as in
        ``heapq.merge`` over the runs.  A step ends at the earliest
        loaded end of a run with more to load: that run is ``stop`` (the
        least ``(last key, i)`` over runs with more and a non-empty
        column), or ``None`` when no run has more and the step takes
        everything.

        Returns ``(stop, taken, order, merged)``: ``taken[i]`` is how
        many leading keys of ``columns[i]`` merge at or before the last
        key of run ``stop`` (all of them for ``stop``), ``order`` the
        stable merge permutation over the concatenation of those
        prefixes, and ``merged`` the taken keys in that order, as a
        column.
        """
        raise NotImplementedError

    def concat_key_columns(self, columns: Sequence[Any]) -> Any:
        """``columns`` joined end to end, as one key column."""
        raise NotImplementedError

    def list_key_column(self, column: Any) -> list[Any]:
        """A key column's keys as the Python values it was built from —
        what :class:`~repro.invariants.MergeChecker` compares."""
        raise NotImplementedError

    def schedule_regions(
        self,
        directory: "RegionDirectory",
        start: int,
        lo: Sequence[int],
        hi: Sequence[int],
        space: "QuerySpace",
        pushdown: "QuerySpace | None" = None,
        sort_curve: "Curve | None" = None,
    ) -> "list[ScheduledRegion]":
        """Everything a restricted scan decides per Z-region, for all
        regions at once — the BIGMIN walk, the pruning tests and the
        static Tetris keys, from index information alone.

        ``directory`` is the tree's region snapshot, ``[lo, hi]`` the
        bounding box of ``space`` and ``start`` a Z-address inside the
        box to resume from (``encode(lo)`` for a whole scan).  One row
        per directory region holding a box address ``>= start``, in
        Z-order — exactly the regions the walk ``z = start; region
        containing z; z = next_in_box(region.last + 1)`` visits:

        ``probe``
            the walk's ``z`` for the region — its smallest box address
            (``start`` for the first row), where the caller resumes if
            the tree changes under the scan;
        ``first, last, page_id``
            the directory's entry;
        ``in_space, in_cover``
            :meth:`~repro.core.region.ZRegion.classify` against
            ``space`` and ``pushdown``;
        ``key``
            for ``in_cover`` rows when ``sort_curve`` is given, ``min
            sort_curve-address over (region ∩ [lo, hi])`` as in the pure
            backend's ``region_min_keys``; ``None`` otherwise.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name}>"
