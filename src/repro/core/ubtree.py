"""The UB-Tree: a B+-tree over Z-addresses whose leaves are Z-regions.

Section 3.3: "The UB-Tree partitions the multidimensional space into
Z-regions, each of which is mapped onto one disk page."  We follow the
paper's own prototype strategy — the UB-Tree is emulated on a B*-Tree:
tuples are keyed by their Z-address, every leaf page is one Z-region, and
the region boundaries ``[α : β]`` are the separator keys surrounding the
leaf.  Insertion splits a full region at the median Z-address (the
paper's ``γ`` with half the tuples on either side); point queries are one
tree descent; the range query reads the regions overlapping a query box
— the ones the BIGMIN ("getNextZ") walk visits, scheduled from the
region directory in one call — touching each qualifying page exactly
once.  Both restricted scans, the range query and the Tetris sweep, read
their schedule through one page walk (:meth:`UBTree.walk`), which owns
the read-ahead window and the read-once checks.
"""

from __future__ import annotations

from contextlib import closing
from typing import Any, Iterable, Iterator, Sequence

from .. import invariants, kernels
from ..btree.bptree import BPlusTree
from ..storage.buffer import BufferPool
from ..storage.page import Page
from ..storage.prefetch import SweepPrefetcher
from ..storage.wal import active_wal
from .curves import Curve
from .query_space import QuerySpace, box_is_empty
from .intervals import IntervalSet
from .region import RegionCursor, RegionDirectory, ScheduledRegion, ZRegion
from .zorder import ZSpace


class UBTree:
    """A multidimensionally clustered relation.

    Parameters
    ----------
    buffer:
        Buffer pool of the simulated disk.
    space:
        The indexed universe (dimensions and bits per attribute).
    page_capacity:
        Tuples per Z-region page.
    category:
        I/O statistics bucket for data page accesses.
    """

    def __init__(
        self,
        buffer: BufferPool,
        space: ZSpace,
        page_capacity: int,
        fanout: int = 128,
        category: str = "data",
    ) -> None:
        self.space = space
        self.category = category
        self.page_capacity = page_capacity
        self.tree = BPlusTree(
            buffer, leaf_capacity=page_capacity, fanout=fanout, category=category
        )
        #: lazily built on the first scan, rebuilt when the tree's
        #: structure epoch has moved (see :meth:`region_directory`)
        self._directory: RegionDirectory | None = None

    # ------------------------------------------------------------------
    # maintenance operations (Section 3.3: logarithmic insert/point/delete)
    # ------------------------------------------------------------------
    def insert(self, point: Sequence[int], payload: Any = None) -> None:
        """Insert a tuple located at ``point`` carrying ``payload``."""
        z_address = self.space.z_address(point)
        if invariants.enabled():
            invariants.check(
                self.space.z.decode(z_address) == tuple(point),
                f"Z-address {z_address} does not decode back to {point}; "
                "curve encode/decode are no longer inverses",
            )
        self.tree.insert(z_address, (tuple(point), payload))

    def bulk_load(
        self, rows: Iterable[tuple[Sequence[int], Any]], fill: float = 1.0
    ) -> None:
        """Build the Z-region partitioning bottom-up from a full dataset.

        Tuples are sorted by Z-address and packed into region pages at
        the requested fill factor — the initial-load path a production
        UB-Tree would use, yielding fewer, fuller Z-regions than
        insert-driven splitting.  Requires an empty tree.
        """
        materialized = [(tuple(point), payload) for point, payload in rows]
        points = [point for point, _ in materialized]
        kernel = kernels.get_backend()
        # bulk load is an API boundary: validate the whole column at once
        # (a box test against the universe) before the unchecked encode
        dims = self.space.dims
        if any(len(point) != dims for point in points):
            bad = next(p for p in points if len(p) != dims)
            raise ValueError(f"expected {dims} coordinates, got {len(bad)}")
        lo, hi = self.space.universe_box()
        if len(kernel.filter_box_batch(lo, hi, points)) != len(points):
            for point in points:  # re-raise with the scalar error message
                self.space.z.encode(point)
        # one batch encode + one stable key sort for the whole dataset
        # (payloads need not be comparable, so only addresses are keyed)
        addresses = kernel.encode_batch(self.space.z, points)
        pairs = [
            (addresses[index], materialized[index])
            for index in kernel.argsort_keys(addresses)
        ]
        self.tree.bulk_load(pairs, fill=fill)
        # with a WAL armed, torn leaves are a legal on-disk state until
        # recovery has replayed the committed images — validate after
        # recover() (the chaos harness does) rather than inline here
        if invariants.enabled() and active_wal(self.tree.disk) is None:
            invariants.validate_ubtree(self)

    def delete(self, point: Sequence[int], payload: Any = None) -> bool:
        z_address = self.space.z_address(point)
        if payload is None:
            return self.tree.delete(z_address)
        return self.tree.delete(z_address, (tuple(point), payload))

    def __len__(self) -> int:
        return self.tree.record_count

    @property
    def region_count(self) -> int:
        return self.tree.leaf_count

    @property
    def page_count(self) -> int:
        return self.tree.leaf_count

    # ------------------------------------------------------------------
    # region access
    # ------------------------------------------------------------------
    def region_for(
        self, z_address: int, *, charge: bool = True
    ) -> tuple[ZRegion, Page]:
        """The Z-region containing ``z_address`` plus its page.

        One B*-Tree descent; the data page access is priced as a random
        read when ``charge`` is set (the Tetris algorithm's
        ``retrieveRegion``).
        """
        leaf, low, high = self.tree.leaf_for(z_address, charge=charge)
        first = 0 if low is None else low + 1
        last = self.space.address_max if high is None else high
        return ZRegion(first, last, leaf.page_id), leaf

    def regions(self) -> Iterator[ZRegion]:
        """All Z-regions in Z-order (unpriced; used by tests and viz).

        Boundaries come from the separator keys via :meth:`region_for`,
        so they agree exactly with what the sweep algorithms see.
        """
        z_address = 0
        while True:
            region, _ = self.region_for(z_address, charge=False)
            yield region
            if region.last >= self.space.address_max:
                return
            z_address = region.last + 1

    def region_directory(self) -> RegionDirectory:
        """The Z-region partitioning as columns, current as of this call.

        Built from the separator keys with unaccounted page peeks, so
        taking the snapshot is invisible to the buffer pool, the I/O
        statistics and fault injection.  Cached per structure epoch; the
        epoch is read *before* the walk, so a snapshot that raced a
        mutation is merely rebuilt next time.  Two threads touching it
        first both build and both results are valid — the publish is
        one reference store.
        """
        directory = self._directory
        epoch = self.tree.structure_epoch
        if directory is None or directory.epoch != epoch:
            highs, page_ids = self.tree.leaf_bounds()
            highs[-1] = self.space.address_max
            directory = RegionDirectory(self.space.z, highs, page_ids, epoch)
            self._directory = directory
        return directory

    def scheduled_regions(
        self,
        space: QuerySpace,
        pushdown: "QuerySpace | None" = None,
        sort_curve: "Curve | None" = None,
    ) -> list[tuple[ZRegion, bool, bool, "int | None"]]:
        """``(region, in_space, in_cover, key)`` for every Z-region that
        meets ``space``'s bounding box, in Z-order.

        The regions, verdicts and keys are
        :meth:`~repro.kernels.base.KernelBackend.schedule_regions`'s,
        computed for the whole scan in one call over the region
        directory as of this call; the index levels are never read
        during the scan (the paper's cached-index assumption, its cost
        model pricing data pages only).  A scan takes the rows through a
        :class:`RegionCursor`, which re-takes them when the tree's
        structure epoch moves.  With ``REPRO_CHECKS=1`` every row is
        held to the scalar definitions and to an inner-level walk of the
        tree done with ``disk.peek`` before the list is returned.
        """
        box = space.bounding_box()
        if box is None:
            box = self.space.universe_box()
        if box_is_empty(box):
            return []
        lo, hi = box
        curve = self.space.z
        start = curve.encode(lo)
        curve.encode(hi)  # the box is API input: validate both corners
        rows = kernels.get_backend().schedule_regions(
            self.region_directory(), start, lo, hi, space, pushdown, sort_curve
        )
        if invariants.enabled():
            checker = invariants.ScheduleChecker(
                self, lo, hi, space, pushdown, sort_curve
            )
            for probe, first, last, page_id, in_space, in_cover, key in rows:
                checker.observe(
                    probe, ZRegion(first, last, page_id), in_space, in_cover, key
                )
            checker.finish()
        return [
            (ZRegion(first, last, page_id), in_space, in_cover, key)
            for _, first, last, page_id, in_space, in_cover, key in rows
        ]

    def regions_overlapping(self, space: QuerySpace) -> list[ZRegion]:
        """Z-regions intersecting ``space``, in Z-order, as of this call.

        The index levels come from the region directory and data pages
        are *not* read.  Regions inside the bounding box whose
        geometry provably misses a non-rectangular ``space`` are
        filtered out.
        """
        return [
            region
            for region, in_space, _, _ in self.scheduled_regions(space)
            if in_space
        ]

    # ------------------------------------------------------------------
    # the page walk and the range query (Section 5.3 / standard UB-Tree
    # algorithm)
    # ------------------------------------------------------------------
    def walk(
        self,
        cursor: RegionCursor,
        space: QuerySpace,
        pushdown: "QuerySpace | None" = None,
    ) -> Iterator[tuple[ScheduledRegion, Page]]:
        """Each scheduled region of ``cursor`` with its page, read once.

        The one read path of a restricted scan (the Tetris sweep and
        :meth:`range_query`): it pulls the cursor, demands each page
        through the buffer pool and owns the read-ahead window.  It
        borrows the window a join coordinator lent the cursor
        (``cursor.window``), or else opens one when the pool can
        prefetch and closes it when the walk ends or is closed; before
        each demand the window is topped up from the cursor, after it
        the page is marked consumed.  With ``REPRO_CHECKS=1`` every page
        is held to one fetch, read-ahead included, and a walk that runs
        to its end must have read every region ``space`` (and
        ``pushdown``) wants.
        """
        buffer, category = self.tree.buffer, self.category
        borrowed = cursor.window
        window = borrowed or SweepPrefetcher.for_pool(buffer, category=category)
        fetch_once = invariants.enabled() and invariants.FetchOnceChecker()
        coverage = invariants.enabled() and invariants.CoverageChecker(
            self, space, pushdown
        )
        try:
            for entry in cursor:
                page_id = entry[2]
                if window is not None:
                    window.top_up(cursor)
                if fetch_once:
                    fetch_once.observe(page_id, window)
                if coverage:
                    coverage.observe(entry[0], page_id)
                page = buffer.get(page_id, category=category)
                if window is not None:
                    window.mark_consumed(page_id)
                yield entry, page
            if coverage:
                coverage.finish()
        finally:
            if window is not None and window is not borrowed:
                window.close()

    def range_query(
        self, space: QuerySpace
    ) -> Iterator[list[tuple[tuple[int, ...], Any]]]:
        """All tuples inside ``space``; each overlapping page read once.

        This is the multi-attribute restriction algorithm used for TPC-D
        Q6: walk the region schedule (:meth:`regions_overlapping`, the
        regions the BIGMIN walk would visit, taken from the region
        directory in one call), read every overlapping region page once
        through :meth:`walk` (a random access each, prefetched ahead of
        the cursor when the pool has an I/O scheduler), and filter the
        page's tuples against the exact predicate.  Filtering runs
        through the batch kernel layer (one ``filter_space_page`` call
        per page), so the vectorized backend evaluates the predicate
        over the whole page at once instead of tuple at a time.  Each
        page with a survivor is handed over as one list of
        ``(point, payload)`` pairs, taken before the generator suspends:
        an insert between two pulls cannot shift a page that is half
        read, nor (the regions come from a :class:`RegionCursor`) lose
        one it split.
        """
        kernel = kernels.get_backend()

        def schedule(read: IntervalSet) -> list[ScheduledRegion]:
            fresh = not read
            return [
                (region.first, region.last, region.page_id, None)
                for region in self.regions_overlapping(space)
                if fresh or read.containing(region.first) is None
            ]

        with closing(self.walk(RegionCursor(self.tree, schedule), space)) as pages:
            for _, page in pages:
                records = page.records
                pairs = [
                    records[index][1] for index in kernel.filter_space_page(space, page)
                ]
                if pairs:
                    yield pairs

    def check_invariants(self) -> None:
        """Structural validation plus region/page bijection.

        Delegates to :func:`repro.invariants.validate_ubtree`; runs
        unconditionally — this is the explicit debug entry point,
        independent of the ``REPRO_CHECKS`` gate.
        """
        invariants.validate_ubtree(self)
