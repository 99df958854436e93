"""A disk-page-based B+-tree (the paper's B*-Tree substrate).

The UB-Tree is "easily implemented above any RDBMS by utilizing the
B*-Tree of this RDBMS" (Section 1): its Z-regions are simply the leaves
of a B+-tree keyed by Z-address, with the inner-node separators acting as
region boundaries.  The same tree, keyed by a composite attribute tuple,
is the paper's IOT baseline (index-organized table).

Storage model
-------------
* Leaves are record pages on the simulated disk; they carry ``(key,
  value)`` pairs sorted by key and a ``next`` pointer for range scans.
* Inner nodes live on payload pages.  Following the paper ("almost all
  levels of a B*-Tree are cached during the normal operation of a DBMS"),
  inner-node reads are *recorded but not priced* (``charge=False``).
* Leaf reads are priced as **random** accesses: a real index scan follows
  logical leaf order, which matches physical order only by accident, and
  the paper's cost model charges ``t_pi + t_tau`` per IOT page.

Duplicate keys are supported, but a page split never separates equal
keys; a page whose records all share one key may therefore exceed its
nominal capacity (an overflow page, counted in ``overflow_pages``).
Deletion removes records without rebalancing — standard practice in
production B-trees (e.g. no-merge deletes) and irrelevant to the paper's
read-only experiments.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import Any, Iterator

from .. import invariants
from ..storage.buffer import BufferPool
from ..storage.page import Page
from ..storage.wal import WriteAheadLog, active_wal


class _Top:
    """Compares above every other value (inclusive upper sentinel)."""

    def __lt__(self, other: Any) -> bool:
        return False

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _Top)


#: pads a key prefix to the last key it starts: ``(hi, TOP)`` is the
#: inclusive upper bound of the keys that begin with ``hi``
TOP = _Top()

#: a leaf record ``(key, value)`` to its key
_key = itemgetter(0)


class _InnerNode:
    """Separator keys and child page ids; ``children[i]`` covers keys
    ``(keys[i-1], keys[i]]`` with the outermost bounds unbounded."""

    __slots__ = ("keys", "children")

    def __init__(self, keys: list[Any], children: list[int]) -> None:
        self.keys = keys
        self.children = children


class BPlusTree:
    """A B+-tree over the simulated disk.

    Parameters
    ----------
    buffer:
        Buffer pool through which all page accesses flow.
    leaf_capacity:
        Records per leaf page (the paper's "page capacity").
    fanout:
        Separator capacity of inner nodes.
    category:
        I/O statistics bucket charged for leaf accesses.
    """

    def __init__(
        self,
        buffer: BufferPool,
        leaf_capacity: int,
        fanout: int = 128,
        category: str = "data",
    ) -> None:
        if leaf_capacity < 2:
            raise ValueError("leaf capacity must be at least 2")
        if fanout < 3:
            raise ValueError("fanout must be at least 3")
        self.buffer = buffer
        self.disk = buffer.disk
        self.leaf_capacity = leaf_capacity
        self.fanout = fanout
        self.category = category
        self.height = 1
        self.record_count = 0
        self.leaf_count = 1
        self.overflow_pages = 0
        #: advances whenever separators or leaf identity may have changed
        #: (a split, a bulk build, a rollback or recovery beneath the live
        #: tree); never restored, so anything derived from the leaf
        #: partitioning is current iff it was built at this epoch
        self.structure_epoch = 0
        root = self._new_leaf()
        self.root_id = root.page_id
        self.first_leaf_id = root.page_id

    # ------------------------------------------------------------------
    # page helpers
    # ------------------------------------------------------------------
    def _new_leaf(self) -> Page:
        page = self.disk.allocate(self.leaf_capacity)
        page.payload = {"leaf": True, "next": None}
        wal = active_wal(self.disk)
        if wal is not None:
            wal.log_alloc(page)
        return page

    def _new_inner(self, keys: list[Any], children: list[int]) -> Page:
        page = self.disk.allocate(0)
        page.payload = _InnerNode(keys, children)
        wal = active_wal(self.disk)
        if wal is not None:
            wal.log_alloc(page)
        return page

    def _fetch(self, page_id: int, *, charge: bool) -> Page:
        return self.buffer.get(
            page_id, sequential=False, category=self.category, charge=charge
        )

    def _inner(self, page_id: int, *, peek: bool) -> Page:
        """An inner page: read through the pool (recorded, not priced),
        or with ``peek`` straight off the disk — no pool lookup, no
        accounting, no fault site."""
        if peek:
            return self.disk.peek(page_id)
        return self._fetch(page_id, charge=False)

    def _is_leaf(self, page: Page) -> bool:
        return isinstance(page.payload, dict)

    # ------------------------------------------------------------------
    # descent
    # ------------------------------------------------------------------
    def _locate(
        self, key: Any, *, want_path: bool = False, peek: bool = False
    ) -> tuple[int, Any, Any, list[tuple[Page, int]]]:
        """Descend the *inner* levels only; never touches the leaf page.

        Returns the leaf's page id, its covered separator interval
        ``(low, high]`` (``None`` = unbounded) and, when requested, the
        inner-node path for split propagation.  Keeping leaves out of the
        descent matters for accounting: the caller decides whether the
        leaf access is priced, and an unpriced bounds probe (a Tetris
        event-point computation) must not smuggle the data page into the
        buffer pool for free.  With ``peek`` the inner levels are read
        like :meth:`leaf_bounds` reads them, invisibly to the storage
        layer (what a checker needs to hold a snapshot to the tree).
        """
        low: Any = None
        high: Any = None
        path: list[tuple[Page, int]] = []
        page_id = self.root_id
        for _ in range(self.height - 1):
            page = self._inner(page_id, peek=peek)
            node: _InnerNode = page.payload
            idx = bisect_left(node.keys, key)
            if want_path:
                path.append((page, idx))
            if idx > 0:
                low = node.keys[idx - 1]
            if idx < len(node.keys):
                high = node.keys[idx]
            page_id = node.children[idx]
        return page_id, low, high, path

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        """Insert one record (duplicates allowed).

        With a write-ahead log armed on the disk stack, the insert runs
        as one WAL batch: before-images of every page it may mutate,
        redo images before the data writes, and tree metadata restored
        if the batch aborts — a crash mid-insert never strands a
        half-linked split.
        """
        wal = active_wal(self.disk)
        if wal is None:
            leaf_id, low, high, path = self._locate(key, want_path=True)
            leaf = self.disk.peek(leaf_id)  # load phase: not a priced access
            insort(leaf.records, (key, value), key=lambda r: r[0])
            leaf.version += 1
            self.record_count += 1
            if len(leaf.records) > self.leaf_capacity:
                self._split_leaf(leaf, path)
                # a split moves the leaf's upper records into a new sibling,
                # so only the lower separator bound still applies here
                high = None
            if invariants.enabled():
                invariants.validate_leaf(self, leaf, low, high)
            return
        with wal.journaled("bptree.insert", self):
            self._insert_journaled(wal, key, value)

    def _insert_journaled(self, wal: WriteAheadLog, key: Any, value: Any) -> None:
        """One insert under WAL protection (caller owns the batch)."""
        leaf_id, low, high, path = self._locate(key, want_path=True)
        leaf = self.disk.peek(leaf_id)
        wal.touch(leaf)
        for page, _ in path:
            wal.touch(page)  # separator propagation may mutate any of these
        insort(leaf.records, (key, value), key=lambda r: r[0])
        leaf.version += 1
        self.record_count += 1
        right: Page | None = None
        if len(leaf.records) > self.leaf_capacity:
            right = self._split_leaf(leaf, path)
            high = None
        if invariants.enabled():
            invariants.validate_leaf(self, leaf, low, high)
        # write-ahead: redo image first, then the (tearable) data write
        wal.log_image(leaf)
        self.disk.write(leaf, category=self.category)
        if right is not None:
            wal.log_image(right)
            self.disk.write(right, category=self.category)

    def meta_snapshot(self) -> tuple[int, int, int, int, int, int]:
        """The tree's in-memory descriptors (root, height, counts).

        Every journaled mutation opens (or joins) its WAL batch with
        :meth:`~repro.storage.wal.WriteAheadLog.journaled`, so the batch
        records these on the tree's first join and hands them back to
        :meth:`meta_restore` on every rollback — an in-process abort, an
        abort verdict or a post-crash presumed abort alike.  Nothing
        outside the WAL snapshots a tree.
        """
        return (
            self.root_id,
            self.first_leaf_id,
            self.height,
            self.leaf_count,
            self.record_count,
            self.overflow_pages,
        )

    def meta_restore(self, meta: tuple[int, int, int, int, int, int]) -> None:
        """Restore a :meth:`meta_snapshot` after the WAL rolled pages back."""
        (
            self.root_id,
            self.first_leaf_id,
            self.height,
            self.leaf_count,
            self.record_count,
            self.overflow_pages,
        ) = meta
        self.structure_changed()

    def structure_changed(self) -> None:
        """Advance :attr:`structure_epoch`.

        Called by the tree's own structural mutations, and by whoever
        replaces pages beneath the live tree object without going
        through them (WAL recovery).
        """
        self.structure_epoch += 1

    def _split_leaf(self, leaf: Page, path: list[tuple[Page, int]]) -> Page | None:
        """Split ``leaf``; returns the new right sibling (``None`` when the
        page overflowed instead because all its records share one key)."""
        split = self._split_index([r[0] for r in leaf.records])
        if split is None:
            # all records share one key: overflow rather than break the
            # separator invariant (split keys must be key boundaries)
            self.overflow_pages += 1
            return None
        right = self._new_leaf()
        right.records = leaf.records[split:]
        right.version += 1
        # the moved records already have digests in the left page's image
        right.last_image = leaf.last_image
        leaf.records = leaf.records[:split]
        leaf.version += 1
        right.payload["next"] = leaf.payload["next"]
        leaf.payload["next"] = right.page_id
        self.leaf_count += 1
        separator = leaf.records[-1][0]
        self._insert_separator(path, separator, right.page_id)
        return right

    @staticmethod
    def _split_index(keys: list[Any]) -> int | None:
        """Index nearest the middle where ``keys[i-1] != keys[i]``."""
        mid = len(keys) // 2
        for offset in range(mid + 1):
            left = mid - offset
            right = mid + offset
            if 0 < left < len(keys) and keys[left - 1] != keys[left]:
                return left
            if 0 < right < len(keys) and keys[right - 1] != keys[right]:
                return right
        return None

    def _insert_separator(
        self, path: list[tuple[Page, int]], separator: Any, right_id: int
    ) -> None:
        self.structure_changed()
        while path:
            page, idx = path.pop()
            node: _InnerNode = page.payload
            node.keys.insert(idx, separator)
            node.children.insert(idx + 1, right_id)
            if len(node.keys) <= self.fanout:
                return
            mid = len(node.keys) // 2
            separator = node.keys[mid]
            right_node = self._new_inner(node.keys[mid + 1:], node.children[mid + 1:])
            node.keys = node.keys[:mid]
            node.children = node.children[: mid + 1]
            right_id = right_node.page_id
        new_root = self._new_inner([separator], [self.root_id, right_id])
        self.root_id = new_root.page_id
        self.height += 1

    def bulk_load(self, pairs: "list[tuple[Any, Any]]", fill: float = 1.0) -> None:
        """Build the tree bottom-up from key-sorted ``(key, value)`` pairs.

        Replaces insert-driven loading for initial builds: leaves are
        packed to ``fill`` of their capacity (split-grown trees sit near
        ~70 %), which shrinks the page count and therefore the Z-region
        count of a UB-Tree built on top.  Requires an empty tree; equal
        keys are never split across leaves (overflowing one if needed).
        Load I/O is not priced, like insert-based loading.

        With a write-ahead log armed, the whole load is one WAL batch:
        every allocation is journaled, every leaf's redo image precedes
        its (tearable) sequential write, and the old root's free is
        deferred to commit — so a crash rolls back to the empty tree and
        a torn write replays to the committed image on recovery.  Inline
        structural validation is skipped on this path: torn leaves are a
        legal on-disk state until :meth:`~repro.storage.wal.WriteAheadLog
        .recover` has run.
        """
        if self.record_count:
            raise RuntimeError("bulk_load requires an empty tree")
        if not 0.1 <= fill <= 1.0:
            raise ValueError("fill factor must be in [0.1, 1.0]")
        for previous, current in zip(pairs, pairs[1:]):
            if current[0] < previous[0]:
                raise ValueError("bulk_load input must be sorted by key")
        if not pairs:
            return
        wal = active_wal(self.disk)
        if wal is None:
            self._bulk_build(pairs, fill, None)
            if invariants.enabled():
                invariants.validate_bptree(self)
            return
        with wal.journaled("bptree.bulk_load", self):
            self._bulk_build(pairs, fill, wal)

    def _bulk_build(
        self,
        pairs: "list[tuple[Any, Any]]",
        fill: float,
        wal: WriteAheadLog | None,
    ) -> None:
        """The bottom-up build itself (validated inputs, non-empty)."""
        self.structure_changed()
        old_root = self.root_id
        target = max(2, int(self.leaf_capacity * fill))
        leaves: list[Page] = []
        start = 0
        while start < len(pairs):
            end = min(start + target, len(pairs))
            # never split a run of equal keys: extend to the run's end
            while end < len(pairs) and pairs[end][0] == pairs[end - 1][0]:
                end += 1
            if end - start > self.leaf_capacity:
                self.overflow_pages += 1
            leaf = self._new_leaf()
            leaf.records = list(pairs[start:end])
            leaf.version += 1
            if leaves:
                leaves[-1].payload["next"] = leaf.page_id
            leaves.append(leaf)
            start = end

        self.first_leaf_id = leaves[0].page_id
        self.leaf_count = len(leaves)
        self.record_count = len(pairs)
        self.height = 1

        # build inner levels bottom-up: (max_key, page_id) per child
        level = [(leaf.records[-1][0], leaf.page_id) for leaf in leaves]
        while len(level) > 1:
            next_level: list[tuple[Any, int]] = []
            step = self.fanout + 1
            starts = list(range(0, len(level), step))
            if len(starts) > 1 and len(level) - starts[-1] == 1:
                # a lone trailing child cannot form a node on its own;
                # steal a sibling from the previous chunk rather than
                # folding the child into it, which would push that node
                # to fanout + 1 separators
                starts[-1] -= 1
            for index, chunk_start in enumerate(starts):
                chunk_end = (
                    starts[index + 1] if index + 1 < len(starts) else len(level)
                )
                chunk = level[chunk_start:chunk_end]
                keys = [max_key for max_key, _ in chunk[:-1]]
                children = [page_id for _, page_id in chunk]
                node = self._new_inner(keys, children)
                next_level.append((chunk[-1][0], node.page_id))
            level = next_level
            self.height += 1
        self.root_id = level[0][1]
        if wal is None:
            self.disk.free(old_root)
            return
        # write-ahead: each leaf's redo image precedes its data write, so
        # a torn write is replayable; the old root is freed only at commit
        for leaf in leaves:
            wal.log_image(leaf)
            self.disk.write(leaf, sequential=True, category=self.category)
        wal.log_free(old_root)

    def delete(self, key: Any, value: Any = None) -> bool:
        """Remove the first record matching ``key`` (and ``value`` if given).

        Returns whether a record was removed.  Pages are never merged.
        With a write-ahead log armed the removal runs as one WAL batch,
        like :meth:`insert`: undo image, redo image, then the data write
        that also refreshes the page's replicas — so neither a rollback
        nor a repair can bring the record back.
        """
        leaf_id, low, high, _ = self._locate(key)
        leaf = self.disk.peek(leaf_id)
        records = leaf.records
        idx = bisect_left(records, key, key=lambda r: r[0])
        while idx < len(records) and records[idx][0] == key:
            if value is None or records[idx][1] == value:
                break
            idx += 1
        else:
            return False
        wal = active_wal(self.disk)
        if wal is None:
            self._remove(leaf, idx, low, high)
            return True
        with wal.journaled("bptree.delete", self):
            wal.touch(leaf)
            self._remove(leaf, idx, low, high)
            wal.log_image(leaf)
            self.disk.write(leaf, category=self.category)
        return True

    def _remove(self, leaf: Page, idx: int, low: Any, high: Any) -> None:
        del leaf.records[idx]
        leaf.version += 1
        self.record_count -= 1
        if invariants.enabled():
            invariants.validate_leaf(self, leaf, low, high)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def leaf_for(self, key: Any, *, charge: bool = True) -> tuple[Page, Any, Any]:
        """The leaf covering ``key`` and its separator bounds ``(low, high]``.

        This is the UB-Tree point query: one tree descent and — when
        ``charge`` is set — one priced (random) leaf access.  With
        ``charge=False`` only the inner levels are walked and the leaf is
        handed back without accounting (callers use its id and bounds).
        """
        leaf_id, low, high, _ = self._locate(key)
        if charge:
            leaf = self._fetch(leaf_id, charge=True)
        else:
            leaf = self.disk.peek(leaf_id)
        return leaf, low, high

    def leaf_bounds(self) -> tuple[list[Any], list[int]]:
        """Upper separator bound and page id of every leaf, left to right.

        Leaf ``i`` covers the keys in ``(highs[i-1], highs[i]]``; the
        last bound is ``None`` (unbounded), like :meth:`leaf_for`'s.  The
        inner levels are walked with ``disk.peek`` — no pool lookup, no
        accounting, no fault site — so a caller may snapshot the leaf
        partitioning without being observable to the storage layer.
        """
        highs: list[Any] = [None]
        page_ids = [self.root_id]
        for _ in range(self.height - 1):
            child_highs: list[Any] = []
            child_ids: list[int] = []
            for high, page_id in zip(highs, page_ids):
                node: _InnerNode = self._inner(page_id, peek=True).payload
                child_highs.extend(node.keys)
                child_highs.append(high)
                child_ids.extend(node.children)
            highs, page_ids = child_highs, child_ids
        return highs, page_ids

    def range_scan(
        self, lo: Any = None, hi: Any = None
    ) -> Iterator[list[tuple[Any, Any]]]:
        """Yield the ``(key, value)`` pairs with ``lo <= key <= hi`` in key
        order, one list per leaf read that holds one.

        Every visited leaf costs one random page access (the IOT regime of
        the paper's cost model).  A leaf's list — its records cut to
        ``[lo, hi]`` by bisection — and its ``next`` link are one snapshot
        taken when the leaf is read, so an insert between two pulls, into
        that leaf or splitting it, neither shifts the rows under the scan
        nor re-serves them from the new right sibling.
        """
        if lo is None:
            page_id: int | None = self.first_leaf_id
        else:
            page_id, _, _, _ = self._locate(lo)
        while page_id is not None:
            leaf = self._fetch(page_id, charge=True)
            records, page_id = leaf.records, leaf.payload["next"]
            start = 0 if lo is None else bisect_left(records, lo, key=_key)
            end = len(records) if hi is None else bisect_right(records, hi, key=_key)
            pairs, past_hi = records[start:end], max(start, end) < len(records)
            if pairs:
                yield pairs
            if past_hi:
                return

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Validate the full tree contract (delegates to the invariant
        layer; see :func:`repro.invariants.validate_bptree`).

        Runs unconditionally — this is the explicit debug entry point,
        independent of the ``REPRO_CHECKS`` gate.
        """
        invariants.validate_bptree(self)
