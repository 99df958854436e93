"""Secondary (non-clustered) B+-tree indexes.

The paper evaluates secondary indexes on the restricted attributes of Q3
and Q6 and finds them uncompetitive: they deliver row identifiers in key
order, but fetching the rows themselves costs one random page access per
*row* (up to one per match) because the data is not clustered by the
index.  This module exists so that the reproduction can demonstrate the
same effect rather than assert it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from ..storage.buffer import BufferPool
from ..storage.heap import HeapFile
from .bptree import BPlusTree


class SecondaryIndex:
    """A B+-tree mapping one attribute to row identifiers.

    Row identifiers are ``(page_id, slot)`` pairs into a heap file.  The
    index itself is scanned at one random access per leaf; every RID
    dereference costs one random data-page access unless the page was the
    immediately preceding one (modelled by the buffer pool).
    """

    def __init__(
        self,
        buffer: BufferPool,
        key_of: Callable[[Any], Any],
        heap: HeapFile,
        leaf_capacity: int = 400,
        category: str = "data",
    ) -> None:
        self.buffer = buffer
        self.key_of = key_of
        self.heap = heap
        self.category = category
        self.tree = BPlusTree(buffer, leaf_capacity=leaf_capacity, category=category)

    def build(self) -> None:
        """Index every row currently in the heap (reads are not priced)."""
        for page in self.heap._pages:  # direct walk: build time is setup
            for slot, row in enumerate(page.records):
                self.tree.insert(self.key_of(row), (page.page_id, slot))

    def insert(self, row: Any, rid: tuple[int, int]) -> None:
        self.tree.insert(self.key_of(row), rid)

    def rids(self, lo: Any, hi: Any) -> Iterator[tuple[int, int]]:
        """Row ids with ``lo <= key <= hi`` in key order (index I/O only)."""
        for _, rid in self.tree.range_scan(lo, hi):
            yield rid

    def fetch(self, lo: Any, hi: Any) -> Iterator[Any]:
        """Rows with key in range, fetched through RIDs (the slow path)."""
        for page_id, slot in self.rids(lo, hi):
            page = self.buffer.get(page_id, category=self.category)
            yield page.records[slot]
