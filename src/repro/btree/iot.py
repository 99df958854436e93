"""Index-organized tables: the paper's clustered B*-Tree baseline.

An IOT stores the full tuples in the leaves of a B+-tree on a composite
key in lexicographic order ``A_1, ..., A_d`` (Section 4.2).  It supports
the restriction on its *leading* attribute and delivers tuples presorted
by the key — at the price of one random page access per leaf.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from .. import kernels
from ..storage.buffer import BufferPool
from .bptree import BPlusTree


class _Top:
    """Compares above every other value (inclusive upper sentinel)."""

    def __lt__(self, other: Any) -> bool:
        return False

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _Top)


TOP = _Top()


class IndexOrganizedTable:
    """A relation clustered by a composite key inside a B+-tree.

    ``key_of`` maps a stored tuple to its composite key; keys need not be
    unique (ties are stored together, never split across separators).
    """

    def __init__(
        self,
        buffer: BufferPool,
        key_of: Callable[[Any], tuple],
        page_capacity: int,
        fanout: int = 128,
        category: str = "data",
    ) -> None:
        self.key_of = key_of
        self.tree = BPlusTree(
            buffer, leaf_capacity=page_capacity, fanout=fanout, category=category
        )

    def __len__(self) -> int:
        return self.tree.record_count

    @property
    def page_count(self) -> int:
        return self.tree.leaf_count

    def insert(self, row: Any) -> None:
        self.tree.insert(self.key_of(row), row)

    def bulk_load(self, rows: Sequence[Any], fill: float = 1.0) -> None:
        """Sort by the composite key and build the tree bottom-up.

        Key extraction and the sort permutation are batched through the
        kernel layer (integer composite keys lexsort vectorized), the
        same way the UB-Tree bulk load batches its Z-address encoding —
        keeping the baseline comparisons fair.
        """
        key_of = self.key_of
        keys = [key_of(row) for row in rows]
        pairs = [
            (keys[index], rows[index])
            for index in kernels.get_backend().argsort_keys(keys)
        ]
        self.tree.bulk_load(pairs, fill=fill)

    def delete(self, row: Any) -> bool:
        return self.tree.delete(self.key_of(row), row)

    def scan(
        self, lo: tuple | None = None, hi: tuple | None = None
    ) -> Iterator[Any]:
        """Tuples in key order, optionally restricted to ``lo <= key <= hi``.

        Following the cost model, every leaf visited costs one random
        access.  A prefix range is the bare prefix up to the prefix
        padded with :data:`TOP`, as ``IOTTable.scan_leading`` builds it.
        """
        for _, row in self.tree.range_scan(lo, hi):
            yield row

    def check_invariants(self) -> None:
        self.tree.check_invariants()
