"""Disk-based B+-trees: the substrate of the UB-Tree and of the IOT.

* :class:`BPlusTree` — generic B+-tree on simulated pages; keyed by a
  composite attribute tuple it is the paper's IOT baseline
  (:class:`~repro.relational.table.IOTTable`).
* :data:`TOP` — the sentinel that closes a key-prefix range.
"""

from .bptree import TOP, BPlusTree

__all__ = [
    "BPlusTree",
    "TOP",
]
