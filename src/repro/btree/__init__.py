"""Disk-based B+-trees: the substrate and the baselines.

* :class:`BPlusTree` — generic B+-tree on simulated pages.
* :class:`IndexOrganizedTable` — clustered composite-key table (the
  paper's IOT baseline).
"""

from .bptree import BPlusTree
from .iot import BOTTOM, TOP, IndexOrganizedTable

__all__ = [
    "BOTTOM",
    "BPlusTree",
    "IndexOrganizedTable",
    "TOP",
]
