"""The paper's contribution: Z-order spaces, UB-Trees and the Tetris sweep.

Public surface:

* :class:`ZSpace` — a multidimensional universe with Z and Tetris orders.
* :class:`Curve` — generic monotone bit-interleaving curves with BIGMIN.
* :class:`UBTree` — the multidimensional organization of a relation.
* :class:`TetrisScan` / :func:`tetris_sorted` — sorted reading with
  restrictions and no external sort.
* :class:`QueryBox` and friends — restriction geometry, including the
  non-rectangular extension of Section 5.2.
"""

from .curves import Curve, tetris_schedule, z_schedule
from .intervals import IntervalSet
from .query_space import (
    ComparisonSpace,
    IntersectionSpace,
    PredicateSpace,
    QueryBox,
    QuerySpace,
    box_is_empty,
)
from .region import ZRegion
from .tetris import TetrisScan, TetrisStats, tetris_sorted
from .ubtree import UBTree
from .zorder import ZSpace

__all__ = [
    "ComparisonSpace",
    "Curve",
    "IntersectionSpace",
    "IntervalSet",
    "PredicateSpace",
    "QueryBox",
    "QuerySpace",
    "TetrisScan",
    "TetrisStats",
    "UBTree",
    "ZRegion",
    "ZSpace",
    "box_is_empty",
    "tetris_schedule",
    "tetris_sorted",
    "z_schedule",
]
