"""Query spaces: the restriction side of the Tetris operator.

Section 3 of the paper defines a *query space* as "some subspace of a
relation defined by restrictions" and notes that it is *mostly* a query
box (an iso-oriented hyper-rectangle) — but the formal model, and the
Q4 discussion in Section 5.2, explicitly allow non-rectangular spaces
such as the triangular region ``COMMITDATE < RECEIPTDATE``.  The paper
leaves that extension unimplemented ("has not been implemented yet");
this module implements it.

A :class:`QuerySpace` provides a :meth:`~QuerySpace.bounding_box` that
drives BIGMIN-based enumeration.  What the space admits is evaluated by
the kernels, which know the geometry of the four spaces defined here:
point membership in batch (``filter_space_batch``) and, to prune whole
Z-regions without I/O, box intersection (:func:`box_meets` and its
vectorized twin in the NumPy backend).  A space the kernels do not know
brings its own :meth:`~QuerySpace.contains_point` and
:meth:`~QuerySpace.intersects_box`; the box test may be conservative
(report an intersection that is actually empty — the page is then read
and its tuples filtered) but must never miss a real intersection.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Sequence

Box = tuple[tuple[int, ...], tuple[int, ...]]


def box_is_empty(box: Box) -> bool:
    """True when any attribute range of the box is inverted."""
    lo, hi = box
    return any(l > h for l, h in zip(lo, hi))


class QuerySpace:
    """Base class for restriction subspaces of the universe."""

    dims: int

    def bounding_box(self) -> Box | None:
        """Smallest enclosing box, or ``None`` when the space is unbounded.

        An *empty* space is reported as a box with an inverted range
        (check with :func:`box_is_empty`), never as ``None``.
        """
        raise NotImplementedError

    def contains_point(self, point: Sequence[int]) -> bool:
        """Exact membership test of a space the kernels do not know."""
        raise NotImplementedError

    def intersects_box(self, lo: Sequence[int], hi: Sequence[int]) -> bool:
        """Exact-or-conservative box test of a space the kernels do not know."""
        raise NotImplementedError

    def intersect(self, other: "QuerySpace") -> "QuerySpace":
        """Conjunction of two query spaces."""
        return IntersectionSpace([self, other])


class QueryBox(QuerySpace):
    """The common case: ``Q = [[y, z]]``, one closed range per attribute."""

    def __init__(self, lo: Sequence[int], hi: Sequence[int]) -> None:
        if len(lo) != len(hi):
            raise ValueError("lo and hi must have the same dimensionality")
        self.lo = tuple(lo)
        self.hi = tuple(hi)
        self.dims = len(self.lo)

    @classmethod
    def full(cls, coord_max: Sequence[int]) -> "QueryBox":
        """The unrestricted base space ``Ω``."""
        return cls(tuple(0 for _ in coord_max), tuple(coord_max))

    @property
    def is_empty(self) -> bool:
        return any(l > h for l, h in zip(self.lo, self.hi))

    def bounding_box(self) -> Box | None:
        return self.lo, self.hi

    def contains_point(self, point: Sequence[int]) -> bool:
        return all(l <= x <= h for x, l, h in zip(point, self.lo, self.hi))

    def restricted(self, dim: int, lo: int, hi: int) -> "QueryBox":
        """Copy with one attribute range tightened (sweep-plane slices)."""
        los = list(self.lo)
        his = list(self.hi)
        los[dim] = max(los[dim], lo)
        his[dim] = min(his[dim], hi)
        return QueryBox(los, his)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ranges = ", ".join(f"[{l}, {h}]" for l, h in zip(self.lo, self.hi))
        return f"QueryBox({ranges})"


_COMPARATORS: dict[str, Callable[[int, int], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class ComparisonSpace(QuerySpace):
    """A half-space comparing two attributes, e.g. ``COMMITDATE < RECEIPTDATE``.

    This is the triangular search space of TPC-D Q4 (Section 5.2), which
    the paper names as the natural non-rectangular extension of the Tetris
    algorithm.  Box intersection is exact: a box meets ``x_a < x_b`` iff
    its smallest ``a`` beats its largest ``b``.
    """

    def __init__(self, dims: int, left_dim: int, op: str, right_dim: int) -> None:
        if op not in _COMPARATORS:
            raise ValueError(f"unsupported comparison {op!r}")
        for dim in (left_dim, right_dim):
            if not 0 <= dim < dims:
                raise ValueError(f"dimension {dim} out of range for {dims} dims")
        if left_dim == right_dim:
            raise ValueError("comparison needs two distinct attributes")
        self.dims = dims
        self.left_dim = left_dim
        self.op = op
        self.right_dim = right_dim
        self._cmp = _COMPARATORS[op]

    def bounding_box(self) -> Box | None:
        # The half-space alone does not bound any attribute; callers
        # intersect it with a box (usually the universe).
        return None

    def contains_point(self, point: Sequence[int]) -> bool:
        return self._cmp(point[self.left_dim], point[self.right_dim])


class IntervalUnionSpace(QuerySpace):
    """A union of disjoint encoded value intervals along one attribute.

    This is the geometric carrier of join-restriction *pushdown*: the
    planner condenses the qualifying join keys of one join input into a
    bounded union of key intervals — a box cover in the sense of "Box
    Covers and Domain Orderings for Beyond Worst-Case Join Processing" —
    and intersects it with the other input's query space, so the Tetris
    sweep skips whole Z-regions that cannot produce join matches.

    Every test is exact, never merely conservative: the space is a
    union of full-width slabs along one dimension, so a box intersects
    it iff the box's range on that dimension meets some interval, and
    membership is a bisection over the interval starts.  The bounding
    box clamps the dimension to the cover's convex hull (an empty cover
    reports an inverted — empty — box).

    Construction is confined to :mod:`repro.planner.pushdown` (enforced
    by reprolint rule R016); the sweep and the kernels only *test*
    against instances handed to them.
    """

    def __init__(
        self,
        coord_max: Sequence[int],
        dim: int,
        intervals: Sequence[tuple[int, int]],
    ) -> None:
        self.coord_max = tuple(int(value) for value in coord_max)
        self.dims = len(self.coord_max)
        if not 0 <= dim < self.dims:
            raise ValueError(f"dimension {dim} out of range for {self.dims} dims")
        self.dim = dim
        cleaned: list[tuple[int, int]] = []
        previous_hi: int | None = None
        for lo, hi in intervals:
            lo, hi = int(lo), int(hi)
            if lo > hi:
                raise ValueError(f"inverted interval [{lo}, {hi}]")
            if not 0 <= lo <= hi <= self.coord_max[dim]:
                raise ValueError(
                    f"interval [{lo}, {hi}] outside the attribute domain "
                    f"[0, {self.coord_max[dim]}]"
                )
            if previous_hi is not None and lo <= previous_hi:
                raise ValueError("intervals must be sorted and disjoint")
            cleaned.append((lo, hi))
            previous_hi = hi
        self.intervals = tuple(cleaned)
        self.starts = tuple(lo for lo, _ in cleaned)
        self.ends = tuple(hi for _, hi in cleaned)

    def bounding_box(self) -> Box | None:
        los = [0] * self.dims
        his = list(self.coord_max)
        if not self.intervals:
            los[self.dim], his[self.dim] = 1, 0  # inverted: empty space
        else:
            los[self.dim] = self.starts[0]
            his[self.dim] = self.ends[-1]
        return tuple(los), tuple(his)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntervalUnionSpace)
            and self.coord_max == other.coord_max
            and self.dim == other.dim
            and self.intervals == other.intervals
        )

    def __hash__(self) -> int:
        return hash((self.coord_max, self.dim, self.intervals))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ranges = ", ".join(f"[{lo}, {hi}]" for lo, hi in self.intervals)
        return f"IntervalUnionSpace(dim={self.dim}, {ranges})"


class IntersectionSpace(QuerySpace):
    """Conjunction of query spaces (box ∧ half-space ∧ …)."""

    def __init__(self, parts: Sequence[QuerySpace]) -> None:
        if not parts:
            raise ValueError("intersection of zero spaces is the universe; use QueryBox.full")
        flattened: list[QuerySpace] = []
        for part in parts:
            if isinstance(part, IntersectionSpace):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        self.parts = tuple(flattened)
        self.dims = self.parts[0].dims
        if any(p.dims != self.dims for p in self.parts):
            raise ValueError("all parts must share the same dimensionality")

    def bounding_box(self) -> Box | None:
        lo: list[int] | None = None
        hi: list[int] | None = None
        for part in self.parts:
            box = part.bounding_box()
            if box is None:
                continue  # unbounded part contributes no constraint
            part_lo, part_hi = box
            if lo is None or hi is None:
                lo, hi = list(part_lo), list(part_hi)
            else:
                lo = [max(a, b) for a, b in zip(lo, part_lo)]
                hi = [min(a, b) for a, b in zip(hi, part_hi)]
        if lo is None or hi is None:
            return None
        return tuple(lo), tuple(hi)


def box_meets(space: QuerySpace, lo: Sequence[int], hi: Sequence[int]) -> bool:
    """Does ``space`` meet the box ``[lo, hi]``?  The scalar pruning test.

    Exact for the spaces defined here; any other space answers through
    its own :meth:`~QuerySpace.intersects_box`.  A half-space is decided
    by the box's most favourable corner (min of the left attribute
    against max of the right one for ``<`` / ``<=``, the reverse for
    ``>`` / ``>=``); an interval union by the first interval ending at or
    after the box's low end, which starts within the box's range or
    nothing does.
    """
    if isinstance(space, QueryBox):
        return all(
            box_lo <= space_hi and space_lo <= box_hi
            for box_lo, box_hi, space_lo, space_hi in zip(lo, hi, space.lo, space.hi)
        )
    if isinstance(space, ComparisonSpace):
        left, right = space.left_dim, space.right_dim
        if space.op in ("<", "<="):
            return space._cmp(lo[left], hi[right])
        return space._cmp(hi[left], lo[right])
    if isinstance(space, IntervalUnionSpace):
        index = bisect_left(space.ends, lo[space.dim])
        return index < len(space.starts) and space.starts[index] <= hi[space.dim]
    if isinstance(space, IntersectionSpace):
        return all(box_meets(part, lo, hi) for part in space.parts)
    return space.intersects_box(lo, hi)
