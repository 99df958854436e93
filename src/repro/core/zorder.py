"""Z-addresses and Tetris addresses in the paper's vocabulary.

:class:`ZSpace` wraps a multidimensional universe ``Ω = Ω_1 × … × Ω_d``
(with ``s_i`` bits per attribute) and exposes the operations of
Sections 3.3 and 3.4:

* ``z_address(x)`` — the ordinal of the tuple on the Z-curve,
* ``tetris_address(x, j)`` — ``T_j(x) = extract(Z(x), j) ∘ reduce(Z(x), j)``,
  written as the paper's formula: the sort attribute's value followed
  by the Z-address of the rest.

The sweep itself runs on :meth:`ZSpace.tetris`, the
:class:`~repro.core.curves.Curve` whose bit schedule puts attribute
``j`` first.  :meth:`ZSpace.tetris_address` never consults that
schedule, which makes it the independent oracle
:class:`~repro.invariants.SliceChecker` holds every slice key to.
"""

from __future__ import annotations

from typing import Sequence

from .curves import Curve


class ZSpace:
    """A d-dimensional universe addressed by the Z-curve and Tetris orders."""

    def __init__(self, bit_lengths: Sequence[int]) -> None:
        self.bit_lengths = tuple(bit_lengths)
        self.dims = len(self.bit_lengths)
        if self.dims < 1:
            raise ValueError("a ZSpace needs at least one dimension")
        if any(s < 1 for s in self.bit_lengths):
            raise ValueError("every dimension needs at least one bit")
        self.z = Curve.z_curve(self.bit_lengths)
        self.total_bits = self.z.total_bits
        self.address_max = self.z.address_max
        self.coord_max = self.z.coord_max
        self._tetris: dict[tuple[int, ...], Curve] = {}
        self._reduced: dict[tuple[int, ...], Curve | None] = {}

    # ------------------------------------------------------------------
    # curves
    # ------------------------------------------------------------------
    def tetris(self, sort_dims: "int | Sequence[int]") -> Curve:
        """The curve realizing the Tetris order for the sort attribute(s).

        A single dimension gives the paper's ``T_j``; a sequence gives the
        composite order — lexicographic in the listed attributes with
        Z-order of the remaining ones as tiebreak (multi-column ORDER BY).
        """
        key = (sort_dims,) if isinstance(sort_dims, int) else tuple(sort_dims)
        if key not in self._tetris:
            self._tetris[key] = Curve.tetris_curve(self.bit_lengths, key)
        return self._tetris[key]

    def reduced(self, drop_dims: "int | Sequence[int]") -> Curve | None:
        """The Z-curve of the dimensions left once ``drop_dims`` are
        removed; ``None`` when none is left (the empty rest, whose
        address has zero bits)."""
        key = (drop_dims,) if isinstance(drop_dims, int) else tuple(drop_dims)
        if key not in self._reduced:
            lengths = [s for dim, s in enumerate(self.bit_lengths) if dim not in key]
            self._reduced[key] = Curve.z_curve(lengths) if lengths else None
        return self._reduced[key]

    # ------------------------------------------------------------------
    # addresses
    # ------------------------------------------------------------------
    def z_address(self, point: Sequence[int]) -> int:
        """``Z(x)``: the ordinal of ``point`` on the Z-curve."""
        return self.z.encode(point)

    def tetris_address(
        self, point: Sequence[int], sort_dims: "int | Sequence[int]"
    ) -> int:
        """``T_j(x) = x_{j1} ∘ x_{j2} ∘ … ∘ Z_rest(x)``, from the point.

        The sort attributes' values are concatenated in order, then the
        Z-address of the remaining attributes (:meth:`reduced`) follows;
        a single ``j`` is the paper's ``extract(Z(x), j) ∘ reduce(Z(x), j)``.
        """
        key = (sort_dims,) if isinstance(sort_dims, int) else tuple(sort_dims)
        address = 0
        for dim in key:
            value = point[dim]
            if not 0 <= value <= self.coord_max[dim]:
                raise ValueError(
                    f"coordinate {value} of dimension {dim} exceeds "
                    f"{self.bit_lengths[dim]} bits"
                )
            address = address << self.bit_lengths[dim] | value
        rest = self.reduced(key)
        if rest is None:
            return address
        others = [value for dim, value in enumerate(point) if dim not in key]
        return address << rest.total_bits | rest.encode(others)

    def universe_box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The full base space ``[λ_1, ν_1] × … × [λ_d, ν_d]``."""
        lo = tuple(0 for _ in range(self.dims))
        return lo, self.coord_max

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZSpace(bits={self.bit_lengths})"
