"""Bit-interleaving curves over multidimensional integer spaces.

The UB-Tree addresses a ``d``-dimensional point by interleaving the bits
of its coordinates (the Z-address / Lebesgue curve, Section 3.3 of the
paper).  The Tetris order for sort attribute ``j`` is the *same set of
bits in a different order*: attribute ``j``'s bits first, followed by the
``(d-1)``-dimensional Z-address of the remaining attributes
(``T_j(x) = extract(Z(x), j) ∘ reduce(Z(x), j)``, Section 3.4).

Both are instances of one concept implemented here: a :class:`Curve` is
defined by a **bit schedule** — an ordered assignment of every output bit
position to one ``(dimension, bit)`` pair, most significant first.  Every
such curve is monotone in each coordinate, which yields two facts this
library leans on:

* the minimum / maximum address inside an axis-aligned box is attained at
  the box's low / high corner, and
* the classic Tropf–Herzog *BIGMIN* algorithm (``next address >= a whose
  point lies in a box``) works unchanged for any schedule.

Supported per-dimension bit lengths may differ (the paper's footnote 1
notes their implementation does the same).
"""

from __future__ import annotations

from typing import Iterator, Sequence

BitSchedule = tuple[tuple[int, int], ...]
"""Ordered ``(dimension, bit_from_msb)`` pairs, most significant output bit first."""


def z_schedule(bit_lengths: Sequence[int]) -> BitSchedule:
    """Round-robin interleaving: the Z / Lebesgue curve schedule.

    At interleave level ``r`` every dimension that still has bits left
    contributes its ``r``-th most significant bit, dimension order
    ``0, 1, ..., d-1``.  For equal bit lengths this is exactly the
    paper's ``Z(x)`` formula.
    """
    schedule: list[tuple[int, int]] = []
    for level in range(max(bit_lengths, default=0)):
        for dim, length in enumerate(bit_lengths):
            if level < length:
                schedule.append((dim, level))
    return tuple(schedule)


def tetris_schedule(
    bit_lengths: Sequence[int], sort_dims: "int | Sequence[int]"
) -> BitSchedule:
    """The Tetris order ``T_j``: sort dimension(s) first, Z of the rest.

    Concatenating all of attribute ``j``'s bits before the interleaved
    remainder makes the address order identical to the total order on
    attribute ``j`` (with Z-order of the other attributes as tiebreak).

    Passing several dimensions produces the *composite* Tetris order —
    lexicographic in ``(A_{j1}, A_{j2}, …)`` — by hoisting each listed
    attribute's bits in turn.  This covers multi-column ``ORDER BY``
    clauses over index attributes (e.g. Q3's grouping key prefix).
    """
    if isinstance(sort_dims, int):
        sort_dims = (sort_dims,)
    sort_dims = tuple(sort_dims)
    if not sort_dims:
        raise ValueError("at least one sort dimension required")
    if len(set(sort_dims)) != len(sort_dims):
        raise ValueError("duplicate sort dimensions")
    for dim in sort_dims:
        if not 0 <= dim < len(bit_lengths):
            raise ValueError(f"sort dimension {dim} out of range")
    head = tuple(
        (dim, bit) for dim in sort_dims for bit in range(bit_lengths[dim])
    )
    leading = set(sort_dims)
    tail: list[tuple[int, int]] = []
    for level in range(max(bit_lengths, default=0)):
        for dim, length in enumerate(bit_lengths):
            if dim not in leading and level < length:
                tail.append((dim, level))
    return head + tuple(tail)


class _EncodeTables:
    """Byte-chunked lookup tables turning coordinates into addresses fast."""

    def __init__(self, bit_lengths: Sequence[int], positions: list[list[int]]) -> None:
        # positions[dim][bit_from_msb] = output bit weight exponent
        self.tables: list[list[list[int]]] = []
        for dim, length in enumerate(bit_lengths):
            chunk_count = (length + 7) // 8
            dim_tables: list[list[int]] = []
            for chunk in range(chunk_count):
                table = [0] * 256
                for value in range(256):
                    acc = 0
                    for bit_in_chunk in range(8):
                        if not value >> bit_in_chunk & 1:
                            continue
                        bit_from_lsb = chunk * 8 + bit_in_chunk
                        if bit_from_lsb >= length:
                            continue
                        bit_from_msb = length - 1 - bit_from_lsb
                        acc |= 1 << positions[dim][bit_from_msb]
                    table[value] = acc
                dim_tables.append(table)
            self.tables.append(dim_tables)

    def encode_dim(self, dim: int, value: int) -> int:
        acc = 0
        for table in self.tables[dim]:
            acc |= table[value & 0xFF]
            value >>= 8
        return acc


class _DecodeTables:
    """Byte-chunked lookup tables turning addresses back into coordinates."""

    def __init__(self, total_bits: int, owner: list[tuple[int, int]]) -> None:
        # owner[output_bit_from_lsb] = (dim, coordinate bit weight exponent)
        self.dims = 1 + max((dim for dim, _ in owner), default=0)
        self.chunks: list[list[list[int]]] = []
        chunk_count = (total_bits + 7) // 8
        for chunk in range(chunk_count):
            table = [[0] * self.dims for _ in range(256)]
            for value in range(256):
                for bit_in_chunk in range(8):
                    if not value >> bit_in_chunk & 1:
                        continue
                    out_bit = chunk * 8 + bit_in_chunk
                    if out_bit >= total_bits:
                        continue
                    dim, weight = owner[out_bit]
                    table[value][dim] |= 1 << weight
            self.chunks.append(table)

    def decode(self, address: int) -> list[int]:
        coords = [0] * self.dims
        for table in self.chunks:
            row = table[address & 0xFF]
            for dim in range(self.dims):
                coords[dim] |= row[dim]
            address >>= 8
        return coords


class Curve:
    """A monotone bit-interleaving curve with range-search primitives."""

    def __init__(self, bit_lengths: Sequence[int], schedule: BitSchedule) -> None:
        self.bit_lengths = tuple(bit_lengths)
        self.dims = len(self.bit_lengths)
        self.schedule = schedule
        self.total_bits = sum(self.bit_lengths)
        if self.dims == 0:
            raise ValueError("curve needs at least one dimension")
        if len(schedule) != self.total_bits:
            raise ValueError("schedule must assign every coordinate bit exactly once")
        seen = set(schedule)
        if len(seen) != len(schedule):
            raise ValueError("schedule assigns a coordinate bit twice")
        for dim, bit in schedule:
            if not 0 <= dim < self.dims or not 0 <= bit < self.bit_lengths[dim]:
                raise ValueError(f"schedule entry ({dim}, {bit}) out of range")

        #: maximum coordinate value per dimension
        self.coord_max = tuple((1 << s) - 1 for s in self.bit_lengths)
        #: maximum address value
        self.address_max = (1 << self.total_bits) - 1

        # positions[dim][bit_from_msb] = output weight exponent (from lsb)
        positions: list[list[int]] = [[0] * s for s in self.bit_lengths]
        # owner[output_bit_from_lsb] = (dim, coordinate weight exponent)
        owner: list[tuple[int, int]] = [(0, 0)] * self.total_bits
        for out_from_msb, (dim, bit_from_msb) in enumerate(schedule):
            weight = self.total_bits - 1 - out_from_msb
            positions[dim][bit_from_msb] = weight
            owner[weight] = (dim, self.bit_lengths[dim] - 1 - bit_from_msb)
        self._positions = positions
        self._encode_tables = _EncodeTables(self.bit_lengths, positions)
        self._decode_tables = _DecodeTables(self.total_bits, owner)
        # suffix_masks[k][dim]: coordinate bits freed by the k least
        # significant schedule positions — the hi corner of an aligned
        # 2^k block is its lo corner OR'ed with these masks
        masks = [[0] * self.dims]
        for dim, weight in owner:  # owner is indexed lsb-first
            row = list(masks[-1])
            row[dim] |= 1 << weight
            masks.append(row)
        self._suffix_masks = masks

    # ------------------------------------------------------------------
    # classmethods for the two schedules used by the paper
    # ------------------------------------------------------------------
    @classmethod
    def z_curve(cls, bit_lengths: Sequence[int]) -> "Curve":
        return cls(bit_lengths, z_schedule(bit_lengths))

    @classmethod
    def tetris_curve(
        cls, bit_lengths: Sequence[int], sort_dims: "int | Sequence[int]"
    ) -> "Curve":
        return cls(bit_lengths, tetris_schedule(bit_lengths, sort_dims))

    # ------------------------------------------------------------------
    # address <-> point
    # ------------------------------------------------------------------
    def encode(self, point: Sequence[int]) -> int:
        """Address of ``point`` on this curve."""
        if len(point) != self.dims:
            raise ValueError(f"expected {self.dims} coordinates, got {len(point)}")
        for dim, value in enumerate(point):
            if not 0 <= value <= self.coord_max[dim]:
                raise ValueError(
                    f"coordinate {value} of dimension {dim} exceeds "
                    f"{self.bit_lengths[dim]} bits"
                )
        return self.encode_unchecked(point)

    def encode_unchecked(self, point: Sequence[int]) -> int:
        """Address of ``point``, skipping coordinate validation.

        For internal hot paths (bulk load, region keying, batch kernels)
        whose inputs come from storage or from box clamping and are
        therefore valid by construction.  Out-of-range coordinates yield
        garbage addresses; validation belongs at API boundaries
        (:meth:`encode`).
        """
        address = 0
        encode_dim = self._encode_tables.encode_dim
        for dim, value in enumerate(point):
            address |= encode_dim(dim, value)
        return address

    def decode(self, address: int) -> tuple[int, ...]:
        """Point whose address is ``address``."""
        if not 0 <= address <= self.address_max:
            raise ValueError(f"address {address} out of range")
        return tuple(self._decode_tables.decode(address))

    # ------------------------------------------------------------------
    # BIGMIN (Tropf & Herzog), generalized to any schedule
    # ------------------------------------------------------------------
    def next_in_box(
        self, address: int, lo: Sequence[int], hi: Sequence[int]
    ) -> int | None:
        """Smallest address ``>= address`` whose point lies in ``[lo, hi]``.

        Returns ``None`` when no point of the box has an address that
        large.  This is the *getNextZ* / BIGMIN primitive behind both the
        UB-Tree range query and the Tetris event-point computation.
        """
        if address > self.address_max:
            return None
        address = max(address, 0)
        min_work = list(lo)
        max_work = list(hi)
        for dim in range(self.dims):
            if min_work[dim] > max_work[dim]:
                raise ValueError("empty box: lo exceeds hi")
        # the last candidate's point; only the one that survives to the
        # return is ever encoded (every later candidate is smaller)
        bigmin: list[int] | None = None
        lengths = self.bit_lengths
        for out_from_msb, (dim, bit_from_msb) in enumerate(self.schedule):
            weight = 1 << (lengths[dim] - 1 - bit_from_msb)
            abit = address >> (self.total_bits - 1 - out_from_msb) & 1
            minbit = 1 if min_work[dim] & weight else 0
            maxbit = 1 if max_work[dim] & weight else 0
            if abit == 0:
                if minbit == 0 and maxbit == 0:
                    continue
                if minbit == 0 and maxbit == 1:
                    # candidate: enter the 1-subtree at its minimal point
                    bigmin = min_work.copy()
                    bigmin[dim] = _load_min(min_work[dim], weight)
                    # follow address into the 0-subtree
                    max_work[dim] = _load_max(max_work[dim], weight)
                    continue
                # minbit == 1: the whole remaining box is above address
                return self.encode(min_work)
            # abit == 1
            if maxbit == 0:
                # the whole remaining box is below address
                return None if bigmin is None else self.encode(bigmin)
            if minbit == 0:
                min_work[dim] = _load_min(min_work[dim], weight)
            # minbit == maxbit == 1: follow address
        return address  # address itself decodes to a point inside the box

    # ------------------------------------------------------------------
    # interval decomposition
    # ------------------------------------------------------------------
    def interval_blocks(self, first: int, last: int) -> Iterator[tuple[int, int]]:
        """Maximal aligned blocks tiling ``[first, last]`` as ``(position, k)``.

        Block ``(position, k)`` covers addresses ``position`` through
        ``position + 2^k - 1`` with ``position ≡ 0 (mod 2^k)``.  An
        arbitrary address interval decomposes into at most
        ``2 * total_bits`` such blocks.  Pure bit arithmetic — no address
        decoding — so batch kernels can enumerate the blocks cheaply and
        decode all origins in one vectorized pass.
        """
        if first > last:
            return
        first = max(first, 0)
        last = min(last, self.address_max)
        position = first
        while position <= last:
            # largest aligned block starting at `position` that fits in the
            # interval: bounded by the alignment of `position` and by `last`
            size = position & -position if position else 1 << self.total_bits
            while size > 1 and position + size - 1 > last:
                size >>= 1
            yield position, size.bit_length() - 1
            position += size

    def interval_boxes(
        self, first: int, last: int
    ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Decompose the address interval ``[first, last]`` into aligned boxes.

        Any maximal aligned block of addresses (``a .. a + 2^k - 1`` with
        ``a ≡ 0 mod 2^k``) fixes the top schedule bits and frees the bottom
        ``k``, so it is an axis-aligned hyper-rectangle.  A Z-region —
        an arbitrary Z-interval — therefore decomposes into at most
        ``2 * total_bits`` boxes.  Used for region/query-space intersection
        tests and for skipping retrieved regions in Tetris order.
        """
        for position, k in self.interval_blocks(first, last):
            lo = self.decode(position)
            masks = self._suffix_masks[k]
            hi = tuple(value | mask for value, mask in zip(lo, masks))
            yield lo, hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Curve(bits={self.bit_lengths}, total={self.total_bits})"


def _load_min(value: int, weight: int) -> int:
    """Set the ``weight`` bit, clear all less significant bits."""
    return (value | weight) & ~(weight - 1)


def _load_max(value: int, weight: int) -> int:
    """Clear the ``weight`` bit, set all less significant bits."""
    return (value & ~weight) | (weight - 1)
