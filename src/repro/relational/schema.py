"""Schemas and order-preserving attribute encoders.

A UB-Tree dimension needs every attribute value as an unsigned ``s``-bit
integer whose numeric order matches the attribute's order ``<_i``
(Section 3).  Encoders perform that mapping:

* :class:`IntEncoder` — bounded integers, offset to zero.
* :class:`DateEncoder` — calendar dates as day numbers.
* :class:`StringEncoder` — strings by a packed prefix of their bytes;
  order-preserving but *lossy*, which is fine for clustering because
  residual predicates are always re-checked on the stored tuple.

Rows are plain tuples aligned with the schema's attribute order; a
:class:`Schema` resolves names to positions and extracts index points.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Iterator, Sequence


class Encoder:
    """Order-preserving map from attribute values to ``bits``-wide ints."""

    bits: int
    #: no two in-domain values share a code, i.e. ``decode(encode(v)) == v``:
    #: what lets an encoded box test stand in for the value-level range
    #: (:func:`repro.planner.executor.build_access_path`'s drop rule)
    lossless: bool = True

    def encode(self, value: Any) -> int:
        raise NotImplementedError

    def decode(self, code: int) -> Any:
        raise NotImplementedError

    @property
    def code_max(self) -> int:
        return (1 << self.bits) - 1


class IntEncoder(Encoder):
    """Integers in ``[lo, hi]`` shifted to ``[0, hi - lo]``."""

    def __init__(self, lo: int, hi: int) -> None:
        if lo > hi:
            raise ValueError("empty integer domain")
        self.lo = lo
        self.hi = hi
        self.bits = max(1, (hi - lo).bit_length())

    def encode(self, value: Any) -> int:
        if not self.lo <= value <= self.hi:
            raise ValueError(f"{value} outside [{self.lo}, {self.hi}]")
        return int(value) - self.lo

    def decode(self, code: int) -> int:
        return code + self.lo


class DateEncoder(Encoder):
    """Dates in ``[lo, hi]`` as day offsets from ``lo``."""

    def __init__(self, lo: _dt.date, hi: _dt.date) -> None:
        if lo > hi:
            raise ValueError("empty date domain")
        self.lo = lo
        self.hi = hi
        self.bits = max(1, (hi - lo).days.bit_length())

    def encode(self, value: Any) -> int:
        if isinstance(value, _dt.date):
            days = (value - self.lo).days
        else:
            days = int(value)  # already a day offset
        if not 0 <= days <= (self.hi - self.lo).days:
            raise ValueError(f"{value} outside [{self.lo}, {self.hi}]")
        return days

    def decode(self, code: int) -> _dt.date:
        return self.lo + _dt.timedelta(days=code)


class StringEncoder(Encoder):
    """Strings by an order-preserving packed prefix (lossy)."""

    lossless = False

    def __init__(self, prefix_chars: int = 4) -> None:
        if prefix_chars < 1:
            raise ValueError("prefix must cover at least one character")
        self.prefix_chars = prefix_chars
        self.bits = 8 * prefix_chars

    def encode(self, value: Any) -> int:
        data = str(value).encode("utf-8")[: self.prefix_chars]
        data = data.ljust(self.prefix_chars, b"\x00")
        return int.from_bytes(data, "big")

    def decode(self, code: int) -> str:
        data = code.to_bytes(self.prefix_chars, "big").rstrip(b"\x00")
        return data.decode("utf-8", errors="replace")


class Attribute:
    """A named, encodable column."""

    def __init__(self, name: str, encoder: Encoder) -> None:
        self.name = name
        self.encoder = encoder

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Attribute({self.name}, {self.encoder.bits} bits)"


class Schema:
    """An ordered list of attributes; rows are tuples in this order."""

    def __init__(self, attributes: Sequence[Attribute]) -> None:
        self.attributes = list(attributes)
        self._index = {attr.name: pos for pos, attr in enumerate(self.attributes)}
        if len(self._index) != len(self.attributes):
            raise ValueError("duplicate attribute names")

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def position(self, name: str) -> int:
        return self._index[name]

    def attribute(self, name: str) -> Attribute:
        return self.attributes[self._index[name]]

    def encode_point(self, row: Sequence[Any], dims: Sequence[str]) -> tuple[int, ...]:
        """The index point of a row for the given index attributes."""
        return tuple(
            self.attribute(name).encoder.encode(row[self._index[name]])
            for name in dims
        )

    def bit_lengths(self, dims: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.attribute(name).encoder.bits for name in dims)
