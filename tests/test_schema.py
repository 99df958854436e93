"""Tests for schemas and the order-preserving encoders."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.schema import (
    Attribute,
    DateEncoder,
    IntEncoder,
    Schema,
    StringEncoder,
)

from oracles import DecimalEncoder


class TestIntEncoder:
    def test_roundtrip_and_bits(self):
        encoder = IntEncoder(10, 73)
        assert encoder.bits == 6
        assert encoder.code_max == 63
        for value in (10, 42, 73):
            assert encoder.decode(encoder.encode(value)) == value

    def test_zero_width_domain(self):
        encoder = IntEncoder(5, 5)
        assert encoder.bits == 1
        assert encoder.encode(5) == 0

    def test_rejects_out_of_domain(self):
        encoder = IntEncoder(0, 10)
        with pytest.raises(ValueError):
            encoder.encode(11)
        with pytest.raises(ValueError):
            encoder.encode(-1)

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            IntEncoder(5, 4)

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000), st.data())
    @settings(max_examples=200, deadline=None)
    def test_order_preserving(self, a, b, data):
        lo, hi = min(a, b), max(a, b)
        encoder = IntEncoder(lo, hi)
        x = data.draw(st.integers(lo, hi))
        y = data.draw(st.integers(lo, hi))
        assert (encoder.encode(x) < encoder.encode(y)) == (x < y)


class TestDateEncoder:
    def test_roundtrip(self):
        encoder = DateEncoder(dt.date(1992, 1, 1), dt.date(1998, 12, 31))
        day = dt.date(1995, 6, 17)
        assert encoder.decode(encoder.encode(day)) == day

    def test_accepts_day_offsets(self):
        encoder = DateEncoder(dt.date(2000, 1, 1), dt.date(2000, 12, 31))
        assert encoder.encode(5) == 5

    def test_order_preserving(self):
        encoder = DateEncoder(dt.date(1992, 1, 1), dt.date(1998, 12, 31))
        a = encoder.encode(dt.date(1994, 3, 1))
        b = encoder.encode(dt.date(1994, 3, 2))
        assert a < b

    def test_rejects_out_of_domain(self):
        encoder = DateEncoder(dt.date(2000, 1, 1), dt.date(2000, 12, 31))
        with pytest.raises(ValueError):
            encoder.encode(dt.date(1999, 12, 31))

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            DateEncoder(dt.date(2001, 1, 1), dt.date(2000, 1, 1))


class TestDecimalEncoder:
    def test_roundtrip(self):
        encoder = DecimalEncoder(0.0, 0.10, scale=2)
        assert encoder.decode(encoder.encode(0.07)) == pytest.approx(0.07)
        assert encoder.bits == 4  # 10 steps

    def test_order_preserving(self):
        encoder = DecimalEncoder(-1.0, 1.0, scale=2)
        assert encoder.encode(-0.5) < encoder.encode(0.25)

    def test_rejects_out_of_domain(self):
        encoder = DecimalEncoder(0.0, 1.0)
        with pytest.raises(ValueError):
            encoder.encode(1.5)


class TestStringEncoder:
    def test_prefix_roundtrip(self):
        encoder = StringEncoder(prefix_chars=4)
        assert encoder.decode(encoder.encode("FOOD")) == "FOOD"
        assert not encoder.lossless

    def test_lossy_beyond_prefix(self):
        encoder = StringEncoder(prefix_chars=2)
        assert encoder.encode("BUILDING") == encoder.encode("BUSTED"[:2] + "ILDING") or True
        assert encoder.decode(encoder.encode("BUILDING")) == "BU"

    def test_order_preserving_on_prefix(self):
        encoder = StringEncoder(prefix_chars=3)
        words = ["APPLE", "BANANA", "CHERRY", "DATE"]
        codes = [encoder.encode(word) for word in words]
        assert codes == sorted(codes)

    def test_short_strings_padded(self):
        encoder = StringEncoder(prefix_chars=4)
        assert encoder.encode("A") < encoder.encode("AA")

    def test_rejects_zero_prefix(self):
        with pytest.raises(ValueError):
            StringEncoder(prefix_chars=0)

    @given(st.text(max_size=10), st.text(max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_never_inverts_order(self, a, b):
        """Lossy, but codes never *invert* the string order."""
        encoder = StringEncoder(prefix_chars=4)
        ea, eb = encoder.encode(a), encoder.encode(b)
        a_bytes, b_bytes = a.encode()[:4], b.encode()[:4]
        if a_bytes < b_bytes:
            assert ea <= eb


class TestLosslessFlag:
    """``lossless`` is what lets the access-path builder drop a residual
    predicate: it must mean "``decode(encode(v)) == v`` for every
    in-domain ``v``", pinned here per encoder."""

    def test_int_every_value_roundtrips(self):
        encoder = IntEncoder(-7, 300)
        assert encoder.lossless
        for value in range(-7, 301):
            assert encoder.decode(encoder.encode(value)) == value

    def test_date_every_value_roundtrips(self):
        lo = dt.date(1999, 12, 1)
        encoder = DateEncoder(lo, dt.date(2001, 3, 1))
        assert encoder.lossless
        for offset in range((dt.date(2001, 3, 1) - lo).days + 1):
            day = lo + dt.timedelta(days=offset)
            assert encoder.decode(encoder.encode(day)) == day

    def test_decimal_has_a_witness(self):
        encoder = DecimalEncoder(0.0, 0.10, scale=2)
        assert not encoder.lossless
        # 0.054 > 0.05, yet it lands in 0.05's code: an encoded box with
        # upper bound 0.05 lets it through
        assert encoder.encode(0.054) == encoder.encode(0.05)
        assert encoder.decode(encoder.encode(0.054)) != 0.054

    def test_string_has_a_witness(self):
        encoder = StringEncoder(prefix_chars=4)
        assert not encoder.lossless
        assert encoder.encode("BUILDING") == encoder.encode("BUILT")
        assert encoder.decode(encoder.encode("BUILDING")) != "BUILDING"


class TestSchema:
    def make(self):
        return Schema(
            [
                Attribute("id", IntEncoder(0, 100)),
                Attribute("when", DateEncoder(dt.date(2000, 1, 1), dt.date(2001, 1, 1))),
                Attribute("name", StringEncoder(2)),
            ]
        )

    def test_positions_and_access(self):
        schema = self.make()
        assert len(schema) == 3
        assert schema.position("when") == 1
        row = (7, dt.date(2000, 5, 5), "ZZ")
        assert row[schema.position("name")] == "ZZ"
        assert schema.encode_point(row, ("name", "id"))[1] == 7

    def test_encode_point(self):
        schema = self.make()
        row = (7, dt.date(2000, 1, 3), "AB")
        point = schema.encode_point(row, ("id", "when"))
        assert point == (7, 2)

    def test_bit_lengths(self):
        schema = self.make()
        assert schema.bit_lengths(("id", "name")) == (7, 16)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Schema([Attribute("x", IntEncoder(0, 1)), Attribute("x", IntEncoder(0, 1))])

    def test_iteration(self):
        schema = self.make()
        assert [attr.name for attr in schema] == ["id", "when", "name"]
