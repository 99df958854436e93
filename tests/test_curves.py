"""Tests for the bit-schedule curves: encoding, BIGMIN, decomposition."""

import itertools
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.curves import Curve, tetris_schedule, z_schedule


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def test_z_schedule_round_robin_equal_bits():
    assert z_schedule([2, 2]) == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_z_schedule_unequal_bits():
    # the shorter dimension drops out of later levels
    assert z_schedule([1, 3]) == ((0, 0), (1, 0), (1, 1), (1, 2))


def test_tetris_schedule_puts_sort_dim_first():
    assert tetris_schedule([2, 2], 1) == ((1, 0), (1, 1), (0, 0), (0, 1))


def test_tetris_schedule_keeps_z_order_of_rest():
    schedule = tetris_schedule([2, 2, 2], 0)
    assert schedule[:2] == ((0, 0), (0, 1))
    assert schedule[2:] == ((1, 0), (2, 0), (1, 1), (2, 1))


def test_tetris_schedule_rejects_bad_dim():
    with pytest.raises(ValueError):
        tetris_schedule([2, 2], 5)


# ----------------------------------------------------------------------
# construction validation
# ----------------------------------------------------------------------
def test_curve_rejects_incomplete_schedule():
    with pytest.raises(ValueError):
        Curve([2, 2], ((0, 0), (1, 0), (0, 1)))


def test_curve_rejects_duplicate_schedule_entry():
    with pytest.raises(ValueError):
        Curve([2, 2], ((0, 0), (0, 0), (0, 1), (1, 1)))


def test_curve_rejects_out_of_range_entry():
    with pytest.raises(ValueError):
        Curve([2, 2], ((0, 0), (1, 0), (0, 1), (1, 5)))


def test_curve_rejects_zero_dims():
    with pytest.raises(ValueError):
        Curve([], ())


# ----------------------------------------------------------------------
# encode / decode
# ----------------------------------------------------------------------
def test_paper_figure_3_2_z_addresses():
    """The 8x8 example of Figure 3-2: Z(x) interleaves with A2's bit above A1's.

    The paper's formula Z(x) = sum x_{j,i} 2^{i*d + j - 1} puts, for each
    level i, attribute 1's bit *below* attribute 2's.  Our z_schedule lists
    dimension 0 first per level, making dimension 0 the more significant —
    the mirror convention.  The example values check the mirrored pairs.
    """
    curve = Curve.z_curve([3, 3])
    # Lebesgue curve basics
    assert curve.encode((0, 0)) == 0
    assert curve.encode((7, 7)) == 63
    # one step in the least significant dimension toggles the lowest bit
    low_dim = curve.schedule[-1][0]
    point = [0, 0]
    point[low_dim] = 1
    assert curve.encode(point) == 1


def test_encode_decode_roundtrip_exhaustive_small():
    curve = Curve.z_curve([2, 3])
    for x in range(4):
        for y in range(8):
            assert curve.decode(curve.encode((x, y))) == (x, y)


def test_encode_rejects_out_of_domain():
    curve = Curve.z_curve([2, 2])
    with pytest.raises(ValueError):
        curve.encode((4, 0))
    with pytest.raises(ValueError):
        curve.encode((0, -1))


def test_encode_rejects_wrong_arity():
    curve = Curve.z_curve([2, 2])
    with pytest.raises(ValueError):
        curve.encode((1,))


def test_decode_rejects_out_of_range_address():
    curve = Curve.z_curve([2, 2])
    with pytest.raises(ValueError):
        curve.decode(16)
    with pytest.raises(ValueError):
        curve.decode(-1)


def test_z_addresses_are_a_bijection():
    curve = Curve.z_curve([3, 2])
    addresses = {
        curve.encode((x, y)) for x in range(8) for y in range(4)
    }
    assert addresses == set(range(32))


def test_monotone_in_each_coordinate():
    curve = Curve.z_curve([3, 3])
    for x in range(7):
        for y in range(8):
            assert curve.encode((x, y)) < curve.encode((x + 1, y))
            assert curve.encode((y, x)) < curve.encode((y, x + 1))


def test_tetris_curve_orders_by_sort_dim_first():
    curve = Curve.tetris_curve([3, 3], 1)
    addresses = sorted(
        (curve.encode((x, y)), (x, y)) for x in range(8) for y in range(8)
    )
    ys = [point[1] for _, point in addresses]
    assert ys == sorted(ys)


@st.composite
def curve_and_points(draw):
    dims = draw(st.integers(min_value=1, max_value=4))
    bits = draw(
        st.lists(st.integers(min_value=1, max_value=8), min_size=dims, max_size=dims)
    )
    kind = draw(st.sampled_from(["z", "tetris"]))
    if kind == "z":
        curve = Curve.z_curve(bits)
    else:
        curve = Curve.tetris_curve(bits, draw(st.integers(0, dims - 1)))
    point = tuple(
        draw(st.integers(0, (1 << b) - 1)) for b in bits
    )
    return curve, point


@given(curve_and_points())
@settings(max_examples=300, deadline=None)
def test_roundtrip_property(curve_point):
    curve, point = curve_point
    assert curve.decode(curve.encode(point)) == point


@given(curve_and_points(), st.data())
@settings(max_examples=200, deadline=None)
def test_monotonicity_property(curve_point, data):
    curve, point = curve_point
    dim = data.draw(st.integers(0, curve.dims - 1))
    if point[dim] >= curve.coord_max[dim]:
        return
    bumped = list(point)
    bumped[dim] += 1
    assert curve.encode(bumped) > curve.encode(point)


# ----------------------------------------------------------------------
# BIGMIN against brute force
# ----------------------------------------------------------------------
def brute_next_in_box(curve, address, lo, hi):
    best = None
    for candidate in range(address, curve.address_max + 1):
        if all(l <= x <= h for x, l, h in zip(curve.decode(candidate), lo, hi)):
            best = candidate
            break
    return best


def test_next_in_box_exhaustive_2d():
    curve = Curve.z_curve([3, 3])
    lo, hi = (2, 1), (5, 6)
    for address in range(64):
        assert curve.next_in_box(address, lo, hi) == brute_next_in_box(
            curve, address, lo, hi
        )


def test_next_in_box_tetris_curve_exhaustive():
    curve = Curve.tetris_curve([3, 3], 1)
    lo, hi = (1, 2), (6, 5)
    for address in range(64):
        assert curve.next_in_box(address, lo, hi) == brute_next_in_box(
            curve, address, lo, hi
        )


def test_next_in_box_degenerate_box():
    curve = Curve.z_curve([3, 3])
    point = (5, 3)
    address = curve.encode(point)
    assert curve.next_in_box(0, point, point) == address
    assert curve.next_in_box(address, point, point) == address
    assert curve.next_in_box(address + 1, point, point) is None


def test_next_in_box_rejects_inverted_box():
    curve = Curve.z_curve([3, 3])
    with pytest.raises(ValueError):
        curve.next_in_box(0, (5, 0), (2, 7))


def test_next_in_box_beyond_address_space():
    curve = Curve.z_curve([2, 2])
    assert curve.next_in_box(16, (0, 0), (3, 3)) is None


@st.composite
def box_queries(draw):
    dims = draw(st.integers(1, 3))
    bits = draw(st.lists(st.integers(1, 4), min_size=dims, max_size=dims))
    kind = draw(st.sampled_from(["z", "tetris"]))
    if kind == "z":
        curve = Curve.z_curve(bits)
    else:
        curve = Curve.tetris_curve(bits, draw(st.integers(0, dims - 1)))
    lo, hi = [], []
    for b in bits:
        a = draw(st.integers(0, (1 << b) - 1))
        c = draw(st.integers(0, (1 << b) - 1))
        lo.append(min(a, c))
        hi.append(max(a, c))
    address = draw(st.integers(0, curve.address_max))
    return curve, address, tuple(lo), tuple(hi)


@given(box_queries())
@settings(max_examples=300, deadline=None)
def test_next_in_box_matches_brute_force(query):
    curve, address, lo, hi = query
    assert curve.next_in_box(address, lo, hi) == brute_next_in_box(
        curve, address, lo, hi
    )


@contextmanager
def counted_encodes(curve):
    """Every ``curve.encode`` call inside the block lands in the list."""
    calls = []
    encode = curve.encode

    def counting(point):
        calls.append(tuple(point))
        return encode(point)

    curve.encode = counting  # instance attribute shadows the method
    try:
        yield calls
    finally:
        del curve.encode


@given(box_queries())
@settings(max_examples=100, deadline=None)
def test_bigmin_and_litmax_encode_at_most_once(query):
    """Candidates are remembered as points; only the survivor is encoded."""
    curve, address, lo, hi = query
    with counted_encodes(curve) as calls:
        curve.next_in_box(address, lo, hi)
    assert len(calls) <= 1


# ----------------------------------------------------------------------
# interval -> aligned box decomposition
# ----------------------------------------------------------------------
def test_interval_boxes_cover_exactly():
    curve = Curve.z_curve([3, 3])
    first, last = 13, 47
    covered = set()
    for lo, hi in curve.interval_boxes(first, last):
        for point in itertools.product(
            *[range(l, h + 1) for l, h in zip(lo, hi)]
        ):
            covered.add(curve.encode(point))
    assert covered == set(range(first, last + 1))


def test_interval_boxes_full_space_is_single_box():
    curve = Curve.z_curve([2, 2])
    boxes = list(curve.interval_boxes(0, 15))
    assert boxes == [((0, 0), (3, 3))]


def test_interval_boxes_empty_interval():
    curve = Curve.z_curve([2, 2])
    assert list(curve.interval_boxes(5, 4)) == []


def test_interval_boxes_single_address():
    curve = Curve.z_curve([2, 2])
    boxes = list(curve.interval_boxes(6, 6))
    assert len(boxes) == 1
    lo, hi = boxes[0]
    assert lo == hi == curve.decode(6)


def test_interval_boxes_count_bounded():
    curve = Curve.z_curve([4, 4])
    for first, last in [(1, 254), (3, 200), (77, 78)]:
        boxes = list(curve.interval_boxes(first, last))
        assert len(boxes) <= 2 * curve.total_bits


@given(
    st.integers(0, 255),
    st.integers(0, 255),
)
@settings(max_examples=200, deadline=None)
def test_interval_boxes_cover_property(a, b):
    first, last = min(a, b), max(a, b)
    curve = Curve.z_curve([4, 4])
    covered = []
    for lo, hi in curve.interval_boxes(first, last):
        width = 1
        for l, h in zip(lo, hi):
            width *= h - l + 1
        covered.append(width)
        # each box is an aligned address block entirely inside [first,last]
        assert first <= curve.encode(lo) <= curve.encode(hi) <= last
    assert sum(covered) == last - first + 1
