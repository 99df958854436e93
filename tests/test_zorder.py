"""Tests for ZSpace: Z addresses and the paper's Tetris address formula."""

from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.curves import Curve
from repro.core.zorder import ZSpace


def test_basic_properties():
    space = ZSpace([3, 4])
    assert space.dims == 2
    assert space.total_bits == 7
    assert space.address_max == 127
    assert space.coord_max == (7, 15)


def test_rejects_empty_and_zero_bit_dimensions():
    with pytest.raises(ValueError):
        ZSpace([])
    with pytest.raises(ValueError):
        ZSpace([3, 0])


def test_z_address_roundtrip():
    space = ZSpace([3, 3])
    for x in range(8):
        for y in range(8):
            assert space.z.decode(space.z_address((x, y))) == (x, y)


def extract(space, z_address, dim):
    """``extract(α, j)``: attribute ``j``'s value packed in a Z-address."""
    return space.z.decode(z_address)[dim]


def reduce(space, z_address, dim):
    """``reduce(α, j)``: the (d-1)-dimensional Z-address of the rest."""
    point = space.z.decode(z_address)
    return space.reduced(dim).encode([v for d, v in enumerate(point) if d != dim])


def test_extract_recovers_attribute():
    space = ZSpace([3, 3, 2])
    point = (5, 2, 3)
    for dim in range(3):
        rest_bits = space.total_bits - space.bit_lengths[dim]
        assert space.tetris_address(point, dim) >> rest_bits == point[dim]


def test_reduce_drops_one_dimension():
    space = ZSpace([3, 3])
    address = space.z_address((5, 2))
    # reducing away dim 0 leaves the 1-d "curve" of dim 1: identity
    assert reduce(space, address, 0) == 2
    assert reduce(space, address, 1) == 5
    assert space.tetris_address((5, 2), 0) & 0b111 == 2


def test_empty_rest_is_the_zero_bit_address():
    """A 1-d space, and a sort over every dimension, leave no rest: the
    Tetris address is the sort values alone."""
    assert ZSpace([4]).reduced(0) is None
    assert ZSpace([4]).tetris_address((11,), 0) == 11
    space = ZSpace([2, 3])
    assert space.reduced((0, 1)) is None
    assert space.tetris_address((2, 5), (0, 1)) == 2 << 3 | 5
    assert space.tetris_address((2, 5), (1, 0)) == 5 << 2 | 2


def test_tetris_address_is_extract_concat_reduce():
    """T_j(x) = extract(Z(x), j) ∘ reduce(Z(x), j)  (Section 3.4)."""
    space = ZSpace([3, 2, 3])
    for point in [(0, 0, 0), (7, 3, 5), (4, 1, 2), (1, 2, 7)]:
        z = space.z_address(point)
        for dim in range(3):
            rest_bits = space.total_bits - space.bit_lengths[dim]
            expected = (extract(space, z, dim) << rest_bits) | reduce(space, z, dim)
            assert space.tetris_address(point, dim) == expected


@pytest.mark.parametrize("bits", [[3, 2, 4], [2, 2], [1, 3, 2], [4, 1, 1, 2], [4]])
def test_tetris_address_equals_the_tetris_curve(bits):
    """The formula and the bit schedule the sweep runs on agree on every
    point, for every ordered tuple of sort dims: single, composite,
    all dims (the empty rest) and the 1-d space."""
    space = ZSpace(bits)
    points = list(product(*(range(1 << b) for b in bits)))
    for count in range(1, len(bits) + 1):
        for sort_dims in permutations(range(len(bits)), count):
            curve = Curve.tetris_curve(bits, sort_dims)
            for point in points:
                assert space.tetris_address(point, sort_dims) == curve.encode(point)


def test_tetris_address_rejects_out_of_range_sort_value():
    space = ZSpace([2, 3])
    with pytest.raises(ValueError):
        space.tetris_address((4, 0), 0)
    with pytest.raises(ValueError):
        space.tetris_address((0, 8), 0)


def test_z_tetris_conversions_are_inverse():
    space = ZSpace([3, 3])
    for z in range(64):
        for dim in range(2):
            t = space.tetris_address(space.z.decode(z), dim)
            assert space.z.encode(space.tetris(dim).decode(t)) == z


def test_tetris_order_sorts_by_attribute():
    space = ZSpace([2, 3])
    points = [(x, y) for x in range(4) for y in range(8)]
    for dim in range(2):
        ordered = sorted(points, key=lambda p: space.tetris_address(p, dim))
        values = [p[dim] for p in ordered]
        assert values == sorted(values)


def test_hyperplane_contains():
    """``H_j(v) = {Z(x) | x_j = v}``: membership by ``extract``."""
    space = ZSpace([3, 3])
    address = space.z_address((5, 2))
    assert extract(space, address, 0) == 5
    assert extract(space, address, 1) == 2
    assert extract(space, address, 0) != 4


def test_universe_box():
    space = ZSpace([2, 4])
    lo, hi = space.universe_box()
    assert lo == (0, 0)
    assert hi == (3, 15)


def test_curves_are_cached():
    space = ZSpace([3, 3])
    assert space.tetris(0) is space.tetris(0)
    assert space.reduced(1) is space.reduced(1)


@st.composite
def spaces_and_points(draw):
    dims = draw(st.integers(2, 4))
    bits = draw(st.lists(st.integers(1, 6), min_size=dims, max_size=dims))
    space = ZSpace(bits)
    point = tuple(draw(st.integers(0, (1 << b) - 1)) for b in bits)
    dim = draw(st.integers(0, dims - 1))
    return space, point, dim


@given(spaces_and_points())
@settings(max_examples=200, deadline=None)
def test_tetris_composition_property(space_point_dim):
    space, point, dim = space_point_dim
    z = space.z_address(point)
    rest_bits = space.total_bits - space.bit_lengths[dim]
    expected = (extract(space, z, dim) << rest_bits) | reduce(space, z, dim)
    assert space.tetris_address(point, dim) == expected


@given(spaces_and_points())
@settings(max_examples=200, deadline=None)
def test_conversion_roundtrip_property(space_point_dim):
    space, point, dim = space_point_dim
    z = space.z_address(point)
    t = space.tetris_address(space.z.decode(z), dim)
    assert space.z.encode(space.tetris(dim).decode(t)) == z
