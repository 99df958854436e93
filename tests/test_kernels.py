"""Backend parity for the batch-kernel layer.

The NumPy backend and the pure-Python fallback must be observationally
identical: same addresses, same selected indices, same sort
permutations, and — end to end — the same ``TetrisScan`` tuple stream,
page access order and simulated-clock stats.  These tests randomize
curves (both schedules, including >64-bit addresses) and assert the backends agree with each other *and*
with the scalar reference (`Curve.encode`, ``contains_point``).

All parity tests are skipped when NumPy is absent; the rest of the file
(registry behavior, fallback semantics) runs everywhere.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core import Curve, QueryBox, UBTree, ZSpace, tetris_sorted
from repro.core.query_space import (
    ComparisonSpace,
    IntersectionSpace,
    IntervalUnionSpace,
    PredicateSpace,
)
from repro.core.region import RegionDirectory
from repro.storage import BufferPool, SimulatedDisk

HAVE_NUMPY = "numpy" in kernels.available_backends()
needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="NumPy backend not importable"
)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_python_always_available(self):
        assert "python" in kernels.available_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError), kernels.use_backend("fortran"):
            pass

    def test_use_backend_restores(self):
        before = kernels.get_backend()
        with kernels.use_backend("python") as backend:
            assert backend.name == "python"
            assert kernels.get_backend() is backend
        assert kernels.get_backend() is before

    def test_auto_prefers_numpy_when_present(self):
        with kernels.use_backend("auto") as backend:
            expected = "numpy" if HAVE_NUMPY else "python"
            assert backend.name == expected

    @needs_numpy
    def test_set_backend_by_name(self):
        for name in ("numpy", "python"):
            with kernels.use_backend(name) as backend:
                assert backend.name == name
                assert kernels.get_backend() is backend


# ----------------------------------------------------------------------
# randomized curve/point cases
# ----------------------------------------------------------------------
@st.composite
def curve_cases(draw):
    dims = draw(st.integers(1, 5))
    # up to 17 bits/dim × 5 dims exercises >64-bit addresses
    bits = tuple(draw(st.integers(1, 17)) for _ in range(dims))
    seed = draw(st.integers(0, 10_000))
    schedule = draw(st.sampled_from(["z", "tetris"]))
    if schedule == "z":
        curve = Curve.z_curve(bits)
    else:
        order = draw(st.permutations(range(dims)))
        prefix = draw(st.integers(1, dims))
        curve = Curve.tetris_curve(bits, tuple(order[:prefix]))
    count = draw(st.integers(0, 120))
    return curve, bits, seed, count


def random_points(bits, seed, count):
    rng = random.Random(seed)
    return [
        tuple(rng.randrange(1 << b) for b in bits) for _ in range(count)
    ]


def random_box(bits, seed):
    rng = random.Random(seed ^ 0x5EED)
    lo, hi = [], []
    for b in bits:
        a, c = rng.randrange(1 << b), rng.randrange(1 << b)
        lo.append(min(a, c))
        hi.append(max(a, c))
    return tuple(lo), tuple(hi)


@needs_numpy
@given(curve_cases())
@settings(max_examples=80, deadline=None)
def test_encode_decode_parity(case):
    curve, bits, seed, count = case
    points = random_points(bits, seed, count)
    with kernels.use_backend("python"):
        py_addresses = kernels.get_backend().encode_batch(curve, points)
    with kernels.use_backend("numpy"):
        np_addresses = kernels.get_backend().encode_batch(curve, points)
    assert np_addresses == py_addresses
    assert py_addresses == [curve.encode(p) for p in points]
    with kernels.use_backend("python"):
        py_points = kernels.get_backend().decode_batch(curve, py_addresses)
    with kernels.use_backend("numpy"):
        np_points = kernels.get_backend().decode_batch(curve, py_addresses)
    assert np_points == py_points
    assert py_points == points


@needs_numpy
@given(curve_cases())
@settings(max_examples=80, deadline=None)
def test_filter_and_argsort_parity(case):
    curve, bits, seed, count = case
    points = random_points(bits, seed, count)
    lo, hi = random_box(bits, seed)
    box = QueryBox(lo, hi)
    with kernels.use_backend("python"):
        py_box = kernels.get_backend().filter_box_batch(lo, hi, points)
        py_space = kernels.get_backend().filter_space_batch(box, points)
    with kernels.use_backend("numpy"):
        np_box = kernels.get_backend().filter_box_batch(lo, hi, points)
        np_space = kernels.get_backend().filter_space_batch(box, points)
    assert np_box == py_box == np_space == py_space
    assert py_box == [
        i for i, p in enumerate(points) if box.contains_point(p)
    ]
    keys = [curve.encode(p) for p in points]
    with kernels.use_backend("python"):
        py_perm = kernels.get_backend().argsort_keys(keys)
    with kernels.use_backend("numpy"):
        np_perm = kernels.get_backend().argsort_keys(keys)
    assert np_perm == py_perm
    expected = sorted(range(len(keys)), key=keys.__getitem__)
    # both must be *stable*: equal keys keep arrival order
    assert [keys[i] for i in py_perm] == [keys[i] for i in expected]


@needs_numpy
@given(curve_cases())
@settings(max_examples=60, deadline=None)
def test_page_entries_parity(case):
    curve, bits, seed, count = case
    points = random_points(bits, seed, count)
    lo, hi = random_box(bits, seed)
    box = QueryBox(lo, hi)
    base = seed % 977
    with kernels.use_backend("python"):
        py_result = kernels.get_backend().page_entries(curve, box, points, base)
    with kernels.use_backend("numpy"):
        np_result = kernels.get_backend().page_entries(curve, box, points, base)
    py_count, py_selected, py_entries = py_result
    np_count, np_selected, np_entries = np_result
    assert (np_count, list(np_selected), [list(e) for e in np_entries]) == (
        py_count,
        list(py_selected),
        [list(e) for e in py_entries],
    )
    assert [e[0] for e in py_entries] == sorted(e[0] for e in py_entries)


@needs_numpy
@given(curve_cases())
@settings(max_examples=40, deadline=None)
def test_region_min_keys_parity(case):
    sort_curve, bits, seed, _ = case
    z_curve = Curve.z_curve(bits)
    rng = random.Random(seed)
    top = (1 << z_curve.total_bits) - 1
    intervals = []
    for _ in range(rng.randrange(1, 12)):
        a, b = rng.randint(0, top), rng.randint(0, top)
        intervals.append((min(a, b), max(a, b)))
    lo, hi = random_box(bits, seed)
    with kernels.use_backend("python"):
        py_keys = kernels.get_backend().region_min_keys(z_curve, sort_curve, intervals, lo, hi)
    with kernels.use_backend("numpy"):
        np_keys = kernels.get_backend().region_min_keys(z_curve, sort_curve, intervals, lo, hi)
    assert np_keys == py_keys
    assert sort_curve.dims == len(bits)


@needs_numpy
@given(
    st.sampled_from([(1,), (3, 2), (7, 9, 4), (16, 16, 16, 16), (13, 17, 11, 9, 14)]),
    st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_vectorized_block_decomposition_matches_interval_blocks(bits, seed):
    """The directory's lockstep decomposition is ``interval_blocks`` of
    every region — up to and including 64-bit addresses, where a naive
    ``last + 1`` would wrap."""
    import numpy as np

    from repro.kernels.numpy_backend import _aligned_blocks

    curve = Curve.z_curve(bits)
    rng = random.Random(seed)
    top = curve.address_max
    cuts = sorted({rng.randint(0, top) for _ in range(rng.randrange(12))} - {top})
    firsts = [0] + [cut + 1 for cut in cuts]
    lasts = cuts + [top]
    positions, levels, counts = _aligned_blocks(
        np.asarray(firsts, dtype=np.uint64),
        np.asarray(lasts, dtype=np.uint64),
        curve.total_bits,
    )
    expected = [list(curve.interval_blocks(a, b)) for a, b in zip(firsts, lasts)]
    assert counts.tolist() == [len(blocks) for blocks in expected]
    assert list(zip(positions.tolist(), levels.tolist())) == [
        block for blocks in expected for block in blocks
    ]


@needs_numpy
@given(curve_cases(), st.sampled_from(["box", "triangle", "opaque"]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_schedule_regions_parity(case, kind, covered):
    """Random tilings of the address space stand in for a tree: the
    kernel sees a directory, never the pages behind it."""
    sort_curve, bits, seed, count = case
    z_curve = Curve.z_curve(bits)
    rng = random.Random(seed)
    cuts = sorted(
        {rng.randrange(z_curve.address_max + 1) for _ in range(count // 4)}
        - {z_curve.address_max}
    )
    directory = RegionDirectory(
        z_curve, cuts + [z_curve.address_max], list(range(len(cuts) + 1)), epoch=0
    )
    lo, hi = random_box(bits, seed)
    space = QueryBox(lo, hi)
    dims = len(bits)
    if kind == "triangle" and dims > 1:
        left, right = rng.sample(range(dims), 2)
        op = rng.choice(["<", "<=", ">", ">="])
        space = IntersectionSpace([space, ComparisonSpace(dims, left, op, right)])
    elif kind == "opaque":
        space = IntersectionSpace(
            [space, PredicateSpace(dims, lambda p: sum(p) % 3 != 0)]
        )
    pushdown = None
    if covered:
        dim = rng.randrange(dims)
        ends = sorted(rng.sample(range(1 << bits[dim]), min(4, 1 << bits[dim])))
        pushdown = IntervalUnionSpace(
            z_curve.coord_max, dim, tuple(zip(ends[::2], ends[1::2]))
        )
    # resume points: the whole scan, and a box address further along
    starts = [z_curve.encode(lo)]
    later = z_curve.next_in_box(rng.randrange(z_curve.address_max + 1), lo, hi)
    if later is not None:
        starts.append(later)
    for start in starts:
        for keyed_by in (sort_curve, None):
            with kernels.use_backend("python"):
                py_rows = kernels.get_backend().schedule_regions(
                    directory, start, lo, hi, space, pushdown, keyed_by
                )
            with kernels.use_backend("numpy"):
                np_rows = kernels.get_backend().schedule_regions(
                    directory, start, lo, hi, space, pushdown, keyed_by
                )
            assert np_rows == py_rows
            assert py_rows[0][0] == start
            assert all(row[6] is None for row in py_rows if not row[5])


# ----------------------------------------------------------------------
# end-to-end TetrisScan parity
# ----------------------------------------------------------------------
def build_tree(bits=(4, 4, 4), count=300, seed=9, page_capacity=4, bulk=False):
    disk = SimulatedDisk()
    tree = UBTree(BufferPool(disk, 256), ZSpace(bits), page_capacity=page_capacity)
    rng = random.Random(seed)
    rows = [
        (tuple(rng.randrange(1 << b) for b in bits), index)
        for index in range(count)
    ]
    if bulk:
        tree.bulk_load(rows)
    else:
        for point, payload in rows:
            tree.insert(point, payload)
    return tree


def run_scan(backend, space, sort_dim, strategy, **tree_kw):
    """One scan on a fresh tree: identical disk clocks per backend."""
    tree = build_tree(**tree_kw)
    with kernels.use_backend(backend):
        scan = tetris_sorted(tree, space, sort_dim, strategy=strategy)
        stream = list(scan)
    return stream, scan.page_access_order, vars(scan.stats)


SPACES = {
    "box": QueryBox((1, 0, 2), (14, 15, 13)),
    "comparison": IntersectionSpace(
        [QueryBox((0, 0, 0), (15, 15, 15)), ComparisonSpace(3, 0, "<", 2)]
    ),
    "opaque": PredicateSpace(3, lambda p: (p[0] + p[1] + p[2]) % 3 != 0),
}


@needs_numpy
@pytest.mark.parametrize("space_name", sorted(SPACES))
@pytest.mark.parametrize("strategy", ["eager", "sweep"])
def test_scan_identical_across_backends(space_name, strategy):
    space = SPACES[space_name]
    runs = {
        backend: run_scan(backend, space, 1, strategy)
        for backend in ("python", "numpy")
    }
    assert runs["python"] == runs["numpy"]
    stream, pages, stats = runs["python"]
    assert stats["tuples_output"] == len(stream)
    assert len(pages) == len(set(pages))


@needs_numpy
@pytest.mark.parametrize("strategy", ["eager", "sweep"])
def test_composite_identical_across_backends(strategy):
    space = QueryBox((0, 1, 0), (15, 14, 15))
    runs = {
        backend: run_scan(backend, space, (2, 0), strategy, bulk=True)
        for backend in ("python", "numpy")
    }
    assert runs["python"] == runs["numpy"]
    keys = [(p[2], p[0]) for p, _ in runs["python"][0]]
    assert keys == sorted(keys)


@needs_numpy
def test_strategies_agree_per_backend():
    space = SPACES["box"]
    for backend in ("python", "numpy"):
        eager = run_scan(backend, space, 0, "eager")
        sweep = run_scan(backend, space, 0, "sweep")
        # streams and page order are provably equal; CPU-side stats like
        # regions_examined legitimately differ between strategies
        assert eager[0] == sweep[0]
        assert eager[1] == sweep[1]


@needs_numpy
def test_scan_identical_after_mutations():
    """The columnar page cache must observe record mutations (version)."""
    space = QueryBox((0, 0, 0), (15, 15, 15))
    streams = {}
    for backend in ("python", "numpy"):
        tree = build_tree(count=150, seed=21)
        with kernels.use_backend(backend):
            first = list(tetris_sorted(tree, space, 0))
            for index in range(40):
                tree.insert((index % 16, (index * 7) % 16, (index * 3) % 16), 1000 + index)
            second = list(tetris_sorted(tree, space, 0))
        assert len(second) == len(first) + 40
        streams[backend] = (first, second)
    assert streams["python"] == streams["numpy"]


# ----------------------------------------------------------------------
# whole-slab kernels: run formation, block scans, run merging
# ----------------------------------------------------------------------
def make_record_page(curve, points, page_id=0):
    """A synthetic Z-region page: records are (z_address, (point, payload))."""
    from repro.storage.page import Page

    page = Page(page_id, max(len(points), 1))
    entries = sorted(
        (curve.encode(point), (point, index))
        for index, point in enumerate(points)
    )
    page.extend(entries)
    return page


@needs_numpy
@given(curve_cases())
@settings(max_examples=40, deadline=None)
def test_scan_page_run_and_buffer_parity(case):
    curve, bits, seed, count = case
    points = random_points(bits, seed, count)
    lo, hi = random_box(bits, seed)
    box = QueryBox(lo, hi)
    base = seed % 977
    page = make_record_page(curve, points)
    with kernels.use_backend("python"):
        reference = kernels.get_backend().scan_page(curve, box, page, base)
    streams = {}
    for backend in ("python", "numpy"):
        with kernels.use_backend(backend):
            qualifying, selected, run = kernels.get_backend().scan_page_run(
                curve, box, page, base
            )
            assert qualifying == reference[0]
            assert list(selected) == list(reference[1])
            buffer = kernels.get_backend().make_run_buffer()
            if qualifying:
                buffer.push(run)
            assert len(buffer) == qualifying
            streams[backend] = buffer.cut(None)
            assert len(buffer) == 0
            assert not buffer.has_key_below(None)
    assert streams["numpy"] == streams["python"]
    # cut(None) drains in (key, order) order — scan_page's entry order —
    # and hands the keys it ordered by back next to the arrival orders
    assert streams["python"] == (
        [entry[0] for entry in reference[2]],
        [entry[1] for entry in reference[2]],
    )


@needs_numpy
@given(curve_cases())
@settings(max_examples=30, deadline=None)
def test_run_buffer_interleaved_barrier_cuts_parity(case):
    curve, bits, seed, count = case
    points = random_points(bits, seed, count)
    lo, hi = random_box(bits, seed)
    box = QueryBox(lo, hi)
    rng = random.Random(seed ^ 0xBA55)
    top = 1 << curve.total_bits
    pages = [
        make_record_page(curve, points[start : start + 7], page_id=start)
        for start in range(0, len(points), 7)
    ]
    barriers = [rng.randrange(top) for _ in pages]
    streams = {}
    for backend in ("python", "numpy"):
        with kernels.use_backend(backend):
            buffer = kernels.get_backend().make_run_buffer()
            stream, base = [], 0
            for page, barrier in zip(pages, barriers):
                qualifying, _, run = kernels.get_backend().scan_page_run(
                    curve, box, page, base
                )
                base += len(page.records)
                if qualifying:
                    buffer.push(run)
                if buffer.has_key_below(barrier):
                    keys, orders = buffer.cut(barrier)
                    assert keys == sorted(keys) and keys[-1] < barrier
                    stream.extend(zip(keys, orders))
                    assert not buffer.has_key_below(barrier)
            stream.extend(zip(*buffer.cut(None)))
            streams[backend] = stream
    assert streams["numpy"] == streams["python"]
    # every qualifying arrival is emitted exactly once
    with kernels.use_backend("python"):
        expected = sum(
            kernels.get_backend().scan_page(curve, box, page, 0)[0] for page in pages
        )
    assert len(streams["python"]) == expected
    assert len(set(streams["python"])) == expected


@needs_numpy
@given(curve_cases())
@settings(max_examples=30, deadline=None)
def test_scan_block_parity(case):
    curve, bits, seed, count = case
    points = random_points(bits, seed, count)
    lo, hi = random_box(bits, seed)
    box = QueryBox(lo, hi)
    pages = [
        make_record_page(curve, points[start : start + 7], page_id=start)
        for start in range(0, len(points), 7)
    ]
    results = {}
    for backend in ("python", "numpy"):
        with kernels.use_backend(backend):
            selected_per_page, emit_order = kernels.get_backend().scan_block(curve, box, pages)
            results[backend] = (
                [list(sel) for sel in selected_per_page],
                list(emit_order),
            )
    assert results["numpy"] == results["python"]
    selected_per_page, emit_order = results["python"]
    # reference: concatenate qualifying entries in arrival order, then
    # stable-sort by key — the per-tuple sweep's emission order
    arrivals = []
    for page, selected in zip(pages, selected_per_page):
        with kernels.use_backend("python"):
            reference = kernels.get_backend().scan_page(curve, box, page, 0)
        assert selected == list(reference[1])
        arrivals.extend(page.records[index][0] for index in selected)
    expected = sorted(range(len(arrivals)), key=arrivals.__getitem__)
    assert emit_order == expected


@needs_numpy
def test_merge_sorted_keys_parity():
    rng = random.Random(4711)
    for _ in range(30):
        size_a, size_b = rng.randrange(0, 25), rng.randrange(0, 25)
        keys_a = sorted(rng.randrange(50) for _ in range(size_a))
        keys_b = sorted(rng.randrange(50) for _ in range(size_b))
        with kernels.use_backend("python"):
            py_merge = kernels.get_backend().merge_sorted_keys(keys_a, keys_b)
        with kernels.use_backend("numpy"):
            np_merge = kernels.get_backend().merge_sorted_keys(keys_a, keys_b)
        assert np_merge == py_merge
        combined = keys_a + keys_b
        # exactly the permutation a stable sort of the concatenation
        # would produce: sorted keys, ties won by keys_a / earlier index
        expected = sorted(range(len(combined)), key=combined.__getitem__)
        assert py_merge == expected


@needs_numpy
def test_merge_sorted_keys_non_integer_keys_fall_back():
    keys_a = [("a", 1), ("c", 0)]
    keys_b = [("b", 2), ("c", 1)]
    with kernels.use_backend("python"):
        py_merge = kernels.get_backend().merge_sorted_keys(keys_a, keys_b)
    with kernels.use_backend("numpy"):
        np_merge = kernels.get_backend().merge_sorted_keys(keys_a, keys_b)
    assert np_merge == py_merge == [0, 2, 1, 3]


@needs_numpy
def test_run_buffer_accepts_foreign_runs():
    """A NumPy buffer degrades gracefully when fed a pure-Python run."""
    curve = Curve.z_curve((4, 4))
    box = QueryBox((0, 0), (15, 15))
    points = [(i % 16, (i * 7) % 16) for i in range(40)]
    page = make_record_page(curve, points)
    with kernels.use_backend("python"):
        _, _, pure_run = kernels.get_backend().scan_page_run(curve, box, page, 0)
        expected = kernels.get_backend().make_run_buffer()
        expected.push(pure_run)
        expected_stream = expected.cut(None)
    with kernels.use_backend("numpy"):
        buffer = kernels.get_backend().make_run_buffer()
    buffer.push(pure_run)
    assert len(buffer) == len(points)
    assert buffer.cut(None) == expected_stream
