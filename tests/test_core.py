import numpy as np
import pytest

import reference
from salmetric.core import (
    DatasetIndex,
    DensityMap,
    FixationSet,
    GridMap,
    ImageRecord,
    complement_set,
    normalize_to_density,
)
from salmetric.errors import (
    DuplicateIdError,
    EmptyDatasetError,
    EmptyFixationsError,
    FrameMismatchError,
    NegativeValueError,
    ZeroMassError,
)
from salmetric.gaussian import center_bias_map, density_from_fixations, global_gaussian_map
from salmetric.io import read_map, write_map
from salmetric.smoothing import tie_break_global
from salmetric.synth import gen_prediction


def test_gridmap_rejects_bad_values():
    with pytest.raises(ValueError):
        GridMap([[1.0, np.nan]])
    with pytest.raises(ValueError):
        GridMap([[1.0, np.inf]])
    with pytest.raises(ValueError):
        GridMap(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        GridMap([1.0, 2.0])


def test_gridmap_is_immutable():
    g = GridMap([[1.0, 2.0]])
    with pytest.raises(ValueError):
        g.values[0, 0] = 5.0


@pytest.mark.parametrize("build", [GridMap, DensityMap])
def test_the_public_constructors_copy_the_callers_array(build):
    """A caller's float64 array is copied, so writing to it afterwards
    leaves the map as built, and the map stays read-only."""
    arr = np.array([[0.25, 0.25], [0.5, 0.0]])
    built = build(arr)
    arr[0, 0] = 0.75
    assert not np.shares_memory(arr, built.values)
    assert built.values.tolist() == [[0.25, 0.25], [0.5, 0.0]]
    assert arr.flags.writeable and not built.values.flags.writeable
    with pytest.raises(ValueError):
        built.values[0, 0] = 0.0


def test_fixation_set_dedup_and_bounds():
    fs = FixationSet([(1, 0), (0, 1), (1, 0)], frame=(2, 2))
    assert len(fs) == 2
    assert (1, 0) in fs and (0, 1) in fs
    with pytest.raises(ValueError):
        FixationSet([(2, 0)], frame=(2, 2))
    with pytest.raises(ValueError):
        FixationSet([(-1, 0)], frame=(2, 2))


@pytest.mark.parametrize("coord, inside", [
    ((1, 0), False),
    ((0, 1), True),
    ((2, 0), False),   # y * w + x would alias (0, 1)
    ((-2, 2), False),  # likewise
    ((0, 2), False),
    ((-1, 0), False),
    ((0, -1), False),
    ((1, 1), False),
    ((5, 5), False),
])
def test_contains_is_false_outside_the_frame(coord, inside):
    assert (coord in FixationSet([(0, 1)], (2, 2))) is inside


def test_contains_matches_coordinate_list():
    rng = np.random.default_rng(13)
    for size in (0, 1, 7, 20):
        fs = FixationSet.from_linear(rng.choice(20, size=size, replace=False), (5, 4))
        members = set(fs.coords)
        for x in range(-6, 12):
            for y in range(-5, 10):
                assert ((x, y) in fs) is ((x, y) in members)


@pytest.mark.parametrize("coords, frame, message", [
    ([(0, 0)], (0, 0), "frame must be at least 1x1"),
    ([], (3, -1), "frame must be at least 1x1"),
    ([[]], (2, 2), "coords must be"),
    ((1, 2), (2, 2), "coords must be"),
    ([(0, 2)], (2, 2), "coordinate outside the 2x2 frame"),
])
def test_fixation_set_input_checks(coords, frame, message):
    with pytest.raises(ValueError, match=message):
        FixationSet(coords, frame)


@pytest.mark.parametrize("build, bad", [
    (lambda: FixationSet([(0.5, 1.9)], (4, 4)), "0.5"),
    (lambda: FixationSet([(1, 1), (2.0, 1e-300)], (4, 4)), "1e-300"),
    (lambda: FixationSet(np.array([[1.0, np.nan]]), (4, 4)), "nan"),
    (lambda: FixationSet.from_linear([1.7, 2.2], (4, 4)), "1.7"),
    (lambda: FixationSet.from_linear(np.array([3.0, -0.5]), (4, 4)), "-0.5"),
    (lambda: FixationSet.from_linear([np.nan], (4, 4)), "nan"),
], ids=["coords", "coords-tiny", "coords-nan", "linear", "linear-negative", "linear-nan"])
def test_fixation_sets_reject_values_that_are_not_whole_numbers(build, bad):
    with pytest.raises(ValueError, match=f"must be whole numbers, got {bad}$"):
        build()


def test_fixation_sets_take_whole_valued_floats_as_integers():
    assert FixationSet([(1.0, 2.0), (3, 0.0)], (4, 4)).coords == [(3, 0), (1, 2)]
    fs = FixationSet.from_linear(np.array([9.0, 2.0, 9.0]), (4, 4))
    assert fs.linear.dtype == np.int64 and fs.linear.tolist() == [2, 9]
    for empty in (FixationSet([], (4, 4)), FixationSet.from_linear(np.array([]), (4, 4))):
        assert len(empty) == 0 and empty.linear.dtype == np.int64
    for far in (np.inf, 16.0, -1.0):
        with pytest.raises(ValueError, match="outside the 4x4 frame"):
            FixationSet.from_linear([far], (4, 4))


@pytest.mark.parametrize("frame", [(0, 0), (-3, 2)])
def test_from_linear_rejects_frames_under_1x1(frame):
    with pytest.raises(ValueError, match="frame must be at least 1x1"):
        FixationSet.from_linear([], frame)


@pytest.mark.parametrize("size", [0, 1, 2, 15, 2240, 307200])
def test_from_linear_matches_unique_oracle(size):
    w, h = 640, 480
    rng = np.random.default_rng(size)
    drawn = rng.integers(0, w * h, size=size)
    with_repeats = np.concatenate([drawn, drawn[: size // 3]])
    rng.shuffle(with_repeats)
    for arr in (with_repeats, np.sort(with_repeats)):
        for given in (arr.tolist(), arr.astype(np.int32)):
            fs = FixationSet.from_linear(given, (w, h))
            assert fs.linear.dtype == np.int64
            assert np.array_equal(fs.linear, np.unique(arr))
            assert not fs.linear.flags.writeable
    for bad in (-1, w * h):
        with pytest.raises(ValueError, match="linear index outside"):
            FixationSet.from_linear(np.append(drawn, bad), (w, h))


def test_values_at_reads_fortran_ordered_maps():
    v = np.random.default_rng(4).random((5, 7))
    fs = FixationSet([(0, 0), (6, 4), (3, 1), (2, 3)], frame=(7, 5))
    grid = GridMap(np.asfortranarray(v))
    assert not grid.values.flags.c_contiguous
    assert np.array_equal(grid.values_at(fs), v[fs.ys, fs.xs])


def test_vectorize_single_center():
    fs = FixationSet([(1, 1)], frame=(3, 3))
    m = reference.vectorize(fs)
    expected = np.zeros((3, 3))
    expected[1, 1] = 1.0
    assert np.array_equal(m, expected)


def test_vectorize_empty_set():
    m = reference.vectorize(FixationSet([], frame=(2, 2)))
    assert np.array_equal(m, np.zeros((2, 2)))


def test_vectorize_diagonal():
    m = reference.vectorize(FixationSet([(0, 0), (1, 1)], frame=(2, 2)))
    assert np.array_equal(m, [[1, 0], [0, 1]])


def test_vectorize_round_trip_random_binary():
    rng = np.random.default_rng(11)
    for _ in range(50):
        h, w = rng.integers(1, 9, size=2)
        binary = (rng.random((h, w)) < 0.4).astype(float)
        fs = FixationSet.from_linear(np.flatnonzero(binary.ravel()), (int(w), int(h)))
        assert np.array_equal(reference.vectorize(fs), binary)
        assert np.array_equal(np.flatnonzero(reference.vectorize(fs).ravel()), fs.linear)


def test_normalize_to_density_examples():
    d = normalize_to_density(GridMap([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(d.values, 0.25)
    d = normalize_to_density(GridMap([[2.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(d.values, [[1, 0], [0, 0]])
    # elementwise division oracle
    d = normalize_to_density(GridMap([[1.0, 3.0], [0.0, 0.0]]))
    assert np.allclose(d.values, np.array([[1.0, 3.0], [0.0, 0.0]]) / 4.0, atol=1e-12)


def test_normalize_to_density_errors():
    with pytest.raises(ZeroMassError):
        normalize_to_density(GridMap(np.zeros((2, 2))))
    with pytest.raises(NegativeValueError):
        normalize_to_density(GridMap([[1.0, -0.5]]))


def test_normalize_is_idempotent():
    rng = np.random.default_rng(3)
    once = normalize_to_density(GridMap(rng.random((6, 7))))
    assert normalize_to_density(once) is once
    # a plain map holding a density's values is divided by its mass again
    again = normalize_to_density(GridMap(once.values))
    assert type(again) is DensityMap and again is not once
    assert np.allclose(once.values, again.values, rtol=0.0, atol=1e-12)
    assert isinstance(once, GridMap)
    assert not once.values.flags.writeable
    with pytest.raises(ValueError):
        once.values[0, 0] = 1.0


RNG_MAP = np.random.default_rng(8).random((5, 7))


def read_smap(tmp):
    write_map(GridMap(RNG_MAP), tmp / "m.smap")
    return read_map(tmp / "m.smap")


def read_pgm(tmp):
    (tmp / "m.pgm").write_bytes(b"P5 7 5 255\n" + bytes(range(35)))
    return read_map(tmp / "m.pgm")


FRESH_BUILDERS = {
    "smap": read_smap,
    "pgm": read_pgm,
    "density": lambda tmp: density_from_fixations(FixationSet([(1, 2), (6, 4)], (7, 5)), 2.0),
    "normalize": lambda tmp: normalize_to_density(GridMap(RNG_MAP)),
    "center": lambda tmp: center_bias_map((7, 5)),
    "global": lambda tmp: global_gaussian_map((7, 5)),
    "tie-broken": lambda tmp: tie_break_global(GridMap(np.round(RNG_MAP))),
    **{mode: lambda tmp, mode=mode: gen_prediction(
        ImageRecord("a", FixationSet([(1, 2), (6, 4)], (7, 5))), mode, 2.0)
       for mode in ("oracle", "peripheral", "quantized", "uniform")},
}


@pytest.mark.parametrize("build", FRESH_BUILDERS.values(), ids=FRESH_BUILDERS)
def test_builders_hand_over_a_whole_fresh_frame(tmp_path, build):
    """The package's builders give a map the array they made, without the
    public constructors' copy: it is read-only, and not a view into a larger
    buffer that the map would keep alive."""
    built = build(tmp_path)
    base = built.values.base
    assert base is None or base.nbytes == built.values.nbytes
    assert built.values.dtype == np.float64 and built.values.flags.c_contiguous
    assert not built.values.flags.writeable


def test_density_map_validation():
    with pytest.raises(ValueError):
        DensityMap([[0.5, 0.6]])
    with pytest.raises(NegativeValueError):
        DensityMap([[1.5, -0.5]])


def test_complement_examples():
    assert complement_set((2, 2), FixationSet([(0, 0)], (2, 2))) == FixationSet(
        [(1, 0), (0, 1), (1, 1)], (2, 2)
    )
    assert len(complement_set((1, 1), FixationSet([(0, 0)], (1, 1)))) == 0
    assert complement_set((2, 1), FixationSet([], (2, 1))) == FixationSet(
        [(0, 0), (1, 0)], (2, 1)
    )


def test_complement_partition_random_frames():
    rng = np.random.default_rng(5)
    for _ in range(40):
        w, h = rng.integers(1, 17, size=2)
        n = int(rng.integers(0, w * h + 1))
        picks = rng.choice(w * h, size=n, replace=False)
        fs = FixationSet.from_linear(picks, (int(w), int(h)))
        comp = complement_set((int(w), int(h)), fs)
        assert len(fs) + len(comp) == w * h
        assert np.intersect1d(fs.linear, comp.linear).size == 0
        union = np.union1d(fs.linear, comp.linear)
        assert np.array_equal(union, np.arange(w * h))


def test_complement_frame_mismatch():
    with pytest.raises(FrameMismatchError):
        complement_set((3, 3), FixationSet([(0, 0)], (2, 2)))


def _record(i, coords, frame=(4, 4)):
    return ImageRecord(id=f"img{i}", fixations=FixationSet(coords, frame))


def test_dataset_index_pooled_dedup_and_counts():
    ds = DatasetIndex([_record(0, [(0, 0), (1, 1)]), _record(1, [(1, 1), (2, 2)])])
    assert ds.pooled == FixationSet([(0, 0), (1, 1), (2, 2)], (4, 4))
    # (1,1) seen by both images
    counts = dict(zip([tuple(c) for c in ds.pooled.coords], ds.pooled_counts))
    assert counts[(1, 1)] == 2 and counts[(0, 0)] == 1


def test_dataset_index_validation():
    with pytest.raises(EmptyDatasetError):
        DatasetIndex([])
    with pytest.raises(DuplicateIdError):
        DatasetIndex([_record(0, [(0, 0)]), _record(0, [(1, 1)])])
    with pytest.raises(FrameMismatchError):
        DatasetIndex([_record(0, [(0, 0)]), _record(1, [(0, 0)], frame=(5, 5))])
    with pytest.raises(EmptyFixationsError):
        DatasetIndex([_record(0, [])])


def test_dataset_index_lookup():
    ds = DatasetIndex([_record(0, [(0, 0)]), _record(1, [(1, 1)])])
    assert ds.image("img1").id == "img1"
    assert ds.index("img0") == 0
    assert ds.ids == ("img0", "img1")
    with pytest.raises(KeyError):
        ds.image("nope")
