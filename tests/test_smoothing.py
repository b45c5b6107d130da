import tracemalloc
import warnings

import numpy as np
import pytest

from salmetric.core import BAND, GridMap
from salmetric.gaussian import global_gaussian_map
from salmetric.smoothing import tie_break_global, tie_break_noise, tie_broken


def order_violations(before, after):
    """Count strictly ordered pixel pairs whose order flipped or collapsed.

    Grouping by the original value makes the exhaustive pairwise check
    O(n log n): every pixel of a lower level must stay strictly below every
    pixel of any higher level."""
    b = before.ravel()
    a = after.ravel()
    violations = 0
    levels = np.unique(b)
    group_max = np.array([a[b == lv].max() for lv in levels])
    group_min = np.array([a[b == lv].min() for lv in levels])
    for i in range(len(levels) - 1):
        if group_max[i] >= group_min[i + 1 :].min():
            violations += 1
    return violations


def quantized_map(rng, shape=(64, 64), levels=(0.0, 0.5, 1.0)):
    return GridMap(rng.choice(levels, size=shape))


def test_global_breaks_all_ties():
    rng = np.random.default_rng(1)
    pred = quantized_map(rng)
    out = tie_break_global(pred)
    assert np.unique(out.values).size == out.values.size


def test_noise_breaks_all_ties():
    rng = np.random.default_rng(2)
    pred = quantized_map(rng)
    out = tie_break_noise(pred, seed=4)
    assert np.unique(out.values).size == out.values.size


def test_global_preserves_argsort_of_distinct_maps():
    rng = np.random.default_rng(3)
    values = rng.permutation(48 * 48).astype(float).reshape(48, 48)
    pred = GridMap(values)
    out = tie_break_global(pred)
    assert np.array_equal(np.argsort(out.values.ravel()), np.argsort(values.ravel()))


def test_constant_map_adopts_global_field_order():
    pred = GridMap(np.full((16, 24), 0.7))
    out = tie_break_global(pred)
    g = global_gaussian_map((24, 16)).values
    assert np.array_equal(np.argsort(out.values.ravel()), np.argsort(g.ravel()))


def test_order_preservation_exhaustive_global():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pred = quantized_map(rng)
        out = tie_break_global(pred)
        assert order_violations(pred.values, out.values) == 0


def test_order_preservation_exhaustive_noise():
    rng = np.random.default_rng(6)
    for trial in range(10):
        pred = quantized_map(rng)
        out = tie_break_noise(pred, seed=trial)
        assert order_violations(pred.values, out.values) == 0


def test_order_preservation_with_tiny_gaps():
    # gaps near float resolution must survive jitter too
    base = np.array([[0.0, 1e-9], [2e-9, 1.0]])
    out = tie_break_global(GridMap(base))
    assert order_violations(base, out.values) == 0


def test_global_is_deterministic():
    rng = np.random.default_rng(7)
    pred = quantized_map(rng)
    a = tie_break_global(pred).values
    b = tie_break_global(pred).values
    assert np.array_equal(a, b)


def test_noise_is_seed_deterministic():
    rng = np.random.default_rng(8)
    pred = quantized_map(rng)
    assert np.array_equal(tie_break_noise(pred, seed=3).values, tie_break_noise(pred, seed=3).values)
    assert not np.array_equal(tie_break_noise(pred, seed=3).values, tie_break_noise(pred, seed=4).values)


def test_a_negative_noise_seed_is_named_in_one_line():
    pred = quantized_map(np.random.default_rng(5), shape=(6, 5))
    for jitter in (lambda: tie_break_noise(pred, -1), lambda: tie_broken(pred, "noise", -1)):
        with pytest.raises(ValueError, match=r"^the noise seed must be a non-negative integer, got -1$"):
            jitter()
    # the global field draws nothing, so its seed is not read
    assert tie_broken(pred, "global", -1) == tie_broken(pred, "global", 0)


@pytest.mark.parametrize("mode", ["off", "bogus"])
def test_a_mode_other_than_global_or_noise_is_refused(mode):
    pred = quantized_map(np.random.default_rng(5), shape=(6, 5))
    with pytest.raises(ValueError, match=rf"^unknown tie_break mode '{mode}'; expected 'global' or 'noise'$"):
        tie_broken(pred, mode)


def test_added_field_spread_bounded_by_half_gap():
    pred = GridMap(np.array([[0.0, 0.5], [1.0, 10.0]]))
    out = tie_break_global(pred)
    added = out.values - pred.values
    # the spread of the addition is half the smallest gap (0.25), so no
    # strictly ordered pair can flip
    assert added.max() - added.min() <= 0.25 + 1e-15
    assert added.min() > 0.0


@pytest.mark.parametrize("mode", ["global", "noise"])
def test_a_jitter_just_past_the_float_limit_raises(mode):
    """A map whose maximum sits one step inside the float range, with a gap
    of 4 steps below it, jitters by up to 2 steps: past the limit at the
    field's largest values. Every value of the map and of ε·field is finite,
    only their sum is not, and ``tie_broken`` still raises without warning.
    A gap of 1 step jitters by at most half a step and stays finite, and so
    does the negated map, as both fields are non-negative."""
    top = np.nextafter(np.finfo(np.float64).max, 0.0)
    step = np.finfo(np.float64).max - top
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gap, sign, raises in ((4 * step, 1.0, True), (step, 1.0, False),
                                  (4 * step, -1.0, False)):
            values = np.full((12, 12), top)
            values[0, 0] = top - gap
            pred = GridMap(sign * values)
            if raises:
                with pytest.raises(ValueError, match="^map values must be finite$"):
                    tie_broken(pred, mode, 3)
            else:
                assert np.isfinite(tie_broken(pred, mode, 3).whole().values).all()


def test_a_global_tie_break_keeps_no_field_frame():
    """The global field is kept as its axis terms, not as a frame: once a
    map at a frame no other test uses is tie-broken, built whole and read a
    band at a time, and the results are dropped, less than 1% of a frame of
    float64 stays allocated. numpy reports its buffers to tracemalloc."""
    w, h = 637, 481
    pred = GridMap(np.random.default_rng(11).choice([0.0, 0.5, 1.0], size=(h, w)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tie_break_global(pred)
        tie_broken(pred, "global").at(slice(0, BAND))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 0.01 * w * h * 8, f"{kept / (w * h * 8):.3f} frames kept"
