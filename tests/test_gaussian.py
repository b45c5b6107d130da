import math
import re
import tracemalloc

import numpy as np
import pytest

import reference
from salmetric.core import BAND, FixationSet
from salmetric.errors import EmptyFixationsError, InvalidSigmaError
from salmetric.gaussian import (
    _add_lines,
    _kernel_1d,
    _row_pass,
    center_bias_map,
    density_from_fixations,
    global_field,
    global_gaussian_map,
    kernel_radius,
    sigma_for_dataset,
    tap_grams,
)


def add_lines_pass(values, kernel, axis):
    """A blur pass along ``axis`` of any map, made as the package makes
    each of its passes: :func:`_add_lines` of the lines that hold mass."""
    lines = np.ascontiguousarray(np.moveaxis(values, axis, 0))
    at = np.flatnonzero(lines.any(axis=1))
    return np.moveaxis(_add_lines(at, lines[at], kernel, lines.shape[0]), 0, axis)


def random_fixations(rng, w, h, most=25):
    return FixationSet.from_linear(
        rng.choice(w * h, size=int(rng.integers(1, min(w * h, most) + 1)), replace=False), (w, h))


def test_kernel_center_and_offset_values():
    k = reference.gaussian_kernel(1.0)
    r = kernel_radius(1.0)
    assert k.shape == (2 * r + 1, 2 * r + 1)
    assert abs(k[r, r] - 1.0 / (2.0 * math.pi)) < 1e-12
    assert abs(k[r, r + 1] - math.exp(-0.5) / (2.0 * math.pi)) < 1e-12


def test_kernel_symmetry():
    for sigma in (0.7, 1.0, 2.5):
        k = reference.gaussian_kernel(sigma)
        assert np.array_equal(k, k.T)
        assert np.array_equal(k, k[::-1, ::-1])


def test_kernel_size_rule():
    assert reference.gaussian_kernel(2.0).shape == (13, 13)
    assert reference.gaussian_kernel(1.5).shape == (11, 11)
    assert kernel_radius(2.0) == 6 and kernel_radius(1.5) == 5


def test_invalid_sigma():
    fixations = FixationSet([(1, 1)], (4, 4))
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidSigmaError):
            density_from_fixations(fixations, bad)
        with pytest.raises(InvalidSigmaError):
            tap_grams(bad, (4, 4), [1], [1])


def test_blur_delta_equals_kernel():
    d = density_from_fixations(FixationSet([(15, 15)], (31, 31)), 2.0).values
    k = reference.gaussian_kernel(2.0)
    assert np.allclose(d[9:22, 9:22], k / k.sum(), atol=1e-12)
    assert d[9:22, 9:22].sum() == pytest.approx(1.0, abs=1e-12)


def test_blur_zero_map():
    for axis, n in ((0, 5), (1, 8)):
        out = add_lines_pass(np.zeros((5, 8)), _kernel_1d(3.0, n), axis)
        assert np.array_equal(out, np.zeros((5, 8)))


def test_blur_preserves_mass_for_interior_input():
    rng = np.random.default_rng(2)
    interior = [y * 16 + x for y in range(6, 10) for x in range(6, 10)]
    fixations = FixationSet.from_linear(rng.choice(interior, size=9, replace=False), (16, 16))
    unnormalised = _add_lines(*_row_pass(fixations, 1.0), _kernel_1d(1.0, 16), 16)
    kernel_mass = reference.gaussian_kernel(1.0).sum()
    assert abs(unnormalised.sum() - len(fixations) * kernel_mass) < 1e-9


# 20.0 cuts the kernel at 60 pixels, far past the 16-pixel frame
@pytest.mark.parametrize("sigma", [1.0, 2.0, 4.0, 20.0])
def test_blur_matches_dense_oracle(sigma):
    rng = np.random.default_rng(int(sigma * 10))
    for _ in range(5):
        fixations = random_fixations(rng, 16, 16, most=40)
        dense = reference.dense_convolution(reference.vectorize(fixations), sigma)
        fast = density_from_fixations(fixations, sigma).values
        assert np.max(np.abs(fast - dense / dense.sum())) < 1e-12


def blur_input(family, rng, shape):
    values = rng.random(shape)
    if family == "sparse":
        values *= rng.random(shape) < 0.05
    elif family == "signed":
        values = (values - 0.5) * (rng.random(shape) < 0.3)
    elif family == "negative_zero":
        values *= rng.random(shape) < 0.1
        values[rng.random(shape) < 0.3] = -0.0
    return values


@pytest.mark.parametrize("family", ["dense", "sparse", "signed", "negative_zero"])
def test_add_lines_matches_tap_loop_bit_for_bit(family):
    """Along either axis, a pass of :func:`_add_lines` over the lines that
    hold mass gives the tap loop's bits; so does :func:`_row_pass` over the
    rows of the map that holds a fixation wherever the values are nonzero."""
    rng = np.random.default_rng(sum(map(ord, family)))
    # frames of 1-40 px; sigma up to 500 is wider than every frame
    cases = [((1, 1), 0.3), ((40, 40), 500.0), ((3, 37), 20.0)]
    for _ in range(50):
        sigma = float(np.exp(rng.uniform(np.log(0.3), np.log(500.0))))
        cases.append((tuple(rng.integers(1, 41, size=2)), sigma))
    for shape, sigma in cases:
        values = blur_input(family, rng, shape)
        for axis in (0, 1):
            kernel = _kernel_1d(sigma, shape[axis])
            fast = add_lines_pass(values, kernel, axis)
            assert fast.tobytes() == reference.tap_loop_correlate(values, kernel, axis).tobytes()
        h, w = shape
        fixations = FixationSet.from_linear(np.flatnonzero(values), (w, h))
        rows, lines = _row_pass(fixations, sigma)
        whole = reference.tap_loop_correlate(reference.vectorize(fixations), _kernel_1d(sigma, w), 1)
        assert np.array_equal(rows, np.unique(fixations.ys))
        assert lines.tobytes() == whole[rows].tobytes()


def test_density_matches_tap_loop_bit_for_bit():
    rng = np.random.default_rng(30)
    fixations = FixationSet.from_linear(rng.choice(640 * 480, size=30, replace=False), (640, 480))
    out = reference.blur(reference.vectorize(fixations), 19.0)
    expected = out / out.sum()
    assert density_from_fixations(fixations, 19.0).values.tobytes() == expected.tobytes()


def test_density_holds_little_more_than_its_output():
    """The blur adds its lines into the unpadded output, and the density
    takes that frame over without a copy: at 640×480 the tracemalloc peak of
    ``density_from_fixations`` is at most 1.1 frames above its output."""
    rng = np.random.default_rng(30)
    fixations = FixationSet.from_linear(rng.choice(640 * 480, size=30, replace=False), (640, 480))
    density_from_fixations(fixations, 19.0)  # process-wide caches fill here
    tracemalloc.start()
    try:
        out = density_from_fixations(fixations, 19.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    frame_bytes = 640 * 480 * 8
    assert peak - out.values.nbytes <= 1.1 * frame_bytes, f"peak {peak / frame_bytes:.2f} frames"


def test_density_blurs_only_the_fixated_rows_bit_for_bit():
    """The first pass runs over the rows that hold fixations; the density is
    still the whole map's blur, normalised, to the bit."""
    rng = np.random.default_rng(37)
    for _ in range(60):
        w, h = (int(v) for v in rng.integers(1, 41, size=2))
        sigma = float(np.exp(rng.uniform(np.log(0.3), np.log(200.0))))
        fixations = random_fixations(rng, w, h)
        whole = reference.blur(reference.vectorize(fixations), sigma)
        expected = whole / whole.sum()
        assert density_from_fixations(fixations, sigma).values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sigma", [0.3, 1.0, 3.0, 19.0, 500.0, 1e6])
def test_tap_grams_give_the_centred_inner_products_of_blurred_maps(sigma):
    """Summed over pairs of fixations, ``Ay·Ax + ū·ū·h·Axc`` is the inner
    product of two centred blurred fixation maps over the peaks' product
    squared, with the rows and columns asked for in any order."""
    rng = np.random.default_rng(int(sigma * 10))
    w, h = 40, 30
    sets = [FixationSet.from_linear(rng.choice(w * h, size=n, replace=False), (w, h))
            for n in (1, 9, 25)]
    ys, xs = np.divmod(np.concatenate([fx.linear for fx in sets]), w)
    rows, cols = rng.permutation(np.unique(ys)), rng.permutation(np.unique(xs))
    ay, ax, axc, u_mean = tap_grams(sigma, (w, h), rows, cols)
    assert ay.shape == (rows.size, rows.size) and ax.shape == axc.shape == (cols.size, cols.size)
    row_of, col_of = np.zeros(h, dtype=int), np.zeros(w, dtype=int)
    row_of[rows], col_of[cols] = np.arange(rows.size), np.arange(cols.size)
    at = [(row_of[fx.linear // w], col_of[fx.linear % w]) for fx in sets]
    peaks = _kernel_1d(sigma, w).max() * _kernel_1d(sigma, h).max()
    maps = np.stack([reference.blur(reference.vectorize(fx), sigma).ravel() for fx in sets]) / peaks
    maps -= maps.mean(axis=1, keepdims=True)
    for (yi, xi), di in zip(at, maps):
        for (yj, xj), dj in zip(at, maps):
            gram = (ay[np.ix_(yi, yj)] * ax[np.ix_(xi, xj)]
                    + np.outer(u_mean[yi], u_mean[yj]) * axc[np.ix_(xi, xj)]).sum()
            # the centred maps lose about (sigma / w)**2 of their digits
            tolerance = 1e-14 * max(1.0, (sigma / w) ** 2)
            assert abs(gram - di @ dj) <= tolerance * np.sqrt((di @ di) * (dj @ dj))


def test_tap_grams_reject_sigma_whose_blur_underflows():
    for sigma in (1e200, 1e308):
        with pytest.raises(InvalidSigmaError, match=re.escape(
                f"sigma {sigma!r} is so wide that the blurred fixation map underflows to 0")):
            tap_grams(sigma, (16, 12), [3], [10])
    with pytest.raises(InvalidSigmaError, match="1e-320"):
        tap_grams(1e-320, (16, 12), [3], [10])


def test_density_rejects_sigma_whose_blur_underflows():
    fixations = FixationSet([(3, 3), (10, 4)], (16, 12))
    # 1e308 also has a three-width radius too large for an integer
    for sigma in (1e200, 1e308):
        with pytest.raises(InvalidSigmaError, match=re.escape(f"sigma {sigma!r}")):
            density_from_fixations(fixations, sigma)


def test_density_single_fixation_peak():
    fs = FixationSet([(8, 8)], frame=(17, 17))
    d = density_from_fixations(fs, 2.0)
    assert abs(d.values.sum() - 1.0) < 1e-9
    assert np.unravel_index(np.argmax(d.values), d.values.shape) == (8, 8)


def test_density_two_corner_symmetry():
    fs = FixationSet([(0, 0), (63, 63)], frame=(64, 64))
    d = density_from_fixations(fs, 3.0).values
    assert abs(d[0, 0] - d[63, 63]) < 1e-9
    # both fixations are local maxima
    assert d[0, 0] > d[0, 1] and d[0, 0] > d[1, 0]
    assert d[63, 63] > d[62, 63] and d[63, 63] > d[63, 62]


def test_density_requires_fixations():
    with pytest.raises(EmptyFixationsError):
        density_from_fixations(FixationSet([], (4, 4)), 1.0)


def test_density_translation_equivariance():
    base = FixationSet([(20, 24)], frame=(48, 48))
    moved = FixationSet([(23, 26)], frame=(48, 48))
    d0 = density_from_fixations(base, 2.0).values
    d1 = density_from_fixations(moved, 2.0).values
    assert np.allclose(d0[24 - 7 : 24 + 8, 20 - 7 : 20 + 8],
                       d1[26 - 7 : 26 + 8, 23 - 7 : 23 + 8], atol=1e-12)


def test_global_gaussian_distinct_values_480x640():
    g = global_gaussian_map((480, 640)).values
    distinct = np.unique(g).size
    assert distinct / g.size >= 1.0 - 1e-6


def test_global_gaussian_range_and_monotone_decay():
    g = global_gaussian_map((33, 21)).values
    assert g.max() == 1.0
    assert g.min() > 0.0
    peak_y, peak_x = np.unravel_index(np.argmax(g), g.shape)
    row = g[peak_y, :]
    assert np.all(np.diff(row[peak_x:]) < 0)
    assert np.all(np.diff(row[: peak_x + 1]) > 0)
    col = g[:, peak_x]
    assert np.all(np.diff(col[peak_y:]) < 0)
    assert np.all(np.diff(col[: peak_y + 1]) > 0)


def _textbook_field(w, h):
    """The global tie-break field as a whole frame, with its axis terms."""
    cx = (w - 1) / 2.0 + math.sqrt(2.0) / 8.0
    cy = (h - 1) / 2.0 + math.sqrt(3.0) / 6.0
    qx = ((np.arange(w, dtype=np.float64) - cx) ** 2) / (2.0 * (w / 4.0) ** 2)
    qy = ((np.arange(h, dtype=np.float64) - cy) ** 2) / (2.0 * (h / 4.0) ** 2)
    field = np.exp(-(qy[:, None] + qx[None, :]))
    return field / field.max(), qx, qy


def test_global_gaussian_map_is_built_once_per_frame():
    """Each call builds the field anew, read-only; the per-frame cache
    holds the axis terms, no frame-sized array."""
    for w, h in ((64, 48), (640, 480), (33, 21)):
        field, qx, qy = _textbook_field(w, h)
        first = global_gaussian_map((w, h))
        assert np.array_equal(first.values, field)
        assert not first.values.flags.writeable
        cached = global_field((w, h))
        assert np.array_equal(cached.qx, qx) and np.array_equal(cached.qy, qy)
        assert all(np.size(part) <= max(w, h) for part in cached)


@pytest.mark.parametrize("frame", [(2, 2), (33, 21), (64, 48), (640, 480), (1024, 768),
                                   (1920, 1080)])
def test_global_field_reads_the_textbook_frame(frame):
    """``GlobalField.at`` equals the whole frame bit for bit: at every band,
    at slices that start or stop mid-row, and at index arrays of sizes that
    leave a SIMD loop every kind of tail, in 1-D and 2-D; so do its extremes."""
    w, h = frame
    field, _, _ = _textbook_field(w, h)
    flat, reader = field.ravel(), global_field(frame)
    assert reader.max() == field.max() and reader.min() == field.min()
    for start in range(0, flat.size, BAND):
        assert np.array_equal(reader.at(slice(start, start + BAND)), flat[start:start + BAND])
    for cut in (slice(1, w - 1), slice(w // 2, 3 * w + 1), slice(w + 1, flat.size - 1),
                slice(flat.size - w - 1, None), slice(None, w + 1), slice(5, 3), slice(-3, None),
                slice(1, None, 3), slice(None, None, -2)):
        assert np.array_equal(reader.at(cut), flat[cut])
    rng = np.random.default_rng(w * h)
    for n in (0, 1, 7, 8, 9, 17, 1000):
        index = rng.integers(0, flat.size, n)
        for shape in ((n,), (1, n), (n, 1)):
            assert np.array_equal(reader.at(index.reshape(shape)), flat[index].reshape(shape))


def test_global_gaussian_rejects_tiny_frames():
    with pytest.raises(ValueError):
        global_gaussian_map((1, 5))


def test_center_bias_argmax_and_mass():
    d = center_bias_map((21, 21))
    assert abs(d.values.sum() - 1.0) < 1e-9
    assert np.unravel_index(np.argmax(d.values), d.values.shape) == (10, 10)


def test_center_bias_corner_ratio_matches_formula():
    d = center_bias_map((100, 100)).values
    center = d[50, 50]
    corner = d[0, 0]
    # direct evaluation of the generating exponential at the two pixels
    sx = sy = 0.25 * 100
    dxc, dyc = 50 - 49.5, 50 - 49.5
    dx0, dy0 = 0 - 49.5, 0 - 49.5
    expected = math.exp(
        (dx0 ** 2 - dxc ** 2) / (2 * sx ** 2) + (dy0 ** 2 - dyc ** 2) / (2 * sy ** 2)
    )
    assert abs(center / corner - expected) < 1e-6
    assert center / corner > 50


def test_dataset_sigma_defaults():
    assert sigma_for_dataset("Toronto") == 20.0
    assert sigma_for_dataset("MIT1003") == 24.0
    assert sigma_for_dataset("CAT2000") == 41.0
    assert sigma_for_dataset("SALICON") == 19.0
    assert sigma_for_dataset("whatever") == 19.0


def test_density_rejects_sigma_whose_kernel_overflows():
    # 2 sigma^2 is 0 at 1e-320; 1 / (2 sigma^2) overflows below 5.273843307431501e-155
    fixations = FixationSet([(3, 3), (10, 4)], (16, 12))
    for sigma in (1e-200, 1e-320, 5.2738433074315e-155):
        with pytest.raises(InvalidSigmaError, match=re.escape(f"sigma {sigma!r}")):
            density_from_fixations(fixations, sigma)


def test_sigma_just_above_the_kernel_bound_gives_point_masses():
    # 20 peaks near the float limit sum past it, so the density rescales them first
    rng = np.random.default_rng(31)
    many = FixationSet.from_linear(rng.choice(16 * 12, size=20, replace=False), (16, 12))
    one = FixationSet([(3, 3)], (16, 12))
    for sigma in (5.273843307431501e-155, 5.3e-155, 1e-154):
        for fixations in (one, many):
            expected = reference.vectorize(fixations) / len(fixations)
            assert np.array_equal(density_from_fixations(fixations, sigma).values, expected)
