import math
import re

import numpy as np
import pytest

from salmetric.core import DatasetIndex, FixationSet, GridMap, ImageRecord, vectorize
from salmetric.errors import EmptyFixationsError, InvalidSigmaError
from salmetric.gaussian import (
    GaussianParams,
    _correlate_axis,
    _kernel_1d,
    aggregate_density,
    blur,
    center_bias_map,
    density_from_fixations,
    evaluate_field,
    gaussian_kernel,
    global_gaussian_map,
    kernel_radius,
    sigma_for_dataset,
)


def dense_blur_oracle(values, sigma):
    """Brute-force 2D convolution with the truncated kernel, zero padding."""
    kernel = gaussian_kernel(sigma).values
    r = kernel_radius(sigma)
    h, w = values.shape
    padded = np.pad(values, r)
    out = np.zeros_like(values)
    for y in range(h):
        for x in range(w):
            window = padded[y : y + 2 * r + 1, x : x + 2 * r + 1]
            out[y, x] = np.sum(window * kernel)
    return out


def tap_loop_correlate(values, kernel, axis):
    """Reference for the blur's bits: a loop over the kernel taps, each adding
    its weighted, shifted copy of the zero-padded map to every output pixel."""
    n = values.shape[axis]
    r = kernel.size // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (r, r)
    padded = np.pad(values, pad)
    out = np.zeros_like(values)
    index = [slice(None), slice(None)]
    for k in range(kernel.size):
        index[axis] = slice(k, k + n)
        out += kernel[k] * padded[tuple(index)]
    return out


def test_kernel_center_and_offset_values():
    k = gaussian_kernel(1.0)
    r = kernel_radius(1.0)
    assert k.values.shape == (2 * r + 1, 2 * r + 1)
    assert abs(k.values[r, r] - 1.0 / (2.0 * math.pi)) < 1e-12
    assert abs(k.values[r, r + 1] - math.exp(-0.5) / (2.0 * math.pi)) < 1e-12


def test_kernel_symmetry():
    for sigma in (0.7, 1.0, 2.5):
        k = gaussian_kernel(sigma).values
        assert np.array_equal(k, k.T)
        assert np.array_equal(k, k[::-1, ::-1])


def test_kernel_size_rule():
    assert gaussian_kernel(2.0).values.shape == (13, 13)
    assert gaussian_kernel(1.5).values.shape == (11, 11)


def test_invalid_sigma():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidSigmaError):
            gaussian_kernel(bad)
        with pytest.raises(InvalidSigmaError):
            blur(GridMap(np.ones((4, 4))), bad)


def test_blur_delta_equals_kernel():
    delta = np.zeros((31, 31))
    delta[15, 15] = 1.0
    out = blur(GridMap(delta), 2.0).values
    k = gaussian_kernel(2.0).values
    assert np.allclose(out[9:22, 9:22], k, atol=1e-12)


def test_blur_zero_map():
    out = blur(GridMap(np.zeros((5, 8))), 3.0)
    assert np.array_equal(out.values, np.zeros((5, 8)))


def test_blur_preserves_mass_for_interior_input():
    rng = np.random.default_rng(2)
    values = np.zeros((16, 16))
    values[6:10, 6:10] = rng.random((4, 4))
    out = blur(GridMap(values), 1.0)
    kernel_mass = gaussian_kernel(1.0).values.sum()
    assert abs(out.values.sum() - values.sum() * kernel_mass) < 1e-9


# 20.0 cuts the kernel at 60 pixels, far past the 16-pixel frame
@pytest.mark.parametrize("sigma", [1.0, 2.0, 4.0, 20.0])
def test_blur_matches_dense_oracle(sigma):
    rng = np.random.default_rng(int(sigma * 10))
    for _ in range(5):
        values = rng.random((16, 16))
        fast = blur(GridMap(values), sigma).values
        slow = dense_blur_oracle(values, sigma)
        assert np.max(np.abs(fast - slow)) < 1e-9


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
def test_correlate_axis_matches_tap_loop_bit_for_bit(family):
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
            fast = _correlate_axis(values, kernel, axis)
            assert fast.tobytes() == tap_loop_correlate(values, kernel, axis).tobytes()


def test_density_matches_tap_loop_bit_for_bit():
    rng = np.random.default_rng(30)
    fixations = FixationSet.from_linear(rng.choice(640 * 480, size=30, replace=False), (640, 480))
    out = tap_loop_correlate(vectorize(fixations).values, _kernel_1d(19.0, 640), axis=1)
    out = tap_loop_correlate(out, _kernel_1d(19.0, 480), axis=0)
    expected = out / out.sum()
    assert density_from_fixations(fixations, 19.0).values.tobytes() == expected.tobytes()


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


def test_aggregate_density_single_image_and_dedup():
    rec = ImageRecord("a", FixationSet([(3, 3), (10, 4)], (16, 16)))
    ds = DatasetIndex([rec], sigma=2.0)
    assert np.allclose(
        aggregate_density(ds).values,
        density_from_fixations(rec.fixations, 2.0).values,
        atol=1e-12,
    )
    twin = DatasetIndex(
        [rec, ImageRecord("b", FixationSet([(3, 3), (10, 4)], (16, 16)))], sigma=2.0
    )
    assert np.allclose(
        aggregate_density(twin).values,
        density_from_fixations(rec.fixations, 2.0).values,
        atol=1e-12,
    )


def test_aggregate_density_centrally_biased(bias_dataset):
    d = aggregate_density(bias_dataset, sigma=8.0).values
    y, x = np.unravel_index(np.argmax(d), d.shape)
    # argmax inside the central quarter box of the 64x64 frame
    assert 24 <= x < 40 and 24 <= y < 40


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


def test_global_gaussian_rejects_tiny_frames():
    with pytest.raises(ValueError):
        global_gaussian_map((1, 5))


def test_center_bias_argmax_and_mass():
    d = center_bias_map((21, 21))
    assert abs(d.values.sum() - 1.0) < 1e-9
    assert np.unravel_index(np.argmax(d.values), d.values.shape) == (10, 10)


def test_center_bias_corner_ratio_matches_formula():
    d = center_bias_map((100, 100), sigma_fraction=0.25).values
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


def test_center_bias_fraction_validation():
    with pytest.raises(ValueError):
        center_bias_map((10, 10), sigma_fraction=0.0)
    with pytest.raises(ValueError):
        center_bias_map((10, 10), sigma_fraction=1.5)


def test_gaussian_params_validation():
    with pytest.raises(InvalidSigmaError):
        GaussianParams(sigma_x=0.0, sigma_y=1.0, center=(0.0, 0.0))
    with pytest.raises(InvalidSigmaError):
        GaussianParams(sigma_x=1.0, sigma_y=-2.0, center=(0.0, 0.0))
    params = GaussianParams(sigma_x=2.0, sigma_y=3.0, center=(1.25, 0.5))
    field = evaluate_field((4, 3), params)
    assert field.shape == (3, 4)
    assert field.max() <= 1.0


def test_dataset_sigma_defaults():
    assert sigma_for_dataset("Toronto") == 20.0
    assert sigma_for_dataset("MIT1003") == 24.0
    assert sigma_for_dataset("CAT2000") == 41.0
    assert sigma_for_dataset("SALICON") == 19.0
    assert sigma_for_dataset("whatever") == 19.0
