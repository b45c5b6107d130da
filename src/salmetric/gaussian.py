"""Gaussian fields: blur kernels, fixation densities, and bias maps."""

import math

import numpy as np

from .core import DatasetIndex, DensityMap, FixationSet, Frame, GridMap, vectorize
from .errors import EmptyFixationsError, InvalidSigmaError


# Blur widths customarily paired with the common benchmark datasets; anything
# unrecognized falls back to the SALICON-style default.
DATASET_SIGMAS = {
    "toronto": 20.0,
    "mit1003": 24.0,
    "cat2000": 41.0,
    "salicon": 19.0,
}
DEFAULT_SIGMA = 19.0


def sigma_for_dataset(name: str) -> float:
    return DATASET_SIGMAS.get(name.strip().lower(), DEFAULT_SIGMA)


def kernel_radius(sigma: float) -> int:
    """Kernels are cut off at three widths."""
    return int(math.ceil(3.0 * float(sigma)))


def _check_sigma(sigma, reach: float = 1.0):
    """Reject a width whose kernel cannot be computed: one that is not
    positive and finite, or so small that ``reach``, the largest squared tap
    offset of a kernel that width, overflows when divided by 2 sigma^2
    (below about 5.27e-155 for a 1D kernel)."""
    if not (0.0 < float(sigma) < math.inf):
        raise InvalidSigmaError(f"sigma must be positive and finite, got {sigma!r}")
    two_var = 2.0 * float(sigma) * float(sigma)
    if two_var == 0.0 or reach / two_var == math.inf:
        raise InvalidSigmaError(
            f"sigma {float(sigma)!r} is so small that the Gaussian kernel overflows"
        )


def gaussian_kernel(sigma: float) -> GridMap:
    """Square 2D kernel sampled from the isotropic Gaussian of width ``sigma``.

    The center value is exactly 1 / (2 pi sigma^2); the kernel is not
    renormalized after truncation.
    """
    _check_sigma(sigma, reach=2.0)  # the corner taps of a 3x3 kernel
    sigma = float(sigma)
    r = kernel_radius(sigma)
    sq = np.arange(-r, r + 1, dtype=np.float64) ** 2
    peak = 1.0 / (2.0 * math.pi * sigma * sigma)
    return GridMap(peak * np.exp(-(sq[:, None] + sq[None, :]) / (2.0 * sigma * sigma)))


def _kernel_1d(sigma: float, n: int) -> np.ndarray:
    # On an axis of n pixels a tap more than n - 1 away from the centre only
    # ever meets the zero padding and adds +0.0, so it is left out. Any width
    # past n reaches that clip, so it is capped at n first: the radius of a
    # width near the float limit would not fit an integer.
    r = min(kernel_radius(min(sigma, n)), n - 1)
    offsets = np.arange(-r, r + 1, dtype=np.float64)
    return np.exp(-(offsets ** 2) / (2.0 * sigma * sigma)) / (math.sqrt(2.0 * math.pi) * sigma)


def _correlate_axis(values: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    # Zero padding outside the grid. Each line along ``axis`` that holds mass
    # adds its kernel-weighted copy to the lines in reach, lines taken in
    # ascending order. The kernel is exactly symmetric, so every output pixel
    # sums the same products in the same order as a loop over the taps would;
    # a line of zeros would only add +0.0, so skipping it changes no bit. The
    # result is reproducible bit for bit regardless of the caller's threading,
    # and the work follows the lines that hold mass, not the frame.
    lines = np.ascontiguousarray(np.moveaxis(values, axis, 0))
    n, r = lines.shape[0], kernel.size // 2
    out = np.zeros((n + 2 * r, lines.shape[1]))
    for j in np.flatnonzero(lines.any(axis=1)):
        out[j : j + kernel.size] += kernel[:, None] * lines[j]
    return np.ascontiguousarray(np.moveaxis(out[r : r + n], 0, axis))


def blur(grid: GridMap, sigma: float) -> GridMap:
    """Separable Gaussian blur; output has the same dimensions as the input."""
    _check_sigma(sigma)
    sigma = float(sigma)
    out = _correlate_axis(grid.values, _kernel_1d(sigma, grid.width), axis=1)
    out = _correlate_axis(out, _kernel_1d(sigma, grid.height), axis=0)
    return GridMap(out)


def density_from_fixations(fixations: FixationSet, sigma: float) -> DensityMap:
    """Blur the fixation map and renormalize it to total mass 1."""
    if len(fixations) == 0:
        raise EmptyFixationsError("need at least one fixation to build a density")
    values = blur(vectorize(fixations), sigma).values
    with np.errstate(over="ignore"):
        mass = values.sum()
    if mass == math.inf:
        # peaks near the float limit (sigma just above its lower bound) sum
        # past it; scaled to a peak of 1 they give the same point masses
        values = values / values.max()
        mass = values.sum()
    if mass == 0.0:
        raise InvalidSigmaError(
            f"sigma {float(sigma)!r} is so wide that the blurred fixation map underflows to 0"
        )
    return DensityMap(values / mass)


def aggregate_density(dataset: DatasetIndex, sigma: float | None = None) -> DensityMap:
    """Density of the pooled fixations of every image in the dataset."""
    sigma = dataset.sigma if sigma is None else sigma
    return density_from_fixations(dataset.pooled, sigma)


def _gaussian_field(frame: Frame, sigma_x: float, sigma_y: float, cx: float,
                    cy: float) -> np.ndarray:
    """Evaluate the Gaussian per pixel (no convolution), unnormalized peak 1
    at the exact center ``(cx, cy)``."""
    w, h = int(frame[0]), int(frame[1])
    qx = ((np.arange(w, dtype=np.float64) - cx) ** 2) / (2.0 * sigma_x ** 2)
    qy = ((np.arange(h, dtype=np.float64) - cy) ** 2) / (2.0 * sigma_y ** 2)
    return np.exp(-(qy[:, None] + qx[None, :]))


# Sub-pixel offsets of the tie-break field's center. Irrational values keep
# the per-axis quadratic terms off any shared rational lattice; decimal
# offsets let sums collide exactly at thousands of pixel pairs.
_TIE_OFFSET_X = math.sqrt(2.0) / 8.0  # ~0.177
_TIE_OFFSET_Y = math.sqrt(3.0) / 6.0  # ~0.289


def global_gaussian_map(frame: Frame) -> GridMap:
    """Broad, smooth field used to break ties in quantized maps; peak value 1.

    A perfectly centered isotropic Gaussian would leave exact duplicates at
    symmetric pixels, so the center sits slightly off-pixel and the widths
    differ per axis.
    """
    w, h = int(frame[0]), int(frame[1])
    if w < 2 or h < 2:
        raise ValueError("frame must be at least 2x2")
    field = _gaussian_field((w, h), w / 4.0, h / 4.0, (w - 1) / 2.0 + _TIE_OFFSET_X,
                            (h - 1) / 2.0 + _TIE_OFFSET_Y)
    return GridMap(field / field.max())


def center_bias_map(frame: Frame) -> DensityMap:
    """Centered Gaussian density, a quarter of the frame wide on each axis:
    the classic look-at-the-middle baseline."""
    w, h = int(frame[0]), int(frame[1])
    field = _gaussian_field((w, h), 0.25 * w, 0.25 * h, (w - 1) / 2.0, (h - 1) / 2.0)
    return DensityMap(field / field.sum())
