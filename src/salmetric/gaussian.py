"""Gaussian fields: blur kernels, fixation densities, and bias maps."""

import functools
import math

import numpy as np

from .core import DensityMap, FixationSet, Frame, GridMap
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


def _add_lines(at, lines, kernel: np.ndarray, n: int) -> np.ndarray:
    # The scatter half of a blur pass: each line adds its kernel-weighted copy
    # to the n output lines in reach of its position ``at``, lines taken in
    # ascending order. The kernel is exactly symmetric, so every output pixel
    # sums the same products in the same order as a loop over the taps would;
    # a line of zeros would only add +0.0, so leaving it out changes no bit.
    # The result is reproducible bit for bit regardless of the caller's
    # threading, and the work follows the lines that hold mass, not the frame.
    r = kernel.size // 2
    out = np.zeros((n + 2 * r, lines.shape[1]))
    for j, line in zip(at.tolist(), lines):
        out[j : j + kernel.size] += kernel[:, None] * line
    return out[r : r + n]


def _correlate_axis(values: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    # Zero padding outside the grid; the lines along ``axis`` that hold mass
    # go through :func:`_add_lines`.
    lines = np.ascontiguousarray(np.moveaxis(values, axis, 0))
    at = np.flatnonzero(lines.any(axis=1))
    out = _add_lines(at, lines[at], kernel, lines.shape[0])
    return np.ascontiguousarray(np.moveaxis(out, 0, axis))


def blur(grid: GridMap, sigma: float) -> GridMap:
    """Separable Gaussian blur; output has the same dimensions as the input."""
    _check_sigma(sigma)
    sigma = float(sigma)
    out = _correlate_axis(grid.values, _kernel_1d(sigma, grid.width), axis=1)
    out = _correlate_axis(out, _kernel_1d(sigma, grid.height), axis=0)
    return GridMap(out)


def _row_pass(fixations: FixationSet, sigma: float):
    """The first pass of the fixation map's blur, over the rows that hold
    fixations only: those rows, ascending, and their lines blurred along x.
    Each line is bit for bit that row of the whole map's first pass."""
    rows, at = np.unique(fixations.ys, return_inverse=True)
    lines = np.zeros((rows.size, fixations.frame[0]))
    lines[at, fixations.xs] = 1.0
    return rows, _correlate_axis(lines, _kernel_1d(sigma, fixations.frame[0]), axis=1)


def density_from_fixations(fixations: FixationSet, sigma: float) -> DensityMap:
    """Blur the fixation map and renormalize it to total mass 1.

    The blur is :func:`blur` of :func:`vectorize`, bit for bit; its first
    pass runs over the rows that hold fixations, not the whole frame."""
    if len(fixations) == 0:
        raise EmptyFixationsError("need at least one fixation to build a density")
    _check_sigma(sigma)
    sigma = float(sigma)
    height = fixations.frame[1]
    values = _add_lines(*_row_pass(fixations, sigma), _kernel_1d(sigma, height), height)
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


# A band of :func:`fixation_bands` and the temporaries it is built with hold
# about this many floats (1 MB).
_BAND_FLOATS = 2 ** 17


def fixation_bands(fixation_sets, sigma: float):
    """The blurred fixation maps of ``fixation_sets`` (over one frame), a band
    of rows at a time: yields an ``N × (y1 − y0)·w`` array for each band of
    rows ``[y0, y1)``, top to bottom, holding every map's rows of the band.
    A band and the temporaries it is built with hold about ``_BAND_FLOATS``
    floats, and a band at least one row of each map. The bands share one
    buffer, each written over by the next, so a band must be copied to be
    kept. Raises :class:`InvalidSigmaError`, as :func:`density_from_fixations`
    does, after the last band if some map underflows to 0 everywhere.

    Each row is bit for bit that row of :func:`density_from_fixations` before
    it divides by the mass, times a power of two that is 1 unless the kernel
    peak passes 2**256 (sigma below about 1e-39), so that products of rows
    stay finite. A band is built for all maps at once: step t adds every
    map's t-th fixated row in reach of the band, so each map takes its rows
    in ascending order, as the whole-frame blur does; those rows are first
    blurred along x, a fixation at a time, each fixation a window of the
    padded x kernel. A row adds +0.0 to the band rows out of its reach."""
    _check_sigma(sigma)
    sigma = float(sigma)
    sets = list(fixation_sets)
    width, height = sets[0].frame
    kx, ky = _kernel_1d(sigma, width), _kernel_1d(sigma, height)
    peak = float(kx.max() * ky.max())
    scale = 2.0 ** -math.frexp(peak)[1] if peak > 2.0 ** 256 else 1.0
    # the kernels zero-padded so that every offset d within the frame reads
    # tap d at d + n - 1, a tap out of reach reading 0
    kx_pad = np.zeros(2 * width - 1)
    kx_pad[width - 1 - kx.size // 2 : width + kx.size // 2] = kx
    ky_pad = np.zeros(2 * height - 1)
    ky_pad[height - 1 - ky.size // 2 : height + ky.size // 2] = ky
    # every fixation, by image and then in row-major order; a line is the
    # fixations of one image in one row, and lines are sorted the same way
    image = np.repeat(np.arange(len(sets)), [len(fixations) for fixations in sets])
    row, col = np.divmod(np.concatenate([fixations.linear for fixations in sets]), width)
    key = image * height + row
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    count = np.diff(np.r_[start, key.size])
    line_image, line_row = image[start], row[start]
    x_tap = (width - 1) - col  # where a fixation's x-blur starts in kx_pad
    windows = np.lib.stride_tricks.sliding_window_view(kx_pad, width)
    reach = ky.size // 2
    # the band, a step's product and its gathered rows: three band-sized arrays
    rows = max(1, _BAND_FLOATS // (3 * len(sets) * width))
    buffer = np.empty(len(sets) * rows * width)
    held = np.zeros(len(sets), dtype=bool)  # the maps with a nonzero row so far
    for y0 in range(0, height, rows):
        y1 = min(y0 + rows, height)
        near = np.flatnonzero((line_row >= y0 - reach) & (line_row < y1 + reach))
        step = np.arange(near.size) - np.searchsorted(line_image[near], line_image[near])
        band = buffer[: buffer.size // rows * (y1 - y0)].reshape(len(sets), y1 - y0, width)
        band.fill(0.0)
        for t in range(int(step.max(initial=-1)) + 1):
            lines = near[step == t]
            blurred = windows[x_tap[start[lines]]]
            for u in range(1, int(count[lines].max())):
                has = count[lines] > u
                blurred[has] += windows[x_tap[start[lines[has]] + u]]
            taps = ky_pad[np.arange(y0, y1)[None, :] - line_row[lines][:, None] + height - 1]
            added = taps[:, :, None] * blurred[:, None, :]
            if lines.size == len(sets):  # every map has a t-th line: no gather
                band += added
            else:
                band[line_image[lines]] += added
        band *= scale
        held |= band.any(axis=(1, 2))
        yield band.reshape(len(sets), -1)
    if not held.all():
        raise InvalidSigmaError(
            f"sigma {sigma!r} is so wide that the blurred fixation map underflows to 0"
        )


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
    differ per axis. The field is built once per frame and shared: a
    GridMap is read-only.
    """
    return _global_gaussian_map(int(frame[0]), int(frame[1]))


@functools.lru_cache(maxsize=4)
def _global_gaussian_map(w: int, h: int) -> GridMap:
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
