"""Gaussian fields: blur kernels, fixation densities, and bias maps."""

import functools
import math
from typing import NamedTuple

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


def _check_sigma(sigma) -> float:
    """``sigma`` as a float, once it is positive and finite and not so small
    that 1 / (2 sigma^2), the exponent of the nearest tap, overflows (below
    about 5.27e-155): a width whose kernel can be computed."""
    if not (0.0 < float(sigma) < math.inf):
        raise InvalidSigmaError(f"sigma must be positive and finite, got {sigma!r}")
    sigma = float(sigma)
    if 2.0 * sigma * sigma == 0.0 or 1.0 / (2.0 * sigma * sigma) == math.inf:
        raise InvalidSigmaError(f"sigma {sigma!r} is so small that the Gaussian kernel overflows")
    return sigma


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
    # ascending order, the kernel clipped at the frame's edges. The kernel is
    # exactly symmetric, so every output pixel sums the same products in the
    # same order as a loop over the taps would; a line of zeros would only
    # add +0.0, so leaving it out changes no bit. The result is reproducible
    # bit for bit regardless of the caller's threading, and the work follows
    # the lines that hold mass, not the frame.
    r = kernel.size // 2
    out = np.zeros((n, lines.shape[1]))
    for j, line in zip(at.tolist(), lines):
        lo, hi = max(j - r, 0), min(j + r + 1, n)
        out[lo:hi] += kernel[lo - j + r : hi - j + r, None] * line
    return out


def _row_pass(fixations: FixationSet, sigma: float):
    """The first pass of the fixation map's blur, over the rows that hold
    fixations only: those rows, ascending, and their lines blurred along x
    by :func:`_add_lines` of the columns that hold fixations. Each line is
    bit for bit that row of the whole map's first pass."""
    rows, at = np.unique(fixations.ys, return_inverse=True)
    cols, col_at = np.unique(fixations.xs, return_inverse=True)
    lines = np.zeros((cols.size, rows.size))
    lines[col_at, at] = 1.0
    width = fixations.frame[0]
    return rows, np.ascontiguousarray(_add_lines(cols, lines, _kernel_1d(sigma, width), width).T)


def density_from_fixations(fixations: FixationSet, sigma: float) -> DensityMap:
    """Blur the fixation map and renormalize it to total mass 1.

    The blur is separable: a pass along x over the rows that hold
    fixations, then one along y, each zero-padded at the frame's edges."""
    if len(fixations) == 0:
        raise EmptyFixationsError("need at least one fixation to build a density")
    sigma = _check_sigma(sigma)
    height = fixations.frame[1]
    values = _add_lines(*_row_pass(fixations, sigma), _kernel_1d(sigma, height), height)
    with np.errstate(over="ignore"):
        mass = values.sum()
    if mass == math.inf:
        # peaks near the float limit (sigma just above its lower bound) sum
        # past it; scaled to a peak of 1 they give the same point masses
        values /= values.max()
        mass = values.sum()
    if mass == 0.0:
        raise InvalidSigmaError(
            f"sigma {sigma!r} is so wide that the blurred fixation map underflows to 0"
        )
    return DensityMap._adopt(np.divide(values, mass, out=values))


def _centred(taps: np.ndarray) -> np.ndarray:
    """Subtract each row's mean from ``taps``, in place, and return those
    means. Each row is first shifted by its first tap, so that a flat row
    centres to exactly 0 and a nearly flat one keeps its digits."""
    first = taps[:, 0].copy()
    taps -= first[:, None]
    mean = taps.mean(axis=1)
    taps -= mean[:, None]
    return first + mean


def tap_grams(sigma: float, frame: Frame, rows, cols):
    """The Grams of the blur taps of fixations in ``rows`` and ``cols`` of
    ``frame``. Row j of U is the y kernel centred on ``rows[j]`` and row j of
    V the x kernel on ``cols[j]``, each zero-padded past its reach and scaled
    to a peak of 1, so a fixation at ``(x, y)`` adds ``U[y] ⊗ V[x]`` to the
    blurred map, times the product of the peaks. Returns ``Ay = ŨŨᵀ``,
    ``Ax = VVᵀ``, ``h·Axc = h·ṼṼᵀ`` and ``ū``, where ``ū`` holds U's row means
    and a tilde marks taps less their row means. Raises
    :class:`InvalidSigmaError`, as :func:`density_from_fixations` does, when
    the product of the peaks underflows to 0."""
    sigma = _check_sigma(sigma)
    width, height = frame
    kx, ky = _kernel_1d(sigma, width), _kernel_1d(sigma, height)
    if kx.max() * ky.max() == 0.0:
        raise InvalidSigmaError(
            f"sigma {sigma!r} is so wide that the blurred fixation map underflows to 0"
        )

    def taps(kernel, at, n):  # the tap at offset d is pad[d + n - 1], 0 out of reach
        pad = np.zeros(2 * n - 1)
        pad[n - 1 - kernel.size // 2 : n + kernel.size // 2] = kernel / kernel.max()
        return np.lib.stride_tricks.sliding_window_view(pad, n)[n - 1 - np.asarray(at)]

    u = taps(ky, rows, height)
    u_mean = _centred(u)
    ay = np.einsum("ik,jk->ij", u, u)
    del u  # the y taps are let go before the x taps are built
    v = taps(kx, cols, width)
    ax = np.einsum("ik,jk->ij", v, v)
    _centred(v)
    axc = np.einsum("ik,jk->ij", v, v)
    axc *= height
    return ay, ax, axc, u_mean


def _axis_terms(frame: Frame, sigma_x: float, sigma_y: float, cx: float, cy: float):
    """The Gaussian's exponents per column and per row, ``(qx, qy)``: its value
    at ``(x, y)`` is ``exp(-(qy[y] + qx[x]))``, peak 1 at the exact ``(cx, cy)``."""
    w, h = int(frame[0]), int(frame[1])
    qx = ((np.arange(w, dtype=np.float64) - cx) ** 2) / (2.0 * sigma_x ** 2)
    qy = ((np.arange(h, dtype=np.float64) - cy) ** 2) / (2.0 * sigma_y ** 2)
    return qx, qy


# Sub-pixel offsets of the tie-break field's center. Irrational values keep
# the per-axis quadratic terms off any shared rational lattice; decimal
# offsets let sums collide exactly at thousands of pixel pairs.
_TIE_OFFSET_X = math.sqrt(2.0) / 8.0  # ~0.177
_TIE_OFFSET_Y = math.sqrt(3.0) / 6.0  # ~0.289


class GlobalField(NamedTuple):
    """The global tie-break field, never built whole: the value at pixel
    ``(x, y)`` is ``exp(-(qy[y] + qx[x])) / peak``, bit for bit the frame
    :func:`global_gaussian_map` builds, and ``least`` is the smallest ``exp``."""

    qx: np.ndarray
    qy: np.ndarray
    peak: float
    least: float
    max = lambda self: self.peak / self.peak
    min = lambda self: self.least / self.peak

    def at(self, index) -> np.ndarray:
        """Values at ``index`` of the flattened field, as ``GridMap.at`` reads
        them; a slice of step 1 is evaluated over the rows it covers."""
        w = self.qx.size
        if isinstance(index, slice):
            start, stop, step = index.indices(w * self.qy.size)
            if step == 1:
                top = start // w
                q = (self.qy[top:-(-stop // w), None] + self.qx).ravel()[start - top * w:stop - top * w]
                return np.exp(-q) / self.peak
            index = np.arange(start, stop, step)
        y, x = np.divmod(index, w)
        return np.exp(-(self.qy[y] + self.qx[x])) / self.peak


@functools.lru_cache(maxsize=4)
def global_field(frame: Frame) -> GlobalField:
    """Broad, smooth field used to break ties in quantized maps; peak value 1.

    A perfectly centered isotropic Gaussian would leave exact duplicates at
    symmetric pixels, so the center sits slightly off-pixel and the widths
    differ per axis. Only its O(w + h) terms are kept, for the last four
    frames; its peak and least are the ``exp`` of the least and greatest
    ``qy + qx``, as a rounded sum is monotone in each term."""
    w, h = int(frame[0]), int(frame[1])
    if w < 2 or h < 2:
        raise ValueError("frame must be at least 2x2")
    qx, qy = _axis_terms((w, h), w / 4.0, h / 4.0, (w - 1) / 2.0 + _TIE_OFFSET_X,
                         (h - 1) / 2.0 + _TIE_OFFSET_Y)
    peak, least = np.exp(-np.array([qy.min() + qx.min(), qy.max() + qx.max()])).tolist()
    return GlobalField(qx, qy, peak, least)


def global_gaussian_map(frame: Frame) -> GridMap:
    """:func:`global_field` built whole, a new read-only map on each call."""
    w, h = int(frame[0]), int(frame[1])
    return GridMap._adopt(global_field((w, h)).at(slice(None)).reshape(h, w))


def center_bias_map(frame: Frame) -> DensityMap:
    """Centered Gaussian density, a quarter of the frame wide on each axis:
    the classic look-at-the-middle baseline."""
    w, h = int(frame[0]), int(frame[1])
    qx, qy = _axis_terms((w, h), 0.25 * w, 0.25 * h, (w - 1) / 2.0, (h - 1) / 2.0)
    field = np.exp(-(qy[:, None] + qx[None, :]))
    return DensityMap._adopt(np.divide(field, field.sum(), out=field))
