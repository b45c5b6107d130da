"""Grid maps, fixation sets and density maps, plus conversions between them.

Coordinate convention: ``(x, y)`` means column ``x`` and row ``y`` with the
origin at the top-left pixel, so a map stores ``values[y, x]``. Frames are
``(width, height)`` tuples. All types are immutable after construction and
safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateIdError,
    EmptyDatasetError,
    EmptyFixationsError,
    FrameMismatchError,
    NegativeValueError,
    ZeroMassError,
)

Frame = tuple[int, int]

# elementwise passes over a whole map take it in bands of this many values
BAND = 2 ** 14


class GridMap:
    """Dense 2D map of finite float64 values."""

    def __init__(self, values):
        self._take(np.array(values, dtype=np.float64))

    @classmethod
    def _adopt(cls, arr: np.ndarray, finite: bool = False):
        """A map that takes over ``arr``, a fresh float64 array that no caller
        keeps, after the public constructor's checks but without its copy;
        ``finite`` says the caller has checked that every value is finite."""
        out = cls.__new__(cls)
        out._take(arr, finite)
        return out

    def _take(self, arr: np.ndarray, finite: bool = False) -> None:
        if arr.ndim != 2:
            raise ValueError(f"expected a 2D array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("maps need at least one row and one column")
        if not finite and not np.all(np.isfinite(arr)):
            raise ValueError("map values must be finite")
        arr.setflags(write=False)
        self.values = arr

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def frame(self) -> Frame:
        return (self.width, self.height)

    def values_at(self, fixations: "FixationSet") -> np.ndarray:
        """Map values at each fixation, in the set's canonical order."""
        if fixations.frame != self.frame:
            raise FrameMismatchError(
                f"fixations index a {fixations.frame} frame, map is {self.frame}"
            )
        return self.at(fixations.linear)

    def at(self, index) -> np.ndarray:
        """Values at ``index`` of the flattened map: locations or a slice."""
        return self.values.ravel()[index]

    def __repr__(self):
        return f"{type(self).__name__}({self.width}x{self.height})"


def _whole(values) -> np.ndarray:
    """``values`` as an integer array, or as floats when each is a whole
    number; raises ``ValueError`` at one that is not."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.float64)
        bad = arr[arr != np.floor(arr)]
        if bad.size:
            raise ValueError(f"fixation coordinates must be whole numbers, got {float(bad[0])!r}")
    return arr


class FixationSet:
    """Deduplicated set of integer pixel coordinates within a frame.

    Coordinates are kept sorted in row-major order; that canonical order is
    what makes the seeded samplers reproducible.
    """

    def __init__(self, coords, frame: Frame):
        w, h = int(frame[0]), int(frame[1])
        linear = list(coords)
        # with no coordinates or a frame under 1x1, _canonicalize does every check
        if linear and w >= 1 and h >= 1:
            arr = _whole(linear)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError("coords must be (x, y) pairs")
            xs, ys = arr[:, 0], arr[:, 1]
            if np.any((xs < 0) | (xs >= w) | (ys < 0) | (ys >= h)):
                raise ValueError(f"coordinate outside the {w}x{h} frame")
            linear = ys * w + xs
        self._canonicalize(linear, (w, h))

    @classmethod
    def from_linear(cls, linear, frame: Frame) -> "FixationSet":
        """Build from row-major linear indices (``y * width + x``)."""
        out = cls.__new__(cls)
        out._canonicalize(linear, frame)
        return out

    def _canonicalize(self, linear, frame: Frame) -> None:
        """The one place a set gets its ``frame`` and ``_linear``: check the
        frame, then sort, range-check, drop repeats and freeze the indices."""
        w, h = int(frame[0]), int(frame[1])
        if w < 1 or h < 1:
            raise ValueError("frame must be at least 1x1")
        arr = np.sort(_whole(linear), axis=None)
        if arr.size and (arr[0] < 0 or arr[-1] >= w * h):
            raise ValueError(f"linear index outside the {w}x{h} frame")
        arr = arr.astype(np.int64, copy=False)
        # sort, then mask out repeats: far faster on large sets than a hashing unique
        first = np.ones(arr.size, dtype=bool)
        np.not_equal(arr[1:], arr[:-1], out=first[1:])
        arr = arr[first]
        arr.setflags(write=False)
        self.frame = (w, h)
        self._linear = arr

    @property
    def linear(self) -> np.ndarray:
        return self._linear

    @property
    def xs(self) -> np.ndarray:
        return self._linear % self.frame[0]

    @property
    def ys(self) -> np.ndarray:
        return self._linear // self.frame[0]

    @property
    def coords(self) -> list[tuple[int, int]]:
        return [(int(x), int(y)) for x, y in zip(self.xs, self.ys)]

    def __len__(self):
        return int(self._linear.size)

    def __iter__(self):
        return iter(self.coords)

    def __contains__(self, coord):
        x, y = map(int, coord)
        w, h = self.frame
        if not (0 <= x < w and 0 <= y < h):
            return False
        target = y * w + x
        at = int(np.searchsorted(self._linear, target))
        return at < self._linear.size and int(self._linear[at]) == target

    def __eq__(self, other):
        if not isinstance(other, FixationSet):
            return NotImplemented
        return self.frame == other.frame and np.array_equal(self._linear, other._linear)

    def __repr__(self):
        return f"FixationSet({len(self)} points in {self.frame[0]}x{self.frame[1]})"


class DensityMap(GridMap):
    """A GridMap constrained to be a probability mass function over pixels."""

    SUM_ATOL = 1e-9

    def _take(self, arr: np.ndarray, finite: bool = False) -> None:
        super()._take(arr, finite)
        if np.any(arr < 0.0):
            raise NegativeValueError("densities cannot hold negative values")
        self._check_sum(float(arr.sum()))

    @classmethod
    def _check_sum(cls, total: float) -> None:
        if abs(total - 1.0) > cls.SUM_ATOL:
            raise ValueError(f"density sums to {total!r}, expected 1")


@dataclass(frozen=True)
class ImageRecord:
    """One dataset entry: an id and its ground-truth fixations."""

    id: str
    fixations: FixationSet

    @property
    def frame(self) -> Frame:
        return self.fixations.frame


class DatasetIndex:
    """Images over a single shared frame, plus the pooled fixation union.

    ``sigma`` is the blur width (pixels) used whenever this dataset's
    fixations are turned into densities and no explicit width is given.
    """

    def __init__(self, images, name: str = "", sigma: float = 19.0):
        images = tuple(images)
        if not images:
            raise EmptyDatasetError("dataset has no images")
        frame = images[0].frame
        by_id: dict[str, int] = {}
        for pos, rec in enumerate(images):
            if rec.id in by_id:
                raise DuplicateIdError(f"duplicate image id {rec.id!r}")
            if rec.frame != frame:
                raise FrameMismatchError(
                    f"image {rec.id!r} frame {rec.frame} differs from {frame}"
                )
            if len(rec.fixations) == 0:
                raise EmptyFixationsError(f"image {rec.id!r} has no fixations")
            by_id[rec.id] = pos
        self.images = images
        self.ids = tuple(rec.id for rec in images)
        self.name = name
        self.sigma = float(sigma)
        all_linear = np.concatenate([rec.fixations.linear for rec in images])
        support, counts = np.unique(all_linear, return_counts=True)
        counts.setflags(write=False)
        self.pooled = FixationSet.from_linear(support, frame)
        # how many images fixated each pooled location, aligned with pooled.linear
        self.pooled_counts = counts
        self._by_id = by_id
        self._cache: dict = {}

    @property
    def frame(self) -> Frame:
        return self.images[0].frame

    def image(self, image_id: str) -> ImageRecord:
        return self.images[self.index(image_id)]

    def index(self, image_id: str) -> int:
        try:
            return self._by_id[image_id]
        except KeyError:
            raise KeyError(f"no image {image_id!r} in dataset {self.name!r}") from None

    def __len__(self):
        return len(self.images)

    def __repr__(self):
        w, h = self.frame
        return f"DatasetIndex({self.name!r}, {len(self)} images, {w}x{h})"


def normalize_to_density(grid: GridMap) -> DensityMap:
    """Divide a non-negative map by its total mass; a density comes back as is."""
    if isinstance(grid, DensityMap):
        return grid
    return DensityMap._adopt(grid.values / _density_scale(grid))


def _density_scale(grid: GridMap) -> float:
    """What :func:`normalize_to_density` divides ``grid`` by, once its checks
    and the density's pass; 1 for a density. The distribution metrics divide
    by it as they read, so no frame of the density is built. A value over a
    non-negative sum is at most 1, so only the density's sum is left to
    check, and it is taken a band at a time."""
    if isinstance(grid, DensityMap):
        return 1.0
    if np.any(grid.values < 0.0):
        raise NegativeValueError("map has negative values")
    total, flat = float(grid.values.sum()), grid.values.ravel()
    if total == 0.0:
        raise ZeroMassError("cannot normalize an all-zero map")
    DensityMap._check_sum(sum(float((flat[start:start + BAND] / total).sum())
                              for start in range(0, flat.size, BAND)))
    return total


def complement_set(frame: Frame, exclude: FixationSet) -> FixationSet:
    """Every grid location not in ``exclude``."""
    w, h = int(frame[0]), int(frame[1])
    if exclude.frame != (w, h):
        raise FrameMismatchError(
            f"exclude set indexes a {exclude.frame} frame, expected {(w, h)}"
        )
    keep = np.setdiff1d(np.arange(w * h, dtype=np.int64), exclude.linear, assume_unique=True)
    return FixationSet.from_linear(keep, (w, h))
