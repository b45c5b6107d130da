"""Tie breaking for quantized prediction maps.

Thresholded scoring is ill-defined when many pixels share a value, which is
the norm for near-binary model outputs. Both strategies here add a jitter
field scaled to half the smallest gap between distinct map values, so any two
strictly ordered pixels keep their order exactly.
"""

import math
from typing import NamedTuple

import numpy as np

from .core import BAND, GridMap
from .gaussian import GlobalField, global_field


def _tie_gap(values: np.ndarray):
    # the smallest positive gap of the sorted copy, taken a band at a time (one
    # past the float range reads inf), or None when all values are equal
    ordered = np.sort(values, axis=None)
    if ordered[0] == ordered[-1]:
        return None
    with np.errstate(over="ignore"):
        gaps = (np.diff(ordered[start:start + BAND + 1]) for start in range(0, ordered.size - 1, BAND))
        return min(gap.min(initial=np.inf, where=gap > 0.0) for gap in gaps)


class TieBroken(NamedTuple):
    """A map's tie-broken values, never built whole: the value at flat index
    b is the map's plus ``eps * field[b]``, or the map's alone with no field.
    The field is a drawn frame or the :class:`GlobalField` reader."""

    map: GridMap
    eps: float = 0.0
    field: GlobalField | np.ndarray | None = None
    frame = property(lambda self: self.map.frame)
    values_at = GridMap.values_at

    def at(self, index) -> np.ndarray:
        values = self.map.at(index)
        if self.field is None:
            return values
        field = self.field.at(index) if isinstance(self.field, GlobalField) else self.field.ravel()[index]
        return values + self.eps * field

    def whole(self) -> GridMap:
        """The tie-broken map, built whole as ``smooth`` writes it."""
        shape = self.map.values.shape
        return self.map if self.field is None else GridMap._adopt(self.at(slice(None)).reshape(shape))


def tie_broken(pred: GridMap, mode: str, seed: int = 0) -> TieBroken:
    """``pred`` jittered by the ``global`` field or by ``noise`` drawn from
    ``seed``; raises ``ValueError`` for any other mode, when a jittered
    value is not finite, or in ``noise`` mode when the seed is negative."""
    if mode not in ("global", "noise"):
        raise ValueError(f"unknown tie_break mode {mode!r}; expected 'global' or 'noise'")
    if mode == "noise" and seed < 0:
        raise ValueError(f"the noise seed must be a non-negative integer, got {seed}")
    if mode == "global" and (pred.width < 2 or pred.height < 2):
        return TieBroken(pred)
    gap = _tie_gap(pred.values)  # the sorted copy is let go before a noise field is drawn
    field = (global_field(pred.frame) if mode == "global"
             else np.random.default_rng(seed).random(pred.values.shape))
    low, high = float(field.min()), float(field.max())
    spread = high - low
    out = TieBroken(pred, 1.0 if gap is None or spread <= 0.0 else float(gap / (2.0 * spread)), field)
    # rounding is monotone, so a finite bound on |value| + eps·|field| proves
    # every jittered value finite; past it they are checked a band at a time
    bound = max(float(pred.values.max()), -float(pred.values.min())) + out.eps * max(high, -low)
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(bound) and not all(np.isfinite(out.at(slice(start, start + BAND))).all()
                                                for start in range(0, pred.values.size, BAND)):
            raise ValueError("map values must be finite")
    return out


def tie_break_global(pred: GridMap) -> GridMap:
    """Jitter with a broad off-center Gaussian instead of noise.

    The field is smooth and centered, so within a tied level it favors pixels
    the way a center-weighted viewer would, and the result is deterministic.
    """
    return tie_broken(pred, "global").whole()


def tie_break_noise(pred: GridMap, seed: int = 0) -> GridMap:
    """Baseline jitter with per-pixel uniform noise, scaled the same way."""
    return tie_broken(pred, "noise", seed).whole()
