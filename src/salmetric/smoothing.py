"""Tie breaking for quantized prediction maps.

Thresholded scoring is ill-defined when many pixels share a value, which is
the norm for near-binary model outputs. Both strategies here add a jitter
field scaled to half the smallest gap between distinct map values, so any two
strictly ordered pixels keep their order exactly.
"""

import numpy as np

from .core import GridMap
from .gaussian import global_gaussian_map


def _tie_epsilon(values: np.ndarray, spread: float) -> float:
    # the positive gaps of the sorted values are the gaps between distinct values
    gaps = np.diff(np.sort(values, axis=None))
    gaps = gaps[gaps > 0.0]
    if gaps.size == 0 or spread <= 0.0:
        return 1.0
    return float(gaps.min() / (2.0 * spread))


def tie_break_global(pred: GridMap) -> GridMap:
    """Jitter with a broad off-center Gaussian instead of noise.

    The field is smooth and centered, so within a tied level it favors pixels
    the way a center-weighted viewer would, and the result is deterministic.
    """
    if pred.width < 2 or pred.height < 2:
        return pred
    field = global_gaussian_map(pred.frame).values
    eps = _tie_epsilon(pred.values, float(field.max() - field.min()))
    return GridMap(pred.values + eps * field)


def tie_break_noise(pred: GridMap, seed: int = 0) -> GridMap:
    """Baseline jitter with per-pixel uniform noise, scaled the same way."""
    noise = np.random.default_rng(seed).random(pred.values.shape)
    eps = _tie_epsilon(pred.values, float(noise.max() - noise.min()))
    return GridMap(pred.values + eps * noise)
