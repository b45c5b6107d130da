"""AUC of location-based scoring, and the ROC curve it is the area of.

Scores come from :func:`auc_values`, the pairwise rank statistic, and from
:func:`auc_rows`, its batched form over the splits of a sampled AUC. The curve
API (:func:`roc_points`, :class:`RocCurve`, :func:`auc`) is for callers that
want the curve itself, and is the oracle the rank statistic is tested against.
"""

from dataclasses import dataclass

import numpy as np

from .core import FixationSet, GridMap
from .errors import EmptyNegativesError, EmptyPositivesError, FrameMismatchError
from .sampling import NegativePool, draw_count, draw_linear
from .seeding import derive_seed


@dataclass(frozen=True)
class RocCurve:
    """Monotone list of (fpr, tpr) points running from (0, 0) to (1, 1)."""

    points: tuple

    def __post_init__(self):
        pts = tuple((float(f), float(t)) for f, t in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2 or pts[0] != (0.0, 0.0) or pts[-1] != (1.0, 1.0):
            raise ValueError("curve must run from (0, 0) to (1, 1)")
        for (f0, t0), (f1, t1) in zip(pts, pts[1:]):
            if f1 < f0 or t1 < t0:
                raise ValueError("fpr and tpr must be non-decreasing")

    @property
    def fpr(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    @property
    def tpr(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])


def roc_points(pred: GridMap, positives: FixationSet, negatives: FixationSet) -> RocCurve:
    """Sweep thresholds over every value seen at a positive or negative location.

    At threshold t a location counts as predicted-salient when its value is
    >= t, so the trapezoidal area equals the pairwise rank statistic (ties
    contribute one half).
    """
    if len(positives) == 0:
        raise EmptyPositivesError("no positive locations")
    if len(negatives) == 0:
        raise EmptyNegativesError("no negative locations")
    pv = np.sort(pred.values_at(positives))
    nv = np.sort(pred.values_at(negatives))
    thresholds = np.unique(np.concatenate([pv, nv]))[::-1]
    tp = pv.size - np.searchsorted(pv, thresholds, side="left")
    fp = nv.size - np.searchsorted(nv, thresholds, side="left")
    pts = [(0.0, 0.0)]
    pts.extend(zip(fp / nv.size, tp / pv.size))
    pts.append((1.0, 1.0))
    return RocCurve(tuple(pts))


def auc(curve: RocCurve) -> float:
    """Trapezoidal integral of tpr over fpr."""
    f = curve.fpr
    t = curve.tpr
    return float(0.5 * np.sum(np.diff(f) * (t[:-1] + t[1:])))


def auc_values(pos_values: np.ndarray, neg_values: np.ndarray) -> float:
    """Pairwise rank statistic of positive against negative values.

    The Mann-Whitney form: each positive counts the negatives below it plus
    one half for each tied negative, over P·N pairs. It equals the area under
    the :func:`roc_points` curve. The counts are exact integers, so the
    result is rounded once."""
    nv = np.sort(neg_values, axis=None)
    below = int(np.searchsorted(nv, pos_values, side="left").sum())
    not_above = int(np.searchsorted(nv, pos_values, side="right").sum())
    return (below + not_above) / (2 * np.size(pos_values) * nv.size)


def auc_rows(pos_values: np.ndarray, neg_rows: np.ndarray) -> np.ndarray:
    """:func:`auc_values` of ``pos_values`` against each row of ``neg_rows``.

    The same exact pair counts, taken from the other side: each negative
    counts the positives above it, plus one half for each tied positive. One
    sort of the positives and one pair of lookups serve every row, in
    O(rows·count) memory, and each row's integer counts are divided once."""
    pv = np.sort(pos_values, axis=None)
    below = (pv.size - np.searchsorted(pv, neg_rows, side="right")).sum(axis=1)
    not_above = (pv.size - np.searchsorted(pv, neg_rows, side="left")).sum(axis=1)
    # int64 counts far below 2**53 convert exactly, so this rounds as auc_values does
    return (below + not_above) / (2 * pv.size * neg_rows.shape[1])


def auc_single(pred: GridMap, positives: FixationSet, negatives: FixationSet) -> float:
    """AUC of ``pred`` with the given positive and negative locations."""
    if len(positives) == 0:
        raise EmptyPositivesError("no positive locations")
    if len(negatives) == 0:
        raise EmptyNegativesError("no negative locations")
    return auc_values(pred.values_at(positives), pred.values_at(negatives))


def auc_averaged(pred: GridMap, positives: FixationSet, pool: NegativePool,
                 n_splits: int = 100, seed: int = 0):
    """Mean and population std of the AUC over ``n_splits`` draws from ``pool``.

    The one split loop of every sampled AUC. Split i draws :func:`draw_count`
    negatives with seed ``derive_seed(seed, i)``, so the result does not
    depend on evaluation order. One :func:`draw_linear` call draws every split
    and :func:`auc_rows` scores them straight from the flat map."""
    count = draw_count(pool, positives)
    if n_splits < 1:
        raise ValueError("n_splits must be at least 1")
    pv = pred.values_at(positives)
    if pool.support.frame != pred.frame:
        raise FrameMismatchError(
            f"negatives index a {pool.support.frame} frame, map is {pred.frame}"
        )
    seeds = [derive_seed(seed, i) for i in range(n_splits)]
    take = draw_linear(pool.support.linear, pool.probabilities(), count, seeds)
    scores = auc_rows(pv, pred.values.ravel()[take])
    return float(scores.mean()), float(scores.std())
