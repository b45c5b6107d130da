"""AUC of location-based scoring, and the ROC curve it is the area of.

Scores come from :func:`auc_values`, the pairwise rank statistic, from
:func:`auc_rows`, its batched form over the splits of a sampled AUC, which
:func:`auc_splits` averages, and from :func:`auc_complement`, its form
against every other location of a map. :func:`roc_points` gives the curve
itself, as a :class:`RocCurve`.
"""

from dataclasses import dataclass

import numpy as np

from .core import BAND, FixationSet, GridMap
from .errors import EmptyNegativesError, EmptyPositivesError
from .sampling import NegativePool, SplitStreams, draw_count, draw_pools


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


def auc_values(pos_values: np.ndarray, neg_values: np.ndarray) -> float:
    """Pairwise rank statistic of positive against negative values.

    The Mann-Whitney form of :func:`_pair_count` over P·N pairs, as one row
    of :func:`auc_rows`. It equals the area under the :func:`roc_points`
    curve. The counts are exact integers, so the result is rounded once."""
    return float(auc_rows(pos_values, np.ravel(neg_values)[None])[0])


def auc_rows(pos_values: np.ndarray, neg_rows: np.ndarray) -> np.ndarray:
    """:func:`auc_values` of ``pos_values`` against each row of ``neg_rows``.

    One sort of the positives and one pair of lookups serve every row, in
    O(rows·count) memory. Each row's int64 counts, far below 2**53, convert
    exactly and are divided once."""
    pv = np.sort(pos_values, axis=None)
    return _pair_count(pv, neg_rows) / (2 * pv.size * neg_rows.shape[1])


def _pair_count(pv: np.ndarray, values: np.ndarray):
    """The rank statistic's numerator over the last axis of ``values``: each
    entry counts twice the sorted positives ``pv`` above it plus those tied
    with it, the Mann-Whitney count from the negatives' side. Each lookup is
    summed before the next is made."""
    not_above = np.searchsorted(pv, values, side="right").sum(axis=-1)
    below = np.searchsorted(pv, values, side="left").sum(axis=-1)
    return 2 * pv.size * values.shape[-1] - not_above - below


def auc_complement(pred: GridMap, positives: FixationSet) -> float:
    """AUC of ``positives`` against every other location of ``pred`` (a
    GridMap or a TieBroken one): the AUC-Judd negatives, never gathered.

    The counts of :func:`_pair_count`, taken against the whole map a band at a
    time, minus the positives' counts against themselves. The counts are
    exact integers and the denominator is ``|positives|·(w·h − |positives|)``,
    so this equals :func:`auc_values` against the complement bit for bit."""
    if len(positives) == 0:
        raise EmptyPositivesError("no positive locations")
    pv = np.sort(pred.values_at(positives))
    size = pred.frame[0] * pred.frame[1]
    if size == pv.size:
        raise EmptyNegativesError("no negative locations")
    pairs = sum(int(_pair_count(pv, pred.at(slice(start, start + BAND))))
                for start in range(0, size, BAND))
    return (pairs - int(_pair_count(pv, pv))) / (2 * pv.size * (size - pv.size))


def auc_single(pred: GridMap, positives: FixationSet, negatives: FixationSet) -> float:
    """AUC of ``pred`` with the given positive and negative locations."""
    if len(positives) == 0:
        raise EmptyPositivesError("no positive locations")
    if len(negatives) == 0:
        raise EmptyNegativesError("no negative locations")
    return auc_values(pred.values_at(positives), pred.values_at(negatives))


def auc_averaged(pred: GridMap, positives: FixationSet, pool: NegativePool,
                 streams: SplitStreams):
    """Mean and population std of the AUC of ``pred`` (a GridMap or a
    TieBroken one) over ``len(streams)`` draws from ``pool``.

    The library's split loop for one image; ``evaluate`` and ``sweep`` draw
    through :func:`drawn_chunks` and score with :func:`auc_splits`. Split i
    draws :func:`draw_count` negatives on stream i; :func:`split_streams`
    gives the streams of ``derive_seed(seed, i)``, so the result does not
    depend on evaluation order. One :func:`draw_pools` call draws every
    split and :func:`auc_rows` scores them straight from the flat map."""
    pv = pred.values_at(positives)
    count = draw_count(pool, positives)
    if len(streams) < 1:
        raise ValueError("n_splits must be at least 1")
    return auc_splits(pv, pred, draw_pools(streams, [(pool, count, range(len(streams)))])[0])


def auc_splits(pos_values: np.ndarray, pred: GridMap, negatives: np.ndarray):
    """Mean and population std of :func:`auc_rows` of ``pos_values`` against
    ``pred``'s values at each row of the location array ``negatives``."""
    scores = auc_rows(pos_values, pred.at(negatives))
    return float(scores.mean()), float(scores.std())
