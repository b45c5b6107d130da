"""Score suite: correlation, scanpath saliency, similarity, divergence,
information gain, and the AUC family with pluggable negative sampling.

Distribution scores (cc, sim, kld) compare density-normalized maps; location
scores (nss, the AUCs) consume the raw prediction and the fixation set.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BAND,
    DatasetIndex,
    DensityMap,
    FixationSet,
    GridMap,
    _density_scale,
)
from .errors import (
    DimensionMismatchError,
    EmptyFixationsError,
    MissingPredictionError,
    ZeroVarianceError,
)
from .gaussian import center_bias_map, density_from_fixations
from .roc import auc_averaged, auc_complement, auc_splits
from .sampling import NegativePool, drawn_chunks, negative_pool, split_streams
from .seeding import derive_seed
from .smoothing import TieBroken, tie_broken

EPS = float(np.finfo(np.float64).eps)

ALL_METRICS = ("cc", "nss", "sim", "kld", "ig", "auc_judd", "auc_borji", "s_auc", "fn_auc")
# each sampled AUC and the sampler whose pool it draws from
SAMPLED_METRICS = {"auc_borji": "borji", "s_auc": "shuffled", "fn_auc": "fn"}
TIE_BREAK_MODES = ("global", "noise", "off")


def _check_dims(a: GridMap, b: GridMap):
    if a.values.shape != b.values.shape:
        raise DimensionMismatchError(f"shapes differ: {a.values.shape} vs {b.values.shape}")


def cc(a: GridMap, b: GridMap, total: float = 1.0) -> float:
    """Pearson correlation between two maps over flattened pixels, ``a``'s
    values read over ``total``; one scratch frame holds those values and
    then the terms of each sum in turn. Constant input has none."""
    _check_dims(a, b)
    x, y = a.values.ravel(), b.values.ravel()
    d = np.divide(x, total)
    mx, my = d.mean(), y.mean()
    flat = d.min() == d.max() or y.min() == y.max()
    d -= mx
    xn = float(np.sqrt(np.multiply(d, d, out=d).sum()))
    np.subtract(y, my, out=d)
    yn = float(np.sqrt(np.multiply(d, d, out=d).sum()))
    if flat or xn == 0.0 or yn == 0.0:
        raise ZeroVarianceError("constant input has no correlation")
    np.subtract(np.divide(x, total, out=d), mx, out=d)
    for start in range(0, d.size, BAND):
        d[start:start + BAND] *= y[start:start + BAND] - my
    return float(d.sum() / (xn * yn))


def nss(pred: GridMap, fixations: FixationSet) -> float:
    """Mean z-scored prediction value at the fixated pixels."""
    if len(fixations) == 0:
        raise EmptyFixationsError("no fixations to score")
    v = pred.values
    std = float(v.std())
    if std == 0.0 or v.min() == v.max():
        raise ZeroVarianceError("constant map has no z-scores")
    return float(((pred.values_at(fixations) - v.mean()) / std).mean())


def sim(a: GridMap, b: DensityMap, total: float = 1.0) -> float:
    """Histogram intersection of two densities: sum of elementwise minima,
    ``a``'s values read over ``total`` into one scratch frame."""
    _check_dims(a, b)
    d = np.divide(a.values, total)
    return float(np.minimum(d, b.values, out=d).sum())


def kld(gt: DensityMap, pred: GridMap, total: float = 1.0) -> float:
    """Divergence of the prediction, its values read over ``total``, from the
    ground truth, summed over pixels where the ground truth has mass; the
    terms fill one buffer the size of that support."""
    _check_dims(gt, pred)
    g, p = gt.values.ravel(), pred.values.ravel()
    terms, n = np.empty(np.count_nonzero(g)), 0
    for start in range(0, g.size, BAND):
        mask = g[start:start + BAND] > 0.0
        gm = g[start:start + BAND][mask]
        pm = p[start:start + BAND][mask]
        np.add(np.divide(pm, total, out=pm), EPS, out=pm)
        np.multiply(gm, np.log(np.divide(gm, pm, out=pm), out=pm), out=terms[n:n + gm.size])
        n += gm.size
    return float(np.sum(terms[:n]))


def ig(pred: DensityMap, fixations: FixationSet, baseline: DensityMap | None = None) -> float:
    """Bits gained over a baseline density at the fixated pixels.

    The baseline defaults to the centered Gaussian density."""
    if len(fixations) == 0:
        raise EmptyFixationsError("no fixations to score")
    if baseline is None:
        baseline = center_bias_map(pred.frame)
    _check_dims(pred, baseline)
    return _ig_values(pred.values_at(fixations), baseline.values_at(fixations))


def _ig_values(pv: np.ndarray, bv: np.ndarray) -> float:
    """:func:`ig` of the prediction's values ``pv`` and the baseline's ``bv``
    at the same fixations."""
    return float(np.mean(np.log2(pv + EPS) - np.log2(bv + EPS)))


def _tie_break(pred: GridMap, mode: str, seed: int) -> TieBroken:
    if mode not in TIE_BREAK_MODES:
        raise ValueError(f"unknown tie_break mode {mode!r}; expected one of {TIE_BREAK_MODES}")
    # a map tie-broken already is scored as it is; a flat map carries no
    # ranking, so it is left to score at chance
    if isinstance(pred, TieBroken):
        return pred
    if mode == "off" or pred.values.min() == pred.values.max():
        return TieBroken(pred)
    return tie_broken(pred, mode, derive_seed(seed, "tie-noise") if mode == "noise" else 0)


def auc_judd(pred: GridMap, fixations: FixationSet, tie_break: str = "global",
             seed: int = 0) -> float:
    """AUC with every non-fixated pixel as a negative."""
    return auc_complement(_tie_break(pred, tie_break, seed), fixations)


def auc_borji(pred: GridMap, fixations: FixationSet, n_splits: int = 100, seed: int = 0,
              tie_break: str = "global"):
    """AUC against uniform draws of non-fixated pixels; returns (mean, std)."""
    scored = _tie_break(pred, tie_break, seed)
    pool = NegativePool(excluded=fixations)
    return auc_averaged(scored, fixations, pool, split_streams([seed], n_splits))


def s_auc(pred: GridMap, image_id: str, dataset: DatasetIndex, n_splits: int = 100,
          seed: int = 0, tie_break: str = "global"):
    """AUC against fixations pooled from the other images; returns (mean, std)."""
    scored = _tie_break(pred, tie_break, seed)
    pool = negative_pool("shuffled", image_id, dataset)
    return auc_averaged(scored, dataset.image(image_id).fixations, pool,
                        split_streams([seed], n_splits))


def fn_auc(pred: GridMap, image_id: str, dataset: DatasetIndex, k: int = 5,
           n_splits: int = 100, seed: int = 0, sigma: float | None = None,
           tie_break: str = "global"):
    """AUC against fixations of the k least similar images; returns (mean, std)."""
    scored = _tie_break(pred, tie_break, seed)
    pool = negative_pool("fn", image_id, dataset, k, sigma)
    return auc_averaged(scored, dataset.image(image_id).fixations, pool,
                        split_streams([seed], n_splits))


@dataclass(frozen=True)
class EvalConfig:
    """Everything that pins down an evaluation run; a config that could not
    run raises ``ValueError`` when it is built."""

    metrics: tuple = ALL_METRICS
    seed: int = 0
    n_splits: int = 100
    k: int = 5
    sigma: float | None = None
    tie_break: str = "global"

    def __post_init__(self):
        if not self.metrics:
            raise ValueError(f"no metrics given; choose from {ALL_METRICS}")
        unknown = [m for m in self.metrics if m not in ALL_METRICS]
        if unknown:
            raise ValueError(f"unknown metrics: {unknown}; choose from {ALL_METRICS}")
        repeated = sorted({m for m in self.metrics if self.metrics.count(m) > 1})
        if repeated:
            raise ValueError(f"metrics named more than once: {repeated}")
        if self.tie_break not in TIE_BREAK_MODES:
            raise ValueError(
                f"unknown tie_break mode {self.tie_break!r}; expected one of {TIE_BREAK_MODES}"
            )
        # a bool is an int to Python, but a seed of False would hash as "False"
        for name, value in (("seed", self.seed), ("n_splits", self.n_splits), ("k", self.k)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.sigma is not None:
            if isinstance(self.sigma, bool) or not isinstance(self.sigma, numbers.Real):
                raise ValueError(f"sigma must be a number, got {self.sigma!r}")
            if not 0 < self.sigma < math.inf:
                raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


@dataclass
class MetricReport:
    """Per-image scores, their aggregates, and the configuration used.

    ``per_image_std`` holds the split spread for the sampled AUC metrics;
    ``aggregate`` is the arithmetic mean of the per-image scores."""

    per_image: dict
    per_image_std: dict
    aggregate: dict
    config: EvalConfig


def _score_image(task: dict, pred: GridMap, cfg: EvalConfig, image_seed: int, draws: dict):
    """Score one image's prediction ``pred`` on each metric of ``cfg``: the
    one place a metric name picks its scorer.

    ``task`` holds the image's inputs from :func:`_score_images`,
    ``image_seed`` seeds its tie-break, and ``draws`` maps each sampled AUC
    to its negatives, drawn on the :func:`split_streams` of ``image_seed``:
    one row of locations per split, or the error its draw raised, raised
    here when that metric's turn comes. The distribution metrics read the
    prediction's density as its values over :func:`_density_scale`, so no
    frame of it is built; a DensityMap is read as it is. Returns the
    id, the scores and the split spread of each sampled AUC."""
    fx: FixationSet = task["fixations"]
    scores: dict = {}
    stds: dict = {}
    scored = total = None
    for name in cfg.metrics:
        if name in ("cc", "sim", "kld", "ig") and total is None:
            total = _density_scale(pred)
        if name == "cc":
            scores[name] = cc(pred, task["gt_density"], total)
        elif name == "sim":
            scores[name] = sim(pred, task["gt_density"], total)
        elif name == "kld":
            scores[name] = kld(task["gt_density"], pred, total)
        elif name == "ig":
            scores[name] = _ig_values(pred.values_at(fx) / total, task["baseline"])
        elif name == "nss":
            scores[name] = nss(pred, fx)
        else:
            if scored is None:
                scored = _tie_break(pred, cfg.tie_break, image_seed)
                positives = scored.values_at(fx)
            if name == "auc_judd":
                scores[name] = auc_complement(scored, fx)
                continue
            if isinstance(draws[name], Exception):
                raise draws[name]
            scores[name], stds[name] = auc_splits(positives, scored, draws[name])
    return task["id"], scores, stds


def _score_images(dataset: DatasetIndex, cfg: EvalConfig, preds, seeds: list,
                  gt_sigma: float):
    """Score the images of ``dataset`` in order, in one pass: yield
    :func:`_score_image` of each of an image's predictions (``preds``
    yields an iterable of them per image, and ``seeds`` holds their seeds
    per image). Each prediction is taken from its iterable when it is
    scored and dropped before the next is taken, and the image's inputs
    before the next image. The inputs are the ``gt_density`` at
    ``gt_sigma``, built only for cc, sim and kld, the ig ``baseline`` at the
    image's fixations, and the pool of each sampled AUC.

    :func:`drawn_chunks` takes each image's iterable as ``preds`` yields it,
    and draws its pools on all their rows of the run's one
    :func:`split_streams`, a failing count standing in for its draw, for
    :func:`_score_image` to raise; a chunk counts one frame an image. The
    centre-bias map is built once and dropped once every image's baseline
    values are gathered."""
    asked = {name: SAMPLED_METRICS[name] for name in cfg.metrics if name in SAMPLED_METRICS}
    streams = split_streams([s for image in seeds for s in image], cfg.n_splits) if asked else None
    needs_gt = any(m in cfg.metrics for m in ("cc", "sim", "kld"))
    baselines = [None] * len(dataset)
    if "ig" in cfg.metrics:
        center = center_bias_map(dataset.frame)
        baselines = [center.values_at(rec.fixations) for rec in dataset.images]
        del center
    n = cfg.n_splits
    for i, image_preds, pools, drawn in drawn_chunks(list(asked.values()), dataset, streams, preds,
                                                     math.prod(dataset.frame), cfg.k, cfg.sigma):
        image = dataset.images[i]
        density = density_from_fixations(image.fixations, gt_sigma) if needs_gt else None
        task = {"id": image.id, "fixations": image.fixations, "gt_density": density,
                "baseline": baselines[i], "pools": {name: pools[s] for name, s in asked.items()}}
        drawn = {name: drawn[s] for name, s in asked.items() if s in drawn}
        image_preds = iter(image_preds)
        for j, image_seed in enumerate(seeds[i]):
            # each prediction's splits are its n rows of the image's draw
            draws = {name: rows if isinstance(rows, Exception) else rows[j * n:(j + 1) * n]
                     for name, rows in drawn.items()}
            yield _score_image(task, next(image_preds), cfg, image_seed, draws)
        del density, pools, task, image_preds, drawn, draws


def _check_frame(image_id: str, frame, dataset: DatasetIndex):
    """Raise :class:`DimensionMismatchError` unless a prediction's ``frame``
    is the dataset's."""
    if frame != dataset.frame:
        raise DimensionMismatchError(
            f"prediction for {image_id!r} is {frame}, dataset frame is {dataset.frame}"
        )


def evaluate_all(dataset: DatasetIndex, predictions: Mapping,
                 config: EvalConfig | None = None) -> MetricReport:
    """Score every image of the dataset, one after another in this process,
    and aggregate per metric.

    ``predictions`` maps image id to a GridMap of matching dimensions; any
    ``Mapping`` will do, and each prediction is looked up once, when its
    image is scored, so a mapping that reads its maps on access keeps one
    map in memory at a time. Every id is checked before any image is
    scored; each prediction's frame is checked when the loop takes it,
    before that image's inputs are built. Results are deterministic for a
    given config seed: each image's sampled draws are seeded from (seed,
    image id).
    """
    cfg = config if config is not None else EvalConfig()
    cfg = replace(cfg, metrics=tuple(cfg.metrics),
                  sigma=dataset.sigma if cfg.sigma is None else float(cfg.sigma))
    for image_id in dataset.ids:
        if image_id not in predictions:
            raise MissingPredictionError(f"no prediction for image {image_id!r}")

    def checked(image_id):
        pred = predictions[image_id]
        _check_frame(image_id, pred.frame, dataset)
        return [pred]

    seeds = [[derive_seed(cfg.seed, image_id)] for image_id in dataset.ids]
    preds = (checked(image_id) for image_id in dataset.ids)
    results = _score_images(dataset, cfg, preds, seeds, cfg.sigma)

    per_image = {}
    per_image_std = {}
    for image_id, scores, stds in sorted(results):
        per_image[image_id] = dict(sorted(scores.items()))
        if stds:
            per_image_std[image_id] = dict(sorted(stds.items()))
    aggregate = {
        m: float(np.mean([per_image[i][m] for i in per_image])) for m in cfg.metrics
    }
    return MetricReport(per_image=per_image, per_image_std=per_image_std,
                        aggregate=dict(sorted(aggregate.items())), config=cfg)
