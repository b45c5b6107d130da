"""Synthetic fixation datasets and reference predictors.

The generator mixes a centered draw with per-image object clusters, which is
enough to reproduce the qualitative behaviors the metric suite should detect:
center bias, peripheral bias, blur-width sensitivity, and tie-break effects.
"""

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    DatasetIndex,
    FixationSet,
    Frame,
    GridMap,
    ImageRecord,
    complement_set,
)
from .errors import UnknownModeError
from .gaussian import center_bias_map, density_from_fixations
from .metrics import EvalConfig, _score_images
from .seeding import derive_seed

PREDICTOR_MODES = ("oracle", "center", "peripheral", "quantized", "uniform")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SynthConfig:
    n_images: int = 200
    frame: Frame = (64, 64)
    fixations_per_image: int = 20
    center_bias_strength: float = 0.8  # mixing weight of the centered draw
    n_object_clusters: int = 3
    cluster_sigma: float = 3.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_images", "fixations_per_image", "n_object_clusters", "seed"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("center_bias_strength", "cluster_sigma"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not (isinstance(self.frame, tuple) and len(self.frame) == 2
                and all(_is_integer(v) and v >= 1 for v in self.frame)):
            raise ValueError(f"'frame' must be two integers of at least 1, got {self.frame!r}")
        if self.n_images < 1 or self.fixations_per_image < 1 or self.n_object_clusters < 1:
            raise ValueError("counts must be at least 1")
        if not (0.0 <= self.center_bias_strength <= 1.0):
            raise ValueError("center_bias_strength must be in [0, 1]")
        if not 0 < self.cluster_sigma < math.inf:
            raise ValueError(f"cluster_sigma must be positive and finite, got {self.cluster_sigma}")
        w, h = self.frame
        if w * h < self.fixations_per_image:
            raise ValueError("frame too small for the requested fixations per image")


def gen_dataset(config: SynthConfig) -> DatasetIndex:
    """Deterministic synthetic dataset; each image's draws are seeded from
    (config.seed, image index).

    Cluster centers are drawn from the centered density; each fixation comes
    from the centered density with probability ``center_bias_strength`` and
    from a cluster Gaussian otherwise, clamped in-bounds. Duplicates are
    redrawn."""
    w, h = config.frame
    # the CDF numpy's weighted choice would rebuild on every call; drawing
    # through it with uniforms takes the same stream
    center_cdf = center_bias_map(config.frame).values.ravel().cumsum()
    center_cdf /= center_cdf[-1]
    images = []
    for i in range(config.n_images):
        rng = np.random.default_rng(derive_seed(config.seed, "image", i))
        center_linear = center_cdf.searchsorted(rng.random(config.n_object_clusters), side="right")
        clusters = [(int(lin) % w, int(lin) // w) for lin in center_linear]
        chosen: set[int] = set()
        attempts = 0
        while len(chosen) < config.fixations_per_image:
            attempts += 1
            if attempts > 200 * config.fixations_per_image:
                # grid nearly exhausted; fill from whatever pixels are left
                taken = FixationSet.from_linear(np.fromiter(chosen, dtype=np.int64), (w, h))
                rest = complement_set((w, h), taken).linear
                need = config.fixations_per_image - len(chosen)
                chosen.update(int(v) for v in rng.choice(rest, size=need, replace=False))
                break
            if rng.random() < config.center_bias_strength:
                linear = int(center_cdf.searchsorted(rng.random(), side="right"))
            else:
                cx, cy = clusters[int(rng.integers(config.n_object_clusters))]
                x = int(round(cx + rng.normal(0.0, config.cluster_sigma)))
                y = int(round(cy + rng.normal(0.0, config.cluster_sigma)))
                x = min(max(x, 0), w - 1)
                y = min(max(y, 0), h - 1)
                linear = y * w + x
            chosen.add(linear)
        fixations = FixationSet.from_linear(np.fromiter(chosen, dtype=np.int64), (w, h))
        images.append(ImageRecord(id=f"synth_{i:04d}", fixations=fixations))
    # cluster_sigma is the blur width that best reconstructs the generating density
    return DatasetIndex(images, name="synthetic", sigma=config.cluster_sigma)


def gen_prediction(image: ImageRecord, mode: str, sigma: float) -> GridMap:
    """Reference predictor for one image.

    oracle      density of the image's own fixations at ``sigma``
    center      the centered Gaussian baseline
    peripheral  inverted center map, re-normalized to peak 1
    quantized   oracle binned into 3 equal-count value steps
    uniform     constant map
    """
    w, h = image.frame
    if mode == "oracle":
        return density_from_fixations(image.fixations, sigma)
    if mode == "center":
        return center_bias_map((w, h))
    if mode == "peripheral":
        center = center_bias_map((w, h)).values
        inverted = 1.0 - center / center.max()
        return GridMap._adopt(inverted / inverted.max())
    if mode == "quantized":
        return quantize_map(density_from_fixations(image.fixations, sigma))
    if mode == "uniform":
        return GridMap._adopt(np.full((h, w), 0.5))
    raise UnknownModeError(f"unknown predictor mode {mode!r}; choose from {PREDICTOR_MODES}")


def quantize_map(source, levels: int = 3) -> GridMap:
    """Bin a map into ``levels`` equal-count value steps spaced over [0, 1]."""
    if levels < 2:
        raise ValueError("quantization needs at least 2 levels")
    v = source.values
    edges = np.quantile(v, [i / levels for i in range(1, levels)])
    bins = np.zeros(v.shape, dtype=np.float64)
    for edge in edges:
        bins += (v > edge).astype(np.float64)
    return GridMap._adopt(bins / (levels - 1))


@dataclass(frozen=True)
class SweepTable:
    """Per-metric score rows over a grid of training blur widths.

    ``deviation`` is the population standard deviation of each row: the
    smaller it is, the less the metric cares about the blur width used to
    build the prediction."""

    sigmas: tuple
    sigma_gt: float
    scores: dict  # metric -> tuple of mean scores, aligned with sigmas
    deviation: dict  # metric -> float


def sigma_sweep(dataset: DatasetIndex, sigma_train, sigma_gt: float | None = None,
                metrics=("cc", "nss", "auc_judd"), seed: int = 0, n_splits: int = 100,
                k: int = 5) -> SweepTable:
    """Score the oracle predictor rebuilt at each training width against a
    fixed ground-truth width.

    Distribution metrics compare the prediction density at each train width
    with the ground-truth density at ``sigma_gt``; location metrics score the
    prediction against the raw fixations. Each image's item binds its
    fixations when it is yielded and builds one width's density as it is
    scored, so one width's prediction is held at a time."""
    sigma_train = tuple(float(s) for s in sigma_train)
    if not sigma_train:
        raise ValueError("need at least one training width")
    repeated = sorted({s for s in sigma_train if sigma_train.count(s) > 1})
    if repeated:
        raise ValueError(f"training widths named more than once: {repeated}")
    metrics = tuple(metrics)
    sigma_gt = dataset.sigma if sigma_gt is None else float(sigma_gt)
    if not 0 < sigma_gt < math.inf:
        raise ValueError(f"sigma_gt must be positive and finite, got {sigma_gt}")
    # fn_auc ranks neighbors at the dataset's own width, not at sigma_gt
    config = EvalConfig(metrics=metrics, seed=seed, n_splits=n_splits, k=k, sigma=dataset.sigma)
    seeds = [[derive_seed(seed, "sweep", st, image_id) for st in sigma_train]
             for image_id in dataset.ids]
    preds = (map(density_from_fixations, itertools.repeat(rec.fixations), sigma_train)
             for rec in dataset.images)
    # each training width's sums take the images in dataset order
    sums = {m: [0.0] * len(sigma_train) for m in metrics}
    for j, (_, scores, _) in enumerate(_score_images(dataset, config, preds, seeds, sigma_gt)):
        for m in metrics:
            sums[m][j % len(sigma_train)] += scores[m]
    scores = {m: tuple(total / len(dataset) for total in sums[m]) for m in metrics}
    deviation = {m: float(np.std(scores[m])) for m in metrics}
    return SweepTable(sigmas=sigma_train, sigma_gt=sigma_gt, scores=scores, deviation=deviation)
