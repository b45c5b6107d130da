"""The test suite's oracles, each written the slow, textbook way.

A reference evaluator of the AUC family is the oracle the fast scoring path
of ``evaluate_all`` is checked against, and shares none of that path's
scoring code:

- AUC compares every positive with every negative (ties count one half);
- the borji pool is the set difference of the frame and the fixations;
- the shuffled and fn pools come from dictionaries of fixation counts;
- neighbours are ranked by ``np.corrcoef`` of the fixation densities, equal
  correlations in id order;
- each split draws its negatives with one call of numpy's
  ``Generator.choice``, seeded ``derive_seed(image_seed, split)``.

Only the tie-break maps, the densities and the seed derivation come from
the package; each has tests of its own. The tie-broken map is built whole by
the public ``tie_break_global`` and ``tie_break_noise``, which the scoring
path does not call.

The other oracles:

- :func:`curve_auc`, the trapezoidal area under a ``roc_points`` curve;
- :func:`vectorize`, the binary fixation map;
- :func:`gaussian_kernel` and :func:`dense_convolution`, the 2D kernel and
  the brute-force convolution with it, built apart from the package;
- :func:`tap_loop_correlate` and :func:`blur`, a blur pass as a loop over
  the taps of the package's 1D kernels, which gives the package's bits;
- :func:`distribution_scores`, CC, NSS, SIM, KLD and IG of every image by
  their formulas, against the package's ground-truth densities.
"""

import math

import numpy as np

from salmetric.gaussian import _kernel_1d, density_from_fixations
from salmetric.seeding import derive_seed
from salmetric.smoothing import tie_break_global, tie_break_noise

AUC_METRICS = ("auc_judd", "auc_borji", "s_auc", "fn_auc")


class Abort(Exception):
    """A dataset the evaluator cannot score: some image has no negatives."""


def tie_broken_map(pred, mode: str, image_seed: int):
    """The map the AUCs of ``evaluate_all`` score under tie-break ``mode``:
    a flat map or mode ``off`` leaves it as it is."""
    if mode == "off" or pred.values.min() == pred.values.max():
        return pred
    if mode == "global":
        return tie_break_global(pred)
    return tie_break_noise(pred, derive_seed(image_seed, "tie-noise"))


def pairwise_auc(pos_values, neg_values) -> float:
    """Each positive against each negative: above counts 1, a tie 1/2."""
    pos = np.asarray(pos_values)[:, None]
    neg = np.asarray(neg_values)[None, :]
    if pos.size == 0 or neg.size == 0:
        raise Abort("no positives or no negatives")
    above = int((pos > neg).sum())
    ties = int((pos == neg).sum())
    return (2 * above + ties) / (2 * pos.size * neg.size)


def _counts(fixation_sets) -> dict:
    """How many of the sets hold each location."""
    counts = {}
    for fixations in fixation_sets:
        for location in fixations.linear.tolist():
            counts[location] = counts.get(location, 0) + 1
    return counts


def farthest(dataset, i: int, k: int, sigma: float) -> list:
    """Positions of the ``k`` images least correlated with image ``i``."""
    maps = [density_from_fixations(rec.fixations, sigma).values.ravel() for rec in dataset.images]
    corr = np.corrcoef(np.array(maps))
    others = sorted((j for j in range(len(dataset)) if j != i),
                    key=lambda j: (corr[i, j], dataset.images[j].id))
    return others[:k]


def pool_counts(metric: str, dataset, i: int, k: int, sigma: float):
    """Image ``i``'s candidate negatives for a sampled AUC, in location
    order, and how many of the pooled images fixated each (``None`` for
    uniform); both may be empty."""
    own = set(dataset.images[i].fixations.linear.tolist())
    width, height = dataset.frame
    if metric == "auc_borji":
        return np.array(sorted(set(range(width * height)) - own), dtype=np.int64), None
    if metric == "s_auc":
        counts = _counts(rec.fixations for j, rec in enumerate(dataset.images) if j != i)
    else:
        counts = _counts(dataset.images[j].fixations for j in farthest(dataset, i, k, sigma))
    locations = sorted(set(counts) - own)
    return (np.array(locations, dtype=np.int64),
            np.array([counts[location] for location in locations], dtype=np.float64))


def pool(metric: str, dataset, i: int, k: int, sigma: float):
    """Image ``i``'s candidate negatives for a sampled AUC, in location
    order, and their draw probabilities (``None`` for uniform)."""
    locations, weights = pool_counts(metric, dataset, i, k, sigma)
    if not locations.size:
        raise Abort("empty pool")
    return locations, None if weights is None else weights / weights.sum()


def evaluate(dataset, predictions: dict, config) -> tuple:
    """Per-image scores and split spreads of the AUC metrics of ``config``,
    as ``evaluate_all`` reports them; raises :class:`Abort` where it
    cannot score."""
    sigma = dataset.sigma if config.sigma is None else float(config.sigma)
    scores, stds = {}, {}
    for i, rec in enumerate(dataset.images):
        image_seed = derive_seed(config.seed, rec.id)
        flat = tie_broken_map(predictions[rec.id], config.tie_break, image_seed).values.ravel()
        positives = flat[rec.fixations.linear]
        scores[rec.id], image_stds = {}, {}
        for metric in config.metrics:
            if metric == "auc_judd":
                others = sorted(set(range(flat.size)) - set(rec.fixations.linear.tolist()))
                scores[rec.id][metric] = pairwise_auc(positives, flat[others])
                continue
            locations, p = pool(metric, dataset, i, config.k, sigma)
            count = min(len(locations), len(positives))
            splits = []
            for split in range(config.n_splits):
                rng = np.random.default_rng(derive_seed(image_seed, split))
                drawn = rng.choice(locations, count, replace=False, p=p)
                splits.append(pairwise_auc(positives, flat[drawn]))
            scores[rec.id][metric] = float(np.mean(splits))
            image_stds[metric] = float(np.std(splits))
        if image_stds:
            stds[rec.id] = image_stds
    return scores, stds


def curve_auc(curve) -> float:
    """Trapezoidal integral of a ``RocCurve``'s tpr over its fpr."""
    fpr, tpr = np.array(curve.points).T
    return float(0.5 * np.sum(np.diff(fpr) * (tpr[:-1] + tpr[1:])))


def vectorize(fixations) -> np.ndarray:
    """The binary map of a fixation set: 1 at each fixation, 0 elsewhere."""
    width, height = fixations.frame
    out = np.zeros((height, width))
    out[fixations.ys, fixations.xs] = 1.0
    return out


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Square 2D kernel sampled from the isotropic Gaussian of width
    ``sigma`` and cut at three widths; the centre is exactly 1 / (2 pi
    sigma^2), and the kernel is not renormalised after the cut."""
    r = math.ceil(3.0 * sigma)
    sq = np.arange(-r, r + 1, dtype=np.float64) ** 2
    peak = 1.0 / (2.0 * math.pi * sigma * sigma)
    return peak * np.exp(-(sq[:, None] + sq[None, :]) / (2.0 * sigma * sigma))


def dense_convolution(values: np.ndarray, sigma: float) -> np.ndarray:
    """Each output pixel as the sum of its window of the zero-padded map
    times :func:`gaussian_kernel`."""
    kernel = gaussian_kernel(sigma)
    r = kernel.shape[0] // 2
    h, w = values.shape
    padded = np.pad(values, r)
    out = np.zeros_like(values)
    for y in range(h):
        for x in range(w):
            out[y, x] = np.sum(padded[y:y + 2 * r + 1, x:x + 2 * r + 1] * kernel)
    return out


def tap_loop_correlate(values: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """One blur pass along ``axis``: a loop over the kernel taps, each adding
    its weighted, shifted copy of the zero-padded map to every output pixel."""
    n = values.shape[axis]
    r = kernel.size // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (r, r)
    padded = np.pad(values, pad)
    out = np.zeros_like(values)
    index = [slice(None), slice(None)]
    for k in range(kernel.size):
        index[axis] = slice(k, k + n)
        out += kernel[k] * padded[tuple(index)]
    return out


def blur(values: np.ndarray, sigma: float) -> np.ndarray:
    """The separable blur, x pass first, of a map at ``sigma``."""
    h, w = values.shape
    out = tap_loop_correlate(values, _kernel_1d(sigma, w), axis=1)
    return tap_loop_correlate(out, _kernel_1d(sigma, h), axis=0)


def center_bias(frame) -> np.ndarray:
    """The centred Gaussian density, a quarter of the frame wide per axis."""
    width, height = frame
    y, x = np.mgrid[0:height, 0:width]
    field = np.exp(-(x - (width - 1) / 2.0) ** 2 / (2.0 * (width / 4.0) ** 2)
                   - (y - (height - 1) / 2.0) ** 2 / (2.0 * (height / 4.0) ** 2))
    return field / field.sum()


def distribution_scores(dataset, predictions: dict, sigma: float) -> dict:
    """Each image's CC, NSS, SIM, KLD and IG, as ``evaluate_all`` reports
    them. The prediction's density is the map over its sum, the ground
    truth the fixations' density at ``sigma``, and ``eps`` the float64
    epsilon. CC and NSS are ``None`` where the prediction is constant: a
    correlation and a z-score are then undefined."""
    eps = float(np.finfo(np.float64).eps)
    baseline = center_bias(dataset.frame)
    scores = {}
    for rec in dataset.images:
        raw = predictions[rec.id].values
        p = raw / raw.sum()
        g = density_from_fixations(rec.fixations, sigma).values
        at = (rec.fixations.ys, rec.fixations.xs)
        cc = nss = None
        if raw.min() != raw.max():
            dp, dg = p - p.mean(), g - g.mean()
            cc = float(np.sum(dp * dg) / np.sqrt(np.sum(dp ** 2) * np.sum(dg ** 2)))
            nss = float(np.mean((raw[at] - raw.mean()) / raw.std()))
        has_mass = g > 0.0
        scores[rec.id] = {
            "cc": cc,
            "nss": nss,
            "sim": float(np.sum(np.minimum(p, g))),
            "kld": float(np.sum(g[has_mass] * np.log(g[has_mass] / (p[has_mass] + eps)))),
            "ig": float(np.mean(np.log2(p[at] + eps) - np.log2(baseline[at] + eps))),
        }
    return scores
