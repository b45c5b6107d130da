"""A slow reference evaluator of the AUC family, written the textbook way.

It is the oracle the fast scoring path of ``evaluate_all`` is checked
against, and shares none of that path's scoring code:

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
"""

import numpy as np

from salmetric.gaussian import density_from_fixations
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
