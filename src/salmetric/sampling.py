"""Negative sets: the pools every sampled AUC and sampler draws from.

:func:`negative_pool` maps a sampler name to an image's :class:`NegativePool`:
the deduplicated support set plus per-location draw weights. Weights count how
many images fixated a location, so sampling reproduces the dataset's fixation
distribution even when many fixations collide on a small grid; the support
set alone would flatten it. :func:`sample_from_pool` draws one negative set
from a pool, and :func:`draw_count` decides its size.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import DatasetIndex, FixationSet, complement_set
from .errors import EmptyPoolError, EmptyPositivesError, UndersizedPoolWarning, ZeroVarianceError
from .gaussian import density_from_fixations


@dataclass(frozen=True)
class NegativePool:
    """Candidate negatives: a support set and optional draw weights.

    ``weights`` is aligned with ``support.linear``; ``None`` means uniform."""

    support: FixationSet
    weights: np.ndarray | None = None

    def __len__(self):
        return len(self.support)

    def probabilities(self) -> np.ndarray | None:
        """Draw probability of each support location; ``None`` means uniform."""
        return None if self.weights is None else self.weights / self.weights.sum()


@dataclass(frozen=True)
class NeighborList:
    """Per-image ranking of all other images, least similar first.

    Dissimilarity is the negated correlation of the two blurred fixation
    densities; equal scores fall back to id order.
    """

    query: str
    entries: tuple  # of (image id, dissimilarity)


def draw_linear(linear: np.ndarray, p: np.ndarray | None, count: int, seed: int) -> np.ndarray:
    """The one negative draw: ``count`` distinct entries of ``linear``, picked
    with probabilities ``p`` (``None``: uniform) by a generator seeded with
    ``seed``. Every sampler and sampled AUC draws through here."""
    rng = np.random.default_rng(seed)
    return rng.choice(linear, size=int(count), replace=False, p=p)


def draw_count(pool: NegativePool, positives: FixationSet) -> int:
    """How many negatives to draw from ``pool`` against ``positives``.

    The one pool-size rule of every sampler and sampled AUC, and the one
    place a degenerate draw is decided: one negative per positive; an empty
    pool raises :class:`EmptyPoolError`; empty positives raise
    :class:`EmptyPositivesError`; a pool smaller than the positives is used
    whole, with an :class:`UndersizedPoolWarning`."""
    if len(pool) == 0:
        raise EmptyPoolError("no negative candidates left after removing the positives")
    if len(positives) == 0:
        raise EmptyPositivesError("no positive locations to draw negatives against")
    if len(pool) < len(positives):
        warnings.warn(
            f"negative pool ({len(pool)}) smaller than the positive set "
            f"({len(positives)}); using the whole pool",
            UndersizedPoolWarning,
            stacklevel=3,
        )
        return len(pool)
    return len(positives)


def sample_from_pool(pool: NegativePool, positives: FixationSet, seed: int) -> FixationSet:
    """One negative set: :func:`draw_count` distinct locations of the pool.

    With :func:`negative_pool`, the public way to draw a sampler's negatives.
    The support is in canonical order, so a seed pins the draw exactly."""
    count = draw_count(pool, positives)
    take = draw_linear(pool.support.linear, pool.probabilities(), count, seed)
    return FixationSet.from_linear(take, pool.support.frame)


def _pool_without(image_id: str, dataset: DatasetIndex, support, counts) -> NegativePool:
    """Sorted, repeat-free ``support`` weighted by ``counts``, minus the image's own."""
    keep = ~np.isin(support, dataset.image(image_id).fixations.linear, assume_unique=True)
    kept = FixationSet.from_linear(support[keep], dataset.frame)
    return NegativePool(kept, counts[keep].astype(np.float64))


def shuffled_pool(image_id: str, dataset: DatasetIndex) -> NegativePool:
    """Fixations pooled from the whole dataset, minus this image's own."""
    return _pool_without(image_id, dataset, dataset.pooled.linear, dataset.pooled_counts)


def _cc_matrix(dataset: DatasetIndex, sigma: float, densities=None) -> np.ndarray:
    """Pairwise correlation of per-image densities, cached on the dataset.

    ``densities``, the images' densities at ``sigma`` in dataset order, are
    used in place of blurring every image again; only the matrix is cached."""
    key = ("density_cc", float(sigma))
    cached = dataset._cache.get(key)
    if cached is None:
        if densities is None:
            densities = (density_from_fixations(rec.fixations, sigma) for rec in dataset.images)
        rows = np.stack([d.values.ravel() for d in densities])
        rows -= rows.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise ZeroVarianceError("an image density is constant; cannot correlate")
        rows /= norms
        cached = np.clip(rows @ rows.T, -1.0, 1.0)
        dataset._cache[key] = cached
    return cached


def _id_rank(dataset: DatasetIndex) -> np.ndarray:
    """Each image's position in id order, cached on the dataset."""
    rank = dataset._cache.get("id_rank")
    if rank is None:
        by_id = sorted(range(len(dataset)), key=lambda j: dataset.images[j].id)
        rank = np.empty(len(dataset), dtype=np.int64)
        rank[by_id] = np.arange(len(dataset))
        dataset._cache["id_rank"] = rank
    return rank


def neighbor_ranking(image_id: str, dataset: DatasetIndex, sigma: float | None = None) -> NeighborList:
    """Order the other images by how unlike their fixation density is."""
    if len(dataset) < 2:
        raise ValueError("need at least two images to rank neighbors")
    sigma = dataset.sigma if sigma is None else sigma
    cmat = _cc_matrix(dataset, sigma)
    i = dataset.index(image_id)
    others = np.delete(np.arange(len(dataset)), i)
    # lowest correlation first; equal correlations in id order
    order = others[np.lexsort((_id_rank(dataset)[others], cmat[i, others]))]
    ids = dataset.ids
    entries = zip([ids[j] for j in order.tolist()], (-cmat[i, order]).tolist())
    return NeighborList(query=image_id, entries=tuple(entries))


def farthest_pool(image_id: str, dataset: DatasetIndex, k: int, sigma: float | None = None) -> NegativePool:
    """Union of the top-k farthest neighbors' fixations, minus this image's own."""
    if not (1 <= k <= len(dataset) - 1):
        raise ValueError(f"k must be in [1, {len(dataset) - 1}], got {k}")
    ranking = neighbor_ranking(image_id, dataset, sigma)
    merged = np.concatenate([dataset.image(nid).fixations.linear for nid, _ in ranking.entries[:k]])
    support, counts = np.unique(merged, return_counts=True)
    return _pool_without(image_id, dataset, support, counts)


def negative_pool(sampler: str, image_id: str, dataset: DatasetIndex, k: int = 5,
                  sigma: float | None = None) -> NegativePool:
    """The one map from a sampler name to the image's pool: ``borji``, every
    non-fixated location; ``shuffled``, :func:`shuffled_pool`; ``fn``,
    :func:`farthest_pool` over ``k`` neighbours ranked at ``sigma``."""
    if sampler == "borji":
        return NegativePool(complement_set(dataset.frame, dataset.image(image_id).fixations))
    if sampler == "shuffled":
        return shuffled_pool(image_id, dataset)
    if sampler == "fn":
        return farthest_pool(image_id, dataset, k, sigma)
    raise ValueError(f"unknown sampler {sampler!r}; expected borji, shuffled or fn")
