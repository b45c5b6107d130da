"""Negative sets: the pools every sampled AUC and sampler draws from.

:func:`negative_pool` maps a sampler name to an image's :class:`NegativePool`:
the deduplicated support set plus per-location draw weights. Weights count how
many images fixated a location, so sampling reproduces the dataset's fixation
distribution even when many fixations collide on a small grid; the support
set alone would flatten it. :func:`sample_from_pool` draws one negative set
from a pool, and :func:`draw_count` decides its size. :func:`draw_linear` is
the one draw underneath both it and every sampled AUC, with a split axis.
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

    def __post_init__(self):
        if self.weights is None:
            return
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(self.support),):
            raise ValueError(f"pool weights must be a 1-D array of {len(self.support)} entries, "
                             f"one per support location; got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("pool weights must be finite")
        if not np.all(w > 0.0):
            raise ValueError("pool weights must be strictly positive")
        with np.errstate(over="ignore"):
            if not np.isfinite(w.sum()):
                raise ValueError("pool weights sum past the float range; scale them down")
        object.__setattr__(self, "weights", w)

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


def draw_linear(linear: np.ndarray, p: np.ndarray | None, count: int, seeds) -> np.ndarray:
    """The one negative draw, with a split axis: a ``len(seeds) × count``
    array whose row i holds ``count`` distinct entries of ``linear``, drawn
    with seed ``seeds[i]``, in the order they appear in ``linear``.

    Row i is the set ``np.random.default_rng(seeds[i]).choice(linear, count,
    replace=False, p=p)`` draws, and does not depend on the other seeds. A
    weighted draw replays that call on each seed's PCG64 raw output for all
    rows at once (:func:`_replay_choice`); an unweighted one (``p`` is
    ``None``) calls ``Generator.choice`` once per seed. A draw of the whole
    of ``linear`` needs no generator."""
    linear = np.asarray(linear)
    count = int(count)
    rows = len(seeds)
    if count == linear.size:
        return np.tile(linear, (rows, 1))
    if p is None:
        idx = [np.random.default_rng(s).choice(linear.size, count, replace=False) for s in seeds]
        return linear[np.sort(np.array(idx, dtype=np.intp).reshape(rows, count), axis=1)]
    p = np.asarray(p, dtype=np.float64)  # as choice converts it
    if np.count_nonzero(p > 0.0) < count:
        raise ValueError(f"fewer than {count} locations have a positive draw probability")
    taken = _replay_choice(p, count, [np.random.PCG64(s) for s in seeds])
    return linear[np.nonzero(taken)[1]].reshape(rows, count)


def _uniforms(bits: "np.random.PCG64", n: int) -> np.ndarray:
    """The next ``n`` doubles ``Generator.random`` would give on ``bits``."""
    return (bits.random_raw(int(n)) >> np.uint64(11)) * 2.0 ** -53


def _replay_choice(p: np.ndarray, count: int, bits: list) -> np.ndarray:
    """Which entries ``Generator.choice(len(p), count, replace=False, p=p)``
    draws on each bit generator, as a ``len(bits) × len(p)`` mask.

    ``choice`` runs rounds: it draws ``count - found`` uniforms, zeroes the
    found entries of ``p``, looks the uniforms up in ``cdf = cumsum(p) /
    cdf[-1]`` with ``searchsorted(side="right")`` and keeps the new entries.
    Here every row runs those rounds in lockstep, on the same floats. A
    zeroed entry is never looked up again, so a row's set after a round is
    the union of its lookups so far. Round 1 shares one cdf across rows; later
    rounds run only for the rows still short, a block of rows at a time, so
    their cdfs never hold more than about 2**21 floats."""
    rows = len(bits)
    taken = np.zeros((rows, p.size), dtype=bool)
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    first = cdf.searchsorted(np.reshape([_uniforms(b, count) for b in bits], (rows, count)),
                             side="right")
    taken[np.arange(rows)[:, None], first] = True
    found = taken.sum(axis=1)
    short = np.flatnonzero(found < count)
    block = max(1, 2 ** 21 // p.size)
    while short.size:
        for start in range(0, short.size, block):
            part = short[start:start + block]
            cdfs = np.cumsum(np.where(taken[part], 0.0, p), axis=1)
            cdfs /= cdfs[:, -1:].copy()
            for r, row_cdf in zip(part.tolist(), cdfs):
                new = row_cdf.searchsorted(_uniforms(bits[r], count - found[r]), side="right")
                taken[r, new] = True
        found[short] = taken[short].sum(axis=1)
        short = short[found[short] < count]
    return taken


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
    The support is in canonical order, so a seed pins the draw exactly: it
    is row 0 of :func:`draw_linear` with ``seeds=[seed]``."""
    count = draw_count(pool, positives)
    take = draw_linear(pool.support.linear, pool.probabilities(), count, [seed])[0]
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
