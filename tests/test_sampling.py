import pickle
import re
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from salmetric.core import DatasetIndex, FixationSet, GridMap, ImageRecord, complement_set
from salmetric.errors import (
    EmptyPoolError,
    EmptyPositivesError,
    FrameMismatchError,
    InvalidSigmaError,
    UndersizedPoolWarning,
    ZeroVarianceError,
)
from salmetric.gaussian import center_bias_map, density_from_fixations
from salmetric.metrics import cc
from salmetric.roc import auc_averaged
from salmetric.sampling import (
    NegativePool,
    SplitStreams,
    draw_count,
    draw_indices,
    draw_pools,
    drawn_chunks,
    farthest_pool,
    negative_pool,
    neighbor_ranking,
    sample_from_pool,
    shuffled_pool,
    split_streams,
)
from salmetric import sampling as sampling_module
from salmetric.seeding import derive_seed
from salmetric.synth import SynthConfig, gen_dataset

FRAME = (64, 64)


def draw_pool(pool, count, streams):
    """:func:`draw_pools` of one draw from ``pool`` on every row of ``streams``."""
    return draw_pools(streams, [(pool, count, range(len(streams)))])[0]


def draw_linear(linear, weights, count, streams):
    """:func:`draw_pool` of the pool of the ascending locations ``linear``
    with draw ``weights`` (``None``: uniform), and the pool's draw
    probabilities, which numpy's own draw takes."""
    pool = NegativePool(FixationSet.from_linear(linear, (int(linear[-1]) + 1, 1)), weights)
    return draw_pool(pool, count, streams), pool.probabilities()


def toy_dataset(sigma=8.0):
    """Three images with fixation clusters at the left edge, center, right edge."""
    return DatasetIndex(
        [
            ImageRecord("left", FixationSet([(10, 30), (12, 32), (14, 34)], FRAME)),
            ImageRecord("center", FixationSet([(30, 30), (32, 32), (34, 34)], FRAME)),
            ImageRecord("right", FixationSet([(50, 30), (52, 32), (54, 34)], FRAME)),
        ],
        name="toy",
        sigma=sigma,
    )


def draw(sampler, image_id, dataset, seed, k=5):
    """One draw of the image's negatives from its ``sampler`` pool."""
    pool = negative_pool(sampler, image_id, dataset, k)
    return sample_from_pool(pool, dataset.image(image_id).fixations, seed)


def borji(positives, seed):
    """A uniform draw of non-fixated locations, from a one-image dataset."""
    return draw("borji", "img", DatasetIndex([ImageRecord("img", positives)]), seed)


def test_judd_examples():
    pos = FixationSet([(0, 0)], (2, 2))
    assert len(complement_set((2, 2), pos)) == 3
    full = FixationSet([(x, y) for x in range(2) for y in range(2)], (2, 2))
    assert len(complement_set((2, 2), full)) == 0
    for n in (0, 1, 3):
        pos = FixationSet.from_linear(np.arange(n), (3, 3))
        assert len(complement_set((3, 3), pos)) + len(pos) == 9


def test_borji_cardinality_and_disjointness():
    rng = np.random.default_rng(0)
    pos = FixationSet.from_linear(rng.choice(32 * 32, size=10, replace=False), (32, 32))
    negs = borji(pos, seed=5)
    assert len(negs) == len(pos)
    assert np.intersect1d(negs.linear, pos.linear).size == 0


def test_borji_determinism_and_seed_sensitivity():
    pos = FixationSet.from_linear(np.arange(10), (32, 32))
    assert borji(pos, seed=1) == borji(pos, seed=1)
    assert borji(pos, seed=1) != borji(pos, seed=2)


def test_borji_insufficient():
    pos = FixationSet([(0, 0), (1, 0), (0, 1)], (2, 2))
    with pytest.warns(UndersizedPoolWarning):
        negs = borji(pos, seed=0)
    assert negs == FixationSet([(1, 1)], (2, 2))  # the whole pool


def test_shuffled_two_image_toy():
    ds = DatasetIndex(
        [
            ImageRecord("a", FixationSet([(0, 0)], (8, 8))),
            ImageRecord("b", FixationSet([(5, 5)], (8, 8))),
        ]
    )
    assert draw("shuffled", "a", ds, seed=0) == FixationSet([(5, 5)], (8, 8))
    assert draw("shuffled", "b", ds, seed=0) == FixationSet([(0, 0)], (8, 8))


def test_shuffled_disjoint_from_positives(bias_dataset):
    for rec in bias_dataset.images[:10]:
        negs = draw("shuffled", rec.id, bias_dataset, seed=3)
        assert np.intersect1d(negs.linear, rec.fixations.linear).size == 0
        assert len(negs) == len(rec.fixations)


def test_shuffled_insufficient():
    ds = DatasetIndex(
        [
            ImageRecord("a", FixationSet([(0, 0), (1, 1)], (8, 8))),
            ImageRecord("b", FixationSet([(5, 5)], (8, 8))),
        ]
    )
    with pytest.warns(UndersizedPoolWarning):
        negs = draw("shuffled", "a", ds, seed=0)
    assert negs == FixationSet([(5, 5)], (8, 8))  # the whole pool


def test_shuffled_draws_concentrate_centrally(bias_dataset):
    """Pooled draws should look like the centered baseline density."""
    center = center_bias_map(FRAME)
    w, h = FRAME
    hits = np.zeros(w * h)
    for rec in bias_dataset.images:
        negs = draw("shuffled", rec.id, bias_dataset, seed=derive_seed(1, rec.id))
        hits[negs.linear] += 1.0
    drawn = FixationSet.from_linear(np.flatnonzero(hits), FRAME)
    score = cc(density_from_fixations(drawn, bias_dataset.sigma), center)
    assert score > 0.5


def test_neighbor_ranking_toy_orders_by_distance():
    ds = toy_dataset()
    ranking = neighbor_ranking("left", ds)
    assert [e[0] for e in ranking.entries] == ["right", "center"]
    # dissimilarities agree with a direct correlation oracle
    dl = density_from_fixations(ds.image("left").fixations, ds.sigma)
    for nid, d in ranking.entries:
        dn = density_from_fixations(ds.image(nid).fixations, ds.sigma)
        assert abs(d - (-cc(dl, dn))) < 1e-9


def test_neighbor_ranking_excludes_self():
    ds = toy_dataset()
    for image_id in ds.ids:
        ranking = neighbor_ranking(image_id, ds)
        assert image_id not in [e[0] for e in ranking.entries]
        assert len(ranking.entries) == len(ds) - 1


def test_identical_images_are_closest():
    ds = DatasetIndex(
        [
            ImageRecord("a", FixationSet([(3, 3)], (16, 16))),
            ImageRecord("b", FixationSet([(3, 3)], (16, 16))),
            ImageRecord("c", FixationSet([(12, 12)], (16, 16))),
        ],
        sigma=2.0,
    )
    ranking = neighbor_ranking("a", ds)
    assert ranking.entries[-1][0] == "b"
    assert abs(ranking.entries[-1][1] - (-1.0)) < 1e-9


def _tie_dataset():
    """Five fixation patterns, each repeated under ids whose string order is
    neither dataset order nor numeric order, so correlations tie exactly."""
    rng = np.random.default_rng(19)
    patterns = [FixationSet.from_linear(rng.choice(24 * 16, size=4, replace=False), (24, 16))
                for _ in range(5)]
    ids = [f"img{n}" for n in rng.permutation(30)]
    return DatasetIndex([ImageRecord(image_id, patterns[n % 5]) for n, image_id in enumerate(ids)],
                        sigma=3.0)


def test_neighbor_ranking_breaks_exact_ties_by_id():
    ds = _tie_dataset()
    cmat = sampling_module._cc_matrix(ds, ds.sigma)
    ties = 0
    for i, image_id in enumerate(ds.ids):
        expected = sorted(((rec.id, float(-cmat[i, j])) for j, rec in enumerate(ds.images)
                           if j != i), key=lambda e: (-e[1], e[0]))
        entries = neighbor_ranking(image_id, ds).entries
        assert entries == tuple(expected)
        ties += sum(a[1] == b[1] for a, b in zip(entries, entries[1:]))
    assert ties > 100


def _stacked_cc(ds, sigma):
    """The neighbour matrix by brute force: every density stacked, centred
    and normed in one call."""
    rows = np.stack([density_from_fixations(rec.fixations, sigma).values.ravel()
                     for rec in ds.images])
    rows -= rows.mean(axis=1, keepdims=True)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return np.clip(rows @ rows.T, -1.0, 1.0)


def _neighbour_orders(ds, cmat):
    """Every image's neighbours as the pool builder ranks them, all images in
    one chunk, on the neighbour matrix ``cmat``."""
    with mock.patch.object(sampling_module, "_cc_matrix", lambda dataset, sigma: cmat):
        return sampling_module._farthest(ds, list(range(len(ds))), len(ds) - 1, ds.sigma)


def _reordered_neighbours(ds, built, stacked):
    """Every place where the two matrices rank an image's neighbours
    differently: the image, the rank, the neighbour each matrix puts there
    and how far apart their stacked correlations lie."""
    out = []
    for i, (a, b) in enumerate(zip(_neighbour_orders(ds, built), _neighbour_orders(ds, stacked))):
        for rank in np.flatnonzero(a != b).tolist():
            out.append((ds.ids[i], rank, ds.ids[a[rank]], ds.ids[b[rank]],
                        float(abs(stacked[i, a[rank]] - stacked[i, b[rank]]))))
    return out


def _random_dataset(rng, n_images, frame, sigma, most):
    w, h = frame
    return DatasetIndex([ImageRecord(f"i{n}", FixationSet.from_linear(
        rng.choice(w * h, size=int(rng.integers(1, most + 1)), replace=False), frame))
        for n in range(n_images)], sigma=sigma)


@pytest.mark.parametrize("n_images, frame, sigma", [
    (2, (9, 7), 1.5), (12, (40, 30), 3.0), (60, (64, 48), 5.0), (25, (160, 120), 19.0),
])
def test_cc_matrix_equals_the_stacked_matrix(n_images, frame, sigma):
    """The matrix built from the kernels' Gram at the fixations stays within
    1e-13 of stacking the densities, and ranks every image's neighbours the
    same."""
    ds = _random_dataset(np.random.default_rng(n_images), n_images, frame, sigma, 11)
    stacked = _stacked_cc(ds, sigma)
    built = sampling_module._cc_matrix(ds, sigma)
    assert np.abs(built - stacked).max() < 1e-13
    assert _reordered_neighbours(ds, built, stacked) == []


@pytest.mark.parametrize("frame", [(4, 3), (5, 7)])
@pytest.mark.parametrize("sigma", [0.15, 0.2, 0.3])
def test_cc_matrix_correlates_a_fully_fixated_frame_as_the_stacked_matrix(frame, sigma):
    """Every pixel fixated under a kernel that barely reaches the next pixel
    blurs to a map whose variance lies far below the rounding of the Gram's
    sums; its row still equals the stacked matrix's, on both sides."""
    w, h = frame
    every = FixationSet([(x, y) for x in range(w) for y in range(h)], frame)
    ds = DatasetIndex([ImageRecord("corner", FixationSet([(0, 0), (1, 0)], frame)),
                       ImageRecord("full", every),
                       ImageRecord("mid", FixationSet([(2, 1), (1, 2)], frame)),
                       ImageRecord("edge", FixationSet([(3, 2)], frame))], sigma=sigma)
    stacked = _stacked_cc(ds, sigma)
    built = sampling_module._cc_matrix(ds, sigma)
    assert np.abs(built - stacked).max() < 1e-13
    assert np.array_equal(built[1], built[:, 1])
    assert _reordered_neighbours(ds, built, stacked) == []


@pytest.mark.parametrize("config", [
    SynthConfig(n_images=4, frame=(640, 480), fixations_per_image=30, cluster_sigma=19),
    SynthConfig(n_images=400, frame=(64, 48), fixations_per_image=15),
    SynthConfig(n_images=1600, frame=(64, 48), fixations_per_image=15),
], ids=["dense-large", "fn-many", "fn-many-1600"])
def test_cc_matrix_ranks_the_benchmark_datasets_as_the_stacked_matrix(config):
    ds = gen_dataset(config)
    stacked = _stacked_cc(ds, ds.sigma)
    built = sampling_module._cc_matrix(ds, ds.sigma)
    assert np.abs(built - stacked).max() < 1e-13
    assert _reordered_neighbours(ds, built, stacked) == []


def _cc_matrix_peak(ds):
    """The tracemalloc peak of building ``ds``'s neighbour matrix, in bytes."""
    tracemalloc.start()
    try:
        sampling_module._cc_matrix(ds, ds.sigma)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cc_matrix_memory_does_not_grow_with_rows_of_several_fixations():
    """The matrix build holds the N × N matrix, the taps' Grams (h² + 2·w²
    floats), one image's Z (at most w·h floats) and gathered taps (w + h
    floats a fixation) and a few arrays of one entry per fixation: with two
    fixations in every row of 24 images at 256×160, its tracemalloc peak
    stays under those plus 16 floats a fixation (3.6 MB), where a Z or a
    blurred map for every image would take 24·160·256 floats (7.9 MB)."""
    n, (w, h) = 24, (256, 160)
    rng = np.random.default_rng(5)
    rows = np.arange(h)[:, None] * w
    ds = DatasetIndex([ImageRecord(f"i{j:02d}", FixationSet.from_linear(
        rows + rng.integers(0, w // 2, size=(h, 1)) + [0, w // 2], (w, h))) for j in range(n)],
        sigma=1.0)
    fixations = sum(len(rec.fixations) for rec in ds.images)
    assert fixations == 2 * n * h
    bound = 8 * (n * n + h * h + 2 * w * w + w * h + (w + h) * 2 * h + 16 * fixations)
    peak = _cc_matrix_peak(ds)
    assert peak < bound, (peak, bound)


def test_cc_matrix_peak_at_the_fn_many_shape():
    """At the benchmark's fn-many shape, 400 images of 64×48 with 15
    fixations each, the build holds the N × N matrix and at most 1.5 MB
    more."""
    ds = gen_dataset(SynthConfig(n_images=400, frame=(64, 48), fixations_per_image=15))
    peak = _cc_matrix_peak(ds)
    assert peak <= 8 * len(ds) ** 2 + 1.5e6, peak


def test_cc_matrix_reorders_only_neighbours_the_stacked_matrix_ties():
    """With 1-3 fixations an image, many pairs of correlations are equal in
    exact arithmetic, and rounding orders them, in either matrix. Any order
    the built matrix changes must be between neighbours whose stacked
    correlations lie within 1e-12, frames from 1 pixel wide up and widths
    from 1e-100, where a kernel peak passes 2**256, to far past the frame."""
    rng = np.random.default_rng(23)
    for trial in range(96):
        frame = tuple(int(v) for v in rng.integers(1, 25, size=2))
        if frame[0] * frame[1] < 4:
            continue
        sigma = float(np.exp(rng.uniform(np.log(0.3), np.log(80.0))))
        if trial % 16 == 0:
            sigma = 1e-100
        ds = _random_dataset(rng, int(rng.integers(2, 12)), frame, sigma, 3)
        stacked = _stacked_cc(ds, sigma)
        built = sampling_module._cc_matrix(ds, sigma)
        assert np.abs(built - stacked).max() < 1e-12, (frame, sigma)
        moved = [r for r in _reordered_neighbours(ds, built, stacked) if r[4] > 1e-12]
        assert moved == [], \
            f"frame {frame}, sigma {sigma}: (image, rank, built, stacked, gap) {moved}"


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_farthest_by_partial_selection_equals_the_full_lexsort(seed):
    """Each row's k farthest by ``np.partition`` and a ``lexsort`` of the
    entries up to the k-th are those of one ``lexsort`` of the whole row, on
    exact ties and on random sets, for k from 1 to N − 1 and chunks of 1, 7
    and N images."""
    if seed is None:
        ds = _tie_dataset()
    else:
        rng = np.random.default_rng(seed)
        ds = _random_dataset(rng, int(rng.integers(20, 40)), (20, 15), 2.0, 3)
    n = len(ds)
    rows = sampling_module._cc_matrix(ds, ds.sigma).copy()
    rows[np.arange(n), np.arange(n)] = 2.0
    rank = np.argsort(sorted(range(n), key=ds.ids.__getitem__))
    full = np.lexsort((np.broadcast_to(rank, rows.shape), rows))
    for k in (1, 2, 5, n - 2, n - 1):
        for size in (1, 7, n):
            got = np.concatenate([sampling_module._farthest(ds, list(range(i, min(i + size, n))),
                                                            k, ds.sigma)
                                  for i in range(0, n, size)])
            assert np.array_equal(got, full[:, :k]), (k, size)


def test_farthest_pool_monotone_in_k(bias_dataset):
    for rec in bias_dataset.images[:5]:
        previous = None
        for k in (1, 3, 7, 20):
            pool = farthest_pool(rec.id, bias_dataset, k)
            if previous is not None:
                assert np.isin(previous.support.linear, pool.support.linear).all()
            previous = pool


def test_farthest_reduces_to_shuffled_at_full_k(bias_dataset):
    n = len(bias_dataset)
    for rec in bias_dataset.images[:5]:
        fn_pool = farthest_pool(rec.id, bias_dataset, n - 1)
        s_pool = shuffled_pool(rec.id, bias_dataset)
        assert fn_pool.support == s_pool.support
        assert np.array_equal(fn_pool.weights, s_pool.weights)
        # identical pools and seed give the identical draw
        assert draw("fn", rec.id, bias_dataset, seed=42, k=n - 1) == \
            draw("shuffled", rec.id, bias_dataset, seed=42)


def test_farthest_toy_negatives_in_far_cluster():
    ds = toy_dataset()
    negs = draw("fn", "left", ds, seed=0, k=1)
    assert np.isin(negs.linear, ds.image("right").fixations.linear).all()


def test_farthest_disjoint_and_no_duplicates(bias_dataset):
    for rec in bias_dataset.images[:10]:
        negs = draw("fn", rec.id, bias_dataset, seed=9, k=5)
        assert np.intersect1d(negs.linear, rec.fixations.linear).size == 0
        assert np.unique(negs.linear).size == len(negs)


def test_farthest_undersized_pool_warns():
    ds = DatasetIndex(
        [
            ImageRecord("a", FixationSet([(x, 0) for x in range(6)], (8, 8))),
            ImageRecord("b", FixationSet([(0, 5), (1, 5)], (8, 8))),
            ImageRecord("c", FixationSet([(6, 6)], (8, 8))),
        ],
        sigma=1.0,
    )
    with pytest.warns(UndersizedPoolWarning):
        negs = draw("fn", "a", ds, seed=0, k=1)
    assert len(negs) < len(ds.image("a").fixations)


def test_farthest_empty_pool():
    ds = DatasetIndex(
        [
            ImageRecord("a", FixationSet([(2, 2)], (8, 8))),
            ImageRecord("b", FixationSet([(2, 2)], (8, 8))),
        ],
        sigma=1.0,
    )
    with pytest.raises(EmptyPoolError):
        draw("fn", "a", ds, seed=0, k=1)


def test_fn_pool_rejects_sigma_whose_blur_underflows():
    """A width so wide that every blurred map underflows to 0 is named as the
    fault, as a density at that width names it, not a constant density."""
    ds = toy_dataset()
    for sigma in (1e200, 1e308):
        with pytest.raises(InvalidSigmaError,
                           match=re.escape(f"sigma {sigma!r} is so wide that the blurred")):
            negative_pool("fn", ds.ids[0], ds, k=1, sigma=sigma)


@pytest.mark.parametrize("frame", [(4, 3), (5, 7)])
def test_fn_pool_names_the_first_image_whose_density_is_constant(frame):
    """Every pixel fixated under a kernel narrower than a pixel blurs to a
    flat map, whose variance the kernel Gram leaves at its rounding; the
    error names the first such image and the width, on frames where that
    rounding lands on either side of 0."""
    w, h = frame
    every = FixationSet([(x, y) for x in range(w) for y in range(h)], frame)
    corner = FixationSet([(0, 0), (1, 0)], frame)
    ds = DatasetIndex([ImageRecord("corner", corner), ImageRecord("full_b", every),
                       ImageRecord("full_a", every)], sigma=1e-3)
    with pytest.raises(ZeroVarianceError, match=re.escape(
            "image 'full_b' has a constant density at sigma 0.001; cannot correlate")):
        negative_pool("fn", "corner", ds, k=1)
    wide = DatasetIndex(ds.images, sigma=1e12)
    with pytest.raises(ZeroVarianceError, match=re.escape(
            "image 'corner' has a constant density at sigma 1000000000000.0")):
        negative_pool("fn", "corner", wide, k=1)


def test_k_bounds(bias_dataset):
    with pytest.raises(ValueError):
        farthest_pool("synth_0000", bias_dataset, 0)
    with pytest.raises(ValueError):
        farthest_pool("synth_0000", bias_dataset, len(bias_dataset))


def test_all_samplers_deterministic(bias_dataset):
    rec = bias_dataset.images[0]
    for sampler in (
        lambda s: borji(rec.fixations, s),
        lambda s: draw("shuffled", rec.id, bias_dataset, s),
        lambda s: draw("fn", rec.id, bias_dataset, s, k=5),
    ):
        assert sampler(77) == sampler(77)


def test_draw_count_decides_every_degenerate_draw():
    frame = (4, 4)
    pool = NegativePool(FixationSet([(0, 0), (1, 1)], frame))
    assert draw_count(pool, FixationSet([(2, 2)], frame)) == 1
    with pytest.warns(UndersizedPoolWarning):
        assert draw_count(pool, FixationSet([(2, 2), (3, 3), (3, 2)], frame)) == 2
    with pytest.raises(EmptyPositivesError):
        draw_count(pool, FixationSet([], frame))
    with pytest.raises(EmptyPoolError):
        draw_count(NegativePool(FixationSet([], frame)), FixationSet([(2, 2)], frame))


def test_sample_from_pool_empty_positives():
    pool = NegativePool(FixationSet([(0, 0), (1, 1)], (4, 4)))
    with pytest.raises(EmptyPositivesError):
        sample_from_pool(pool, FixationSet([], (4, 4)), seed=0)


def test_undersized_pool_warning_names_the_caller():
    frame = (4, 4)
    pool = NegativePool(FixationSet([(0, 0)], frame))
    with pytest.warns(UndersizedPoolWarning) as caught:
        negs = sample_from_pool(pool, FixationSet([(2, 2), (3, 3)], frame), seed=0)
    assert negs == pool.support
    assert caught[0].filename == __file__


def _weighted_support(rng, size, span, max_count):
    """Sorted distinct linear indices below ``span``, with integer weights."""
    linear = np.sort(rng.choice(span, size=size, replace=False))
    return linear, rng.integers(1, max_count + 1, size=size).astype(np.float64)


@pytest.mark.parametrize("size, count, n_seeds, skew", [
    (1, 1, 4, False),        # a single location, drawn whole
    (5, 4, 13, True),        # one heavy entry: many rounds on a tiny pool
    (6, 5, 7, False),
    (40, 40, 3, False),      # the whole pool
    (2240, 2239, 2, False),  # near-full
    (2240, 15, 13, False),
    (300, 150, 1, True),
    (307170, 90, 3, False),  # a full 640x480 frame
    (307170, 90, 8, True),   # every row short after round 1, in two blocks
])
def test_weighted_draw_replays_generator_choice(size, count, n_seeds, skew):
    rng = np.random.default_rng(size * 1000 + count)
    linear, weights = _weighted_support(rng, size, max(4 * size, 16), 6)
    if skew:
        weights[0] = weights.sum()  # half the mass on one entry
    seeds = [derive_seed("replay", size, i) for i in range(n_seeds)]
    rows, p = draw_linear(linear, weights, count, SplitStreams(seeds))
    assert rows.shape == (n_seeds, count)
    for row, seed in zip(rows, seeds):
        expected = np.random.default_rng(seed).choice(linear, count, replace=False, p=p)
        assert np.array_equal(row, np.sort(expected))


@pytest.mark.parametrize("weighted", [False, True])
def test_draw_row_does_not_depend_on_later_seeds(weighted):
    rng = np.random.default_rng(3)
    linear, weights = _weighted_support(rng, 60, 500, 4)
    weights = weights if weighted else None
    seeds = [derive_seed(11, i) for i in range(9)]
    every = draw_linear(linear, weights, 25, SplitStreams(seeds))[0]
    for n in range(len(seeds)):
        rows = draw_linear(linear, weights, 25, SplitStreams(seeds[:n]))[0]
        assert rows.shape == (n, 25) and np.array_equal(rows, every[:n])
    if not weighted:
        for row, seed in zip(every, seeds):
            expected = np.random.default_rng(seed).choice(linear, 25, replace=False)
            assert np.array_equal(row, np.sort(expected))


def test_weighted_draw_is_pinned_without_generator(monkeypatch):
    """Split 0 of three seeds, fixed literally: the weighted draw rests on
    PCG64's raw stream alone, and builds no ``Generator``, bit generator or
    ``SeedSequence``."""
    def no_generator(*args, **kwargs):
        raise AssertionError("the weighted draw must not build a numpy random object")

    for name in ("default_rng", "Generator", "PCG64", "SeedSequence"):
        monkeypatch.setattr(np.random, name, no_generator)
    linear = np.array([3, 7, 8, 15, 21, 30, 42, 50])
    weights = np.array([1.0, 3.0, 2.0, 5.0, 1.0, 4.0, 2.0, 1.0])
    seeds = [derive_seed(s, 0) for s in (0, 1, 2)]
    rows, _ = draw_linear(linear, weights, 4, SplitStreams(seeds))
    assert rows.tolist() == [[8, 15, 30, 50], [3, 21, 30, 42], [15, 30, 42, 50]]


@pytest.mark.parametrize("weights", [
    np.ones((2, 2)),                      # not 1-D
    np.ones(3),                           # one short of the support
    np.array([1.0, np.nan, 1.0, 1.0]),
    np.array([1.0, np.inf, 1.0, 1.0]),
    np.zeros(4),
    np.array([1.0, 0.0, 0.0, 1.0]),
    np.array([1.0, -2.0, 3.0, 1.0]),
    np.full(4, 1e308),                    # finite, but the sum overflows
    np.array([1e300, 1e-300, 1e-300, 1.0]),  # the smallest probabilities underflow to 0
])
def test_pool_rejects_bad_weights(weights):
    support = FixationSet([(0, 0), (1, 1), (2, 2), (3, 3)], (4, 4))
    with pytest.raises(ValueError) as err:
        NegativePool(support, weights)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("p", [None, np.full(5, 0.2)])
def test_draw_rejects_a_negative_count(p):
    with pytest.raises(ValueError) as err:
        draw_linear(np.arange(5), p, -1, SplitStreams([1]))
    assert "\n" not in str(err.value)


def test_draw_rejects_a_count_past_the_pool_without_hanging():
    """A count past the pool once looped for ever on a bound that wrapped
    below zero, and so did a draw of every location of a pool whose
    smallest probabilities underflow to 0; the draws run in a child
    process, so a hang fails the test at its timeout and does not stop the
    suite."""
    code = ("import numpy as np\n"
            "from salmetric.core import FixationSet\n"
            "from salmetric.sampling import NegativePool, SplitStreams, draw_pools\n"
            "support = FixationSet.from_linear(range(5), (5, 1))\n"
            "for p in (None, np.full(5, 0.2)):\n"
            "    try:\n"
            "        draw_pools(SplitStreams([1]), [(NegativePool(support, p), 7, range(1))])\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
            "try:\n"
            "    pool = NegativePool(FixationSet.from_linear(range(4), (4, 1)),\n"
            "                        np.array([1e300, 1e-300, 1e-300, 1.0]))\n"
            "    draw_pools(SplitStreams([1]), [(pool, 3, range(1))])\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("cannot draw 7 distinct locations from a pool of 5\n" * 2
                           + "pool weights span too wide a range: the smallest has probability 0\n")


def test_sample_from_pool_checks_its_frame_and_stream():
    frame = (6, 5)
    pool = NegativePool(excluded=FixationSet([(1, 1), (2, 3)], frame))
    with pytest.raises(FrameMismatchError) as err:
        sample_from_pool(pool, FixationSet([(1, 1), (2, 3)], (5, 6)), seed=0)
    assert "\n" not in str(err.value)
    # the seed is an int: a stream object is refused, not drawn on
    with pytest.raises(ValueError, match="stream seeds must be integers"):
        sample_from_pool(pool, pool.excluded, SplitStreams([1]))


def test_a_frame_mismatch_raises_before_the_undersized_pool_warning():
    """:func:`draw_count` is the one frame check of every draw: it refuses a
    pool of another frame than the positives before it warns of an
    undersized pool, and ``sample_from_pool`` and ``auc_averaged`` raise
    its error in its words, warning nothing first."""
    pool = NegativePool(FixationSet([(0, 0)], (4, 4)))
    positives = FixationSet([(0, 0), (1, 1), (2, 2)], (5, 5))
    message = re.escape("positives index a (5, 5) frame, the pool a (4, 4) frame")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FrameMismatchError, match=f"^{message}$"):
            draw_count(pool, positives)
        with pytest.raises(FrameMismatchError, match=f"^{message}$"):
            sample_from_pool(pool, positives, seed=0)
        with pytest.raises(FrameMismatchError, match=f"^{message}$"):
            auc_averaged(GridMap(np.ones((5, 5))), positives, pool, split_streams([0], 3))


def _lookups(monkeypatch):
    """Record the row blocks of every :func:`sampling._lookup` key array, one
    list per call."""
    calls = []
    lookup = sampling_module._lookup

    def recording(rows_of, *args):
        calls.append([])

        def recorded(a, b):
            calls[-1].append((a, b))
            return rows_of(a, b)
        return lookup(recorded, *args)

    monkeypatch.setattr(sampling_module, "_lookup", recording)
    return calls


# p vectors of one replay: zero-weight entries, non-integer weights, a
# count of every positive entry, one-location pools, and a heavy entry that
# keeps rows short for many rounds
REPLAY_POOLS = [
    (np.array([0.0, 2.5, 0.0, 0.5, 1.25, 0.0]), 3),  # every positive entry
    (np.array([1.0]), 1),                            # one location
    (np.array([0.3, 0.0, 0.7]), 1),
    (np.array([1e6, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0]), 6),
    (np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] * 30), 40),
    (np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]), 7),
]


def test_batched_replay_equals_generator_choice(monkeypatch):
    """Each pool's rows equal numpy's own draw, whatever the other pools of
    the replay, and the rows of the heavy pool need three rounds or more."""
    calls = _lookups(monkeypatch)
    ps = [p / p.sum() for p, _ in REPLAY_POOLS]
    counts = [count for _, count in REPLAY_POOLS]
    seeds = EDGE_SEEDS + [derive_seed("batched", i) for i in range(17)]
    streams = SplitStreams(seeds)
    every = np.arange(len(seeds))
    rows = [every[j::2] if j % 3 else every for j in range(len(ps))]
    drawn = sampling_module._replay_choice(ps, counts, rows, streams)
    assert len(calls) >= 3
    for p, count, pool_rows, got in zip(ps, counts, rows, drawn):
        assert got.shape == (len(pool_rows), count)
        for row, r in zip(got, pool_rows.tolist()):
            expected = np.random.default_rng(seeds[r]).choice(p.size, count, replace=False, p=p)
            assert np.array_equal(row, np.sort(expected))


@pytest.mark.parametrize("offset", [0.0, 2.0 ** -55])
def test_replay_where_a_uniform_meets_the_cdf(offset):
    """A uniform equal to a cdf value (offset 0) passes it; one just below a
    cdf value in the same 2**-53 step (offset 2**-55) does not. Random
    draws almost never land there, so the pool is built around the first
    uniform of each stream."""
    candidates = [derive_seed("edge", i) for i in range(200)]
    first = (SplitStreams(candidates).raw(np.arange(200), 0) >> np.uint64(11)) * 2.0 ** -53
    picked = [(seed, u) for seed, u in zip(candidates, first.tolist()) if 0.125 <= u < 0.25][:4]
    assert len(picked) == 4
    seeds, ps = [seed for seed, _ in picked], []
    for _, u in picked:
        p = np.array([u + offset, 1.0 - (u + offset)])
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        # the first cdf value meets the uniform, or sits in the same step
        assert cdf[0] == u if offset == 0 else u < cdf[0] < u + 2.0 ** -53
        ps.append(p)
    streams = SplitStreams(seeds)
    drawn = sampling_module._replay_choice(ps, [1] * 4, [np.array([j]) for j in range(4)],
                                           streams)
    for seed, p, got in zip(seeds, ps, drawn):
        expected = np.random.default_rng(seed).choice(2, 1, replace=False, p=p)
        assert got.tolist() == [expected.tolist()] == [[1 if offset == 0 else 0]]


def test_batched_replay_splits_its_key_space(monkeypatch):
    """More than 2**10 pools in round 1, and more than 2**10 short rows in
    the rounds after it, each split over several key arrays."""
    calls = _lookups(monkeypatch)
    rng = np.random.default_rng(12)
    ps = [w / w.sum() for w in (rng.integers(1, 5, size=int(n)).astype(float)
                                for n in rng.integers(2, 9, size=1100))]
    counts = [max(1, p.size // 2) for p in ps]
    seeds = [derive_seed("segments", i) for i in range(1100)]
    streams = SplitStreams(seeds)
    drawn = sampling_module._replay_choice(ps, counts, [np.array([j]) for j in range(1100)],
                                           streams)
    assert len(calls[0]) == 2
    for p, count, seed, got in zip(ps, counts, seeds, drawn):
        expected = np.random.default_rng(seed).choice(p.size, count, replace=False, p=p)
        assert got.tolist() == [sorted(expected.tolist())]
    calls.clear()
    heavy = np.ones(12)
    heavy[3] = 1e4
    p = heavy / heavy.sum()
    rows = sampling_module._replay_choice([p], [6], [np.arange(1100)], streams)[0]
    assert len(calls[1]) == 2  # every row is short after round 1
    for row, seed in zip(rows, seeds):
        expected = np.random.default_rng(seed).choice(12, 6, replace=False, p=p)
        assert np.array_equal(row, np.sort(expected))


def test_draw_pools_equals_one_draw_per_pool(bias_dataset):
    """Pools of every sampler, an undersized pool drawn whole, and rows
    shared by several draws: each result is the pool's own draw on its own
    rows, also when a call's lowest row is not the first."""
    images = bias_dataset.images[:6]
    streams = split_streams([derive_seed(5, rec.id) for rec in images], 9)
    draws = []
    for j, rec in enumerate(images):
        for sampler in ("borji", "shuffled", "fn"):
            pool = negative_pool(sampler, rec.id, bias_dataset, 3)
            draws.append((pool, draw_count(pool, rec.fixations), range(9 * j, 9 * j + 9)))
    tiny = NegativePool(FixationSet([(1, 2), (7, 3)], bias_dataset.frame), np.array([1.0, 3.0]))
    draws.append((tiny, 2, range(0, 9)))
    got = draw_pools(streams, draws)
    assert len(got) == len(draws)
    for (pool, count, rows), negatives in zip(draws, got):
        assert negatives.shape == (len(rows), count)
        for row, seed in zip(negatives, streams.seeds[rows.start:rows.stop]):
            expected = np.random.default_rng(seed).choice(len(pool), count, replace=False,
                                                          p=pool.probabilities())
            assert np.array_equal(row, pool.locations(np.sort(expected)))
    middle = draw_pools(streams, draws[6:12])
    assert all(np.array_equal(a, b) for a, b in zip(middle, got[6:12]))
    assert draw_pools(streams, []) == []


EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64 - 1, 2 ** 128 - 1]


def test_stream_words_equal_pcg64_raw():
    seeds = EDGE_SEEDS + [derive_seed("stream", i) for i in range(40)]
    streams = SplitStreams(seeds)
    every = np.arange(len(seeds))[:, None]
    words = streams.raw(every, np.arange(700))
    blocked = streams.with_words(24)
    # inside the block, across its end and far past it
    assert np.array_equal(blocked.raw(every, np.arange(700)), words)
    assert np.array_equal(blocked.raw(every, np.arange(20, 40)), words[:, 20:40])
    for row, seed in enumerate(seeds):
        assert np.array_equal(words[row], np.random.PCG64(seed).random_raw(700))
    rows = np.array([0, 6, 6, 3, 40])
    positions = np.array([699, 0, 23, 24, 511])
    assert np.array_equal(blocked.raw(rows, positions), words[rows, positions])
    # the doubles Generator.random makes of the same words, which _lookup reads
    for row, seed in enumerate(seeds):
        assert np.array_equal((words[row, :5] >> np.uint64(11)) * 2.0 ** -53,
                              np.random.Generator(np.random.PCG64(seed)).random(5))


def test_stream_word_at_a_scalar_row_and_position():
    """Ints index a stream word as index arrays do, with no numpy-scalar
    overflow warning, and give the broadcast shape."""
    streams = SplitStreams([1, 2])
    for view in (streams, streams.with_words(8)):
        assert view.raw(0, 0) == np.random.PCG64(1).random_raw()
        assert view.raw(1, 5) == np.random.PCG64(2).random_raw(6)[5]
        assert view.raw(1, 5).shape == ()
        assert view.raw(1, np.arange(3)).tolist() == np.random.PCG64(2).random_raw(3).tolist()


def test_weighted_draw_reads_words_past_the_block(monkeypatch):
    """One location holds nearly all the mass: round 1 finds little more
    than it, so the rounds after it read well past a block of 2·count
    words, and every row still equals numpy's own draw."""
    linear = np.arange(0, 80, 2)
    weights = np.ones(linear.size)
    weights[7] = 1e12
    count = 36
    seeds = EDGE_SEEDS + [derive_seed("heavy", i) for i in range(9)]
    read = []
    raw = SplitStreams.raw

    def recording(self, rows, positions):
        read.append(int(np.max(positions)))
        return raw(self, rows, positions)

    monkeypatch.setattr(SplitStreams, "raw", recording)
    rows, p = draw_linear(linear, weights, count, SplitStreams(seeds))
    assert max(read) >= 2 * count + 10
    for row, seed in zip(rows, seeds):
        expected = np.random.default_rng(seed).choice(linear, count, replace=False, p=p)
        assert np.array_equal(row, np.sort(expected))


@pytest.mark.parametrize("seed", [-1, 2 ** 128, 2 ** 200, 1.5, "3", None])
def test_stream_seed_out_of_range(seed):
    with pytest.raises(ValueError):
        SplitStreams([4, seed])


def test_split_streams_in_one_call_equal_one_call_per_seed():
    """Rows ``[6·j, 6·j + 6)`` of one call are the streams of a call on
    ``seeds[j]`` alone."""
    seeds = [0, 7, 2 ** 63 - 1, derive_seed(3, "img")]
    together = split_streams(seeds, 6)
    assert len(together) == 6 * len(seeds)
    positions = np.arange(40)
    rows = np.arange(6)[:, None]
    for j, seed in enumerate(seeds):
        alone = split_streams([seed], 6)
        assert together.seeds[6 * j:6 * j + 6] == alone.seeds == tuple(
            derive_seed(seed, i) for i in range(6))
        assert np.array_equal(together.raw(6 * j + rows, positions), alone.raw(rows, positions))
    # streams are plain arrays and ints: a pickle round-trip keeps every
    # word, so a caller can hand them to another process
    every = np.arange(len(together))[:, None]
    assert np.array_equal(pickle.loads(pickle.dumps(together)).raw(every, positions),
                          together.raw(every, positions))


def _isin_pool(image_id, dataset, support, counts):
    """The pool minus the image's own locations, built with ``np.isin``."""
    keep = ~np.isin(support, dataset.image(image_id).fixations.linear)
    return support[keep], counts[keep].astype(np.float64)


def _assert_pool(pool, support, weights):
    assert np.array_equal(pool.support.linear, support)
    assert np.array_equal(pool.weights, weights)


class _ReadLog(tuple):
    """A tuple of image records that logs the positions read by index."""

    log: list

    def __getitem__(self, j):
        self.log.append(j)
        return super().__getitem__(j)


def test_farthest_pool_neighbours_follow_the_ranking_on_exact_ties():
    ds = _tie_dataset()
    ids = ds.ids
    cmat = sampling_module._cc_matrix(ds, ds.sigma)
    ds.images = _ReadLog(ds.images)
    ds.images.log = []
    for i, image_id in enumerate(ids):
        expected = [rec.id for _, rec in sorted(
            ((float(-cmat[i, j]), rec) for j, rec in enumerate(ds.images) if j != i),
            key=lambda e: (-e[0], e[1].id))]
        ranked = [nid for nid, _ in neighbor_ranking(image_id, ds).entries]
        assert ranked == expected
        for k in (1, 2, 5, 6, 13, 29):
            ds.images.log = []
            pool = farthest_pool(image_id, ds, k)
            assert [ds.ids[j] for j in ds.images.log[:k]] == ranked[:k]
            merged = np.concatenate([ds.image(nid).fixations.linear for nid in ranked[:k]])
            _assert_pool(pool, *_isin_pool(image_id, ds, *np.unique(merged, return_counts=True)))


@pytest.mark.parametrize("seed", range(6))
def test_pools_equal_the_isin_construction(seed):
    rng = np.random.default_rng(seed)
    frame = (int(rng.integers(3, 12)), int(rng.integers(3, 12)))
    size = frame[0] * frame[1]
    images = [ImageRecord(f"r{n}", FixationSet.from_linear(
        rng.choice(size, size=int(rng.integers(1, min(size, 9) + 1)), replace=False), frame))
        for n in range(int(rng.integers(2, 12)))]
    # one image on the frame's last pixel alone, past every other location
    images.append(ImageRecord("last", FixationSet.from_linear([size - 1], frame)))
    ds = DatasetIndex(images, sigma=1.0)
    for rec in ds.images:
        _assert_pool(shuffled_pool(rec.id, ds),
                     *_isin_pool(rec.id, ds, ds.pooled.linear, ds.pooled_counts))
        for k in range(1, len(ds)):
            ranked = [nid for nid, _ in neighbor_ranking(rec.id, ds).entries[:k]]
            merged = np.concatenate([ds.image(nid).fixations.linear for nid in ranked])
            _assert_pool(farthest_pool(rec.id, ds, k),
                         *_isin_pool(rec.id, ds, *np.unique(merged, return_counts=True)))


@pytest.mark.parametrize("n, count", [
    (2, 1), (10, 1), (10, 9), (57, 56),  # count 1 and n - 1 on Floyd's branch
    (3057, 15), (307170, 30),            # Floyd, as AUC-Borji draws at 64x48 and 640x480
    (10001, 200), (10001, 201),          # either side of the tail-shuffle cutoff
    (10001, 1), (10001, 10000),          # count 1 and n - 1 on the shuffle branch
    (20000, 5000),
    (2 ** 31 + 1, 40),                   # a bound just past 2**31: half the halves rejected
    (3 * 2 ** 30 + 5, 40),
    (2 ** 32 - 1, 25),                   # the largest pool a draw takes
])
def test_unweighted_draw_replays_generator_choice(n, count):
    """Each row is the set ``default_rng(seed).choice(n, count,
    replace=False)`` draws, on both of its algorithms and where Lemire's
    bounded draw rejects often."""
    seeds = EDGE_SEEDS + [derive_seed("uniform", n, count, i) for i in range(13)]
    rows = draw_indices(n, count, SplitStreams(seeds))
    assert rows.shape == (len(seeds), count)
    for row, seed in zip(rows, seeds):
        expected = np.random.default_rng(seed).choice(n, count, replace=False)
        assert np.array_equal(row, np.sort(expected))


def test_rejecting_rows_are_redrawn_together(monkeypatch):
    """Where about one half in four rejects, most rows reject somewhere; the
    rows that reject are drawn again together, one stream read a pass, and
    each still draws what numpy's ``choice`` draws."""
    n = 3 * 2 ** 30 + 5
    seeds = [derive_seed("redrawn", i) for i in range(200)]
    reads = []
    raw = SplitStreams.raw
    monkeypatch.setattr(SplitStreams, "raw", lambda self, *args: reads.append(args) or raw(self, *args))
    rows = draw_indices(n, 4, SplitStreams(seeds))
    assert len(reads) <= 12
    for row, seed in zip(rows, seeds):
        assert np.array_equal(row, np.sort(np.random.default_rng(seed).choice(n, 4, replace=False)))


def test_a_draw_that_often_rejects_reads_words_in_proportion_to_its_size(monkeypatch):
    """A row of a draw that rejects about one half in four meets a rejection
    every few draws; four times the draws read about four times the words,
    not sixteen, and every row still draws what numpy's ``choice`` draws."""
    n = 3 * 2 ** 30 + 5
    seeds = [derive_seed("often", i) for i in range(20)]
    words = []
    raw = SplitStreams.raw
    monkeypatch.setattr(SplitStreams, "raw", lambda self, rows, positions: words.append(
        np.broadcast(rows, positions).size) or raw(self, rows, positions))
    read = {}
    for count in (200, 800):
        words.clear()
        rows = draw_indices(n, count, SplitStreams(seeds))
        read[count] = sum(words)
        for row, seed in zip(rows, seeds):
            assert np.array_equal(row, np.sort(np.random.default_rng(seed).choice(n, count, replace=False)))
    assert read[800] < 6 * read[200]


def test_a_word_block_serves_a_draw_that_rejects_half_its_halves():
    """An excluded pool of about 2**31 locations rejects about half the
    halves, so every row moves its draws past many rejections, within the
    word block that :func:`draw_pools` reads first."""
    frame = (2 ** 16 + 1, 2 ** 15)
    pool = NegativePool(excluded=FixationSet([(0, 0), (9, 4), (2 ** 16, 2 ** 15 - 1)], frame))
    assert len(pool) == 2 ** 31 + 2 ** 15 - 3
    seeds = [derive_seed("block", i) for i in range(60)]
    rows = draw_pools(SplitStreams(seeds), [(pool, 30, range(60))])[0]
    for row, seed in zip(rows, seeds):
        drawn = np.random.default_rng(seed).choice(len(pool), 30, replace=False)
        assert np.array_equal(row, np.sort(pool.locations(drawn)))


def test_unweighted_draw_of_the_whole_pool_reads_no_stream(monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("a draw of the whole pool read a stream")

    monkeypatch.setattr(SplitStreams, "raw", no_read)
    rows = draw_indices(7, 7, SplitStreams([0, 1]))
    assert rows.tolist() == [list(range(7))] * 2
    for seed in (0, 1):
        assert sorted(np.random.default_rng(seed).choice(7, 7, replace=False)) == list(range(7))


def test_unweighted_draw_is_pinned_without_generator(monkeypatch):
    """Split 0 of three seeds on an implicit pool, fixed literally: the
    unweighted draw, like the weighted one, rests on PCG64's raw stream
    alone."""
    def no_generator(*args, **kwargs):
        raise AssertionError("the unweighted draw must not build a numpy random object")

    expected = []
    pool = NegativePool(excluded=FixationSet([(0, 0), (3, 1), (5, 2)], (8, 4)))
    seeds = [derive_seed(s, 0) for s in (0, 1, 2)]
    for seed in seeds:
        drawn = np.random.default_rng(seed).choice(len(pool), 4, replace=False)
        expected.append(np.sort(complement_set((8, 4), pool.excluded).linear[drawn]).tolist())
    for name in ("default_rng", "Generator", "PCG64", "SeedSequence"):
        monkeypatch.setattr(np.random, name, no_generator)
    rows = draw_pool(pool, 4, SplitStreams(seeds))
    assert rows.tolist() == expected


def test_pool_of_2_to_the_32_locations_is_refused():
    """An implicit pool holds only its excluded locations, so a frame of
    2**32 pixels and more costs O(|F|) memory; a draw from a pool that
    large raises a one-line ValueError, where numpy would draw 64-bit
    bounds instead."""
    frame = (65536, 65537)  # 2**32 + 65536 pixels
    positives = FixationSet([(0, 0), (7, 3), (100, 2)], frame)
    pool = NegativePool(excluded=positives)
    assert len(pool) == 2 ** 32 + 65536 - 3
    with pytest.raises(ValueError) as err:
        sample_from_pool(pool, positives, seed=0)
    assert "\n" not in str(err.value)
    largest = NegativePool(excluded=FixationSet.from_linear(np.arange(65536), frame))
    assert len(largest) == 2 ** 32
    with pytest.raises(ValueError):
        draw_pool(largest, 3, SplitStreams([5]))
    # one location fewer is the largest pool drawn, as numpy draws it
    drawable = NegativePool(excluded=FixationSet.from_linear(np.arange(65537), frame))
    assert len(drawable) == 2 ** 32 - 1
    expected = np.sort(np.random.default_rng(5).choice(2 ** 32 - 1, 3, replace=False)) + 65537
    assert draw_pool(drawable, 3, SplitStreams([5])).tolist() == [expected.tolist()]


@pytest.mark.parametrize("frame, excluded", [
    ((1, 1), []),
    ((4, 3), [0]),
    ((4, 3), [11]),
    ((4, 3), [0, 1, 2, 5, 6, 11]),
    ((4, 3), list(range(11))),
    ((9, 7), [3, 4, 5, 20, 21, 40, 62]),
])
def test_excluded_pool_maps_positions_like_the_complement(frame, excluded):
    fixations = FixationSet.from_linear(excluded, frame)
    pool = NegativePool(excluded=fixations)
    complement = complement_set(frame, fixations)
    assert len(pool) == len(complement)
    assert pool.frame == frame
    assert np.array_equal(pool.locations(np.arange(len(pool))), complement.linear)
    assert pool.probabilities() is None
    clone = pickle.loads(pickle.dumps(pool))
    assert len(clone) == len(pool) and clone.excluded == fixations


def test_pool_takes_one_form():
    support = FixationSet([(0, 0), (1, 1)], (4, 4))
    for bad in ({}, {"support": support, "excluded": support},
                {"excluded": support, "weights": np.ones(2)}):
        with pytest.raises(ValueError) as err:
            NegativePool(**bad)
        assert "\n" not in str(err.value)


def test_borji_pool_builds_no_complement(monkeypatch, bias_dataset):
    """The borji pool and its draws never list the non-fixated locations,
    and draw what the explicit complement draws."""
    rec = bias_dataset.images[5]
    explicit = NegativePool(complement_set(bias_dataset.frame, rec.fixations))

    def refused(*args, **kwargs):
        raise AssertionError("the borji pool must not build its complement")

    monkeypatch.setattr(sampling_module, "complement_set", refused, raising=False)
    pool = negative_pool("borji", rec.id, bias_dataset)
    seeds = [derive_seed(4, i) for i in range(12)]
    implicit_rows = draw_pool(pool, len(rec.fixations), SplitStreams(seeds))
    monkeypatch.undo()
    assert pool.excluded == rec.fixations and pool.support is None
    assert np.array_equal(implicit_rows,
                          draw_pool(explicit, len(rec.fixations), SplitStreams(seeds)))


@pytest.mark.parametrize("command", ["negatives", "quality"])
def test_a_command_seeds_every_image_draw_in_one_pass(monkeypatch, tmp_path, command):
    """``salmetric negatives`` seeds one SplitStreams for all its images, and
    ``quality`` one per sampler, not one per image."""
    from salmetric import cli
    from salmetric.io import write_manifest

    ds = gen_dataset(SynthConfig(n_images=6, frame=(24, 20), fixations_per_image=5, seed=3))
    write_manifest(ds, tmp_path / "manifest.json")
    built = []
    init = SplitStreams.__init__

    def counting(self, seeds):
        built.append(len(tuple(seeds)))
        init(self, seeds)

    monkeypatch.setattr(SplitStreams, "__init__", counting)
    if command == "negatives":
        argv = ["negatives", tmp_path / "manifest.json", "--sampler", "fn", "--k", "2",
                "--out", tmp_path / "negs"]
    else:
        argv = ["quality", tmp_path / "manifest.json", "--samplers", "shuffled,fn:2",
                "--out", tmp_path / "quality.json"]
    assert cli.run([str(a) for a in argv]) == 0
    assert built == [len(ds)] * (1 if command == "negatives" else 2)


@pytest.mark.parametrize("samplers", [[], ["shuffled", "fn"]])
@pytest.mark.parametrize("chunk_floats", [1, None])
def test_drawn_chunks_yield_each_item_as_it_was_taken(monkeypatch, samplers, chunk_floats):
    """The chunk driver yields the very object its caller gave for each
    image, not a copy of its contents, in chunks of one image and in one
    chunk of every image."""
    ds = gen_dataset(SynthConfig(n_images=5, frame=(24, 20), fixations_per_image=5, seed=3))
    if chunk_floats is not None:
        monkeypatch.setattr(sampling_module, "_CHUNK_FLOATS", chunk_floats)
    given = [("item", i) for i in range(len(ds))]
    streams = split_streams(list(range(len(ds))), 2)
    chunks = list(drawn_chunks(samplers, ds, streams, iter(given), 1, k=2))
    assert [i for i, _, _, _ in chunks] == list(range(len(ds)))
    assert all(item is given[i] for i, item, _, _ in chunks)
