import numpy as np
import pytest

from salmetric.core import DatasetIndex, FixationSet, ImageRecord, complement_set
from salmetric.errors import EmptyPoolError, EmptyPositivesError, UndersizedPoolWarning
from salmetric.gaussian import center_bias_map, density_from_fixations
from salmetric.sampling import (
    NegativePool,
    draw_count,
    farthest_pool,
    negative_pool,
    neighbor_ranking,
    sample_from_pool,
    shuffled_pool,
)
from salmetric import sampling as sampling_module
from salmetric.seeding import derive_seed
from salmetric.stats import pearson

FRAME = (64, 64)


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
    score = pearson(density_from_fixations(drawn, bias_dataset.sigma).values, center.values)
    assert score > 0.5


def test_neighbor_ranking_toy_orders_by_distance():
    ds = toy_dataset()
    ranking = neighbor_ranking("left", ds)
    assert [e[0] for e in ranking.entries] == ["right", "center"]
    # dissimilarities agree with a direct correlation oracle
    dl = density_from_fixations(ds.image("left").fixations, ds.sigma).values
    for nid, d in ranking.entries:
        dn = density_from_fixations(ds.image(nid).fixations, ds.sigma).values
        assert abs(d - (-pearson(dl, dn))) < 1e-9


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


def test_neighbor_ranking_breaks_exact_ties_by_id():
    # five fixation patterns, each repeated under ids whose string order is
    # neither dataset order nor numeric order, so correlations tie exactly
    rng = np.random.default_rng(19)
    patterns = [FixationSet.from_linear(rng.choice(24 * 16, size=4, replace=False), (24, 16))
                for _ in range(5)]
    ids = [f"img{n}" for n in rng.permutation(30)]
    ds = DatasetIndex([ImageRecord(image_id, patterns[n % 5]) for n, image_id in enumerate(ids)],
                      sigma=3.0)
    cmat = sampling_module._cc_matrix(ds, ds.sigma)
    ties = 0
    for i, image_id in enumerate(ids):
        expected = sorted(((rec.id, float(-cmat[i, j])) for j, rec in enumerate(ds.images)
                           if j != i), key=lambda e: (-e[1], e[0]))
        entries = neighbor_ranking(image_id, ds).entries
        assert entries == tuple(expected)
        ties += sum(a[1] == b[1] for a, b in zip(entries, entries[1:]))
    assert ties > 100


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
