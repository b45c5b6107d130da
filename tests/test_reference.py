"""``evaluate_all`` against the slow reference evaluator of ``reference.py``,
score for score, on small seeded datasets."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import reference
from salmetric.core import BAND, DatasetIndex, FixationSet, GridMap, ImageRecord
from salmetric.errors import SalmetricError, ZeroVarianceError
from salmetric.metrics import SAMPLED_METRICS, TIE_BREAK_MODES, EvalConfig, evaluate_all
from salmetric.sampling import _farthest, negative_pools

N_CASES = 40


def random_case(case: int):
    """A small dataset, its predictions and a config, all seeded by ``case``.

    Frames run from 5×3 to 24×18 and datasets from 3 to 8 images. Some
    images fixate a large share of the frame, so some pools are smaller than
    their positives; some repeat an earlier image, so that neighbours tie;
    ``k`` is 1, N − 1 or in between; the predictions are
    quantized to a few levels or continuous, so every tie-break mode meets
    ties; the three modes take turns."""
    rng = np.random.default_rng(case)
    frame = (int(rng.integers(5, 25)), int(rng.integers(3, 19)))
    pixels = frame[0] * frame[1]
    n_images = int(rng.integers(3, 9))
    names = rng.permutation(n_images)  # id order is not dataset order
    images = []
    for i in range(n_images):
        most = 2 * pixels // 3 if rng.random() < 0.2 else max(2, pixels // 12)
        if images and rng.random() < 0.3:
            # a copy of an earlier image: its correlations tie exactly
            fixations = images[int(rng.integers(len(images)))].fixations
        else:
            size = int(rng.integers(1, most + 1))
            fixations = FixationSet.from_linear(rng.choice(pixels, size=size, replace=False), frame)
        images.append(ImageRecord(f"im{names[i]}", fixations))
    dataset = DatasetIndex(images, sigma=float(rng.uniform(0.8, 4.0)))
    shape = (frame[1], frame[0])
    predictions = {}
    for image_id in dataset.ids:
        if rng.random() < 0.5:
            levels = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 5)))
            predictions[image_id] = GridMap(rng.choice(levels, size=shape))
        else:
            predictions[image_id] = GridMap(rng.uniform(0.0, 1.0, size=shape))
    k = [1, n_images - 1, int(rng.integers(1, n_images))][case % 3]
    config = EvalConfig(metrics=reference.AUC_METRICS, seed=int(rng.integers(0, 2 ** 31)),
                        n_splits=int(rng.integers(1, 7)), k=k,
                        sigma=None if rng.random() < 0.5 else float(rng.uniform(0.8, 4.0)),
                        tie_break=TIE_BREAK_MODES[case % 3])
    return dataset, predictions, config


@pytest.mark.parametrize("case", range(N_CASES))
def test_evaluate_all_equals_the_reference_evaluator(case):
    dataset, predictions, config = random_case(case)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # undersized pools are part of the cases
        try:
            scores, stds = reference.evaluate(dataset, predictions, config)
        except reference.Abort:
            # an image without negatives aborts the run: the fast path must
            # refuse it too
            with pytest.raises(SalmetricError):
                evaluate_all(dataset, predictions, config)
            pytest.skip("an image has no negatives; evaluate_all aborts as well")
        report = evaluate_all(dataset, predictions, config)
    assert report.per_image == scores
    assert report.per_image_std == stds


def test_the_cases_cover_the_corners():
    """Undersized pools of every sampler, k = N − 1 and every tie-break mode
    are among the cases, and most cases are scored."""
    undersized = dict.fromkeys(("auc_borji", "s_auc", "fn_auc"), 0)
    last_k, modes, scored = 0, set(), 0
    for case in range(N_CASES):
        dataset, predictions, config = random_case(case)
        modes.add(config.tie_break)
        last_k += config.k == len(dataset) - 1
        for i, rec in enumerate(dataset.images):
            sigma = config.sigma or dataset.sigma
            for metric in ("auc_borji", "s_auc", "fn_auc"):
                try:
                    size = len(reference.pool(metric, dataset, i, config.k, sigma)[0])
                except reference.Abort:
                    continue
                undersized[metric] += size < len(rec.fixations)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reference.evaluate(dataset, predictions, config)
            scored += 1
        except reference.Abort:
            pass
    assert min(undersized.values()) >= 1, undersized
    assert last_k >= 5
    assert modes == set(TIE_BREAK_MODES)
    assert scored >= N_CASES * 3 // 4


@pytest.mark.parametrize("case", range(N_CASES))
def test_a_chunks_pools_equal_the_reference_pools(case):
    """``negative_pools`` builds a chunk of images' pools in array passes.
    At chunk sizes 1, 2, 3 and N, every image's pools hold the reference's
    locations, counts and length, and its ``fn`` neighbours are the
    reference's: ``np.corrcoef`` ranks with equal correlations in id order,
    and the cases' repeated images tie exactly."""
    dataset, _, config = random_case(case)
    sigma = dataset.sigma if config.sigma is None else config.sigma
    n = len(dataset)
    for size in (1, 2, 3, n):
        for first in range(0, n, size):
            chunk = list(range(first, min(first + size, n)))
            built = {sampler: negative_pools(sampler, chunk, dataset, config.k, sigma)
                     for sampler in SAMPLED_METRICS.values()}
            farthest = _farthest(dataset, chunk, config.k, sigma)
            for j, (i, neighbours) in enumerate(zip(chunk, farthest)):
                assert neighbours.tolist() == reference.farthest(dataset, i, config.k, sigma)
                for metric, sampler in SAMPLED_METRICS.items():
                    pool = built[sampler][j]
                    locations, weights = reference.pool_counts(metric, dataset, i, config.k, sigma)
                    assert len(pool) == locations.size
                    assert np.array_equal(pool.locations(np.arange(len(pool))), locations)
                    if weights is None:
                        assert pool.weights is None
                    else:
                        assert np.array_equal(pool.weights, weights)


DISTRIBUTION_METRICS = ("cc", "nss", "sim", "kld", "ig")


def wide_case():
    """Three images on a frame of more than one ``BAND`` of pixels, so that
    the banded reductions of ``cc`` and ``kld`` take more than one band."""
    rng = np.random.default_rng(1000)
    frame = (160, 120)
    images = [ImageRecord(f"w{i}", FixationSet.from_linear(
        rng.choice(frame[0] * frame[1], size=12, replace=False), frame)) for i in range(3)]
    dataset = DatasetIndex(images, sigma=2.5)
    predictions = {image_id: GridMap(rng.uniform(0.0, 1.0, size=(frame[1], frame[0])))
                   for image_id in dataset.ids}
    return dataset, predictions, EvalConfig(metrics=DISTRIBUTION_METRICS)


@pytest.mark.parametrize("case", [*range(N_CASES), "wide"])
def test_evaluate_all_equals_the_textbook_distribution_metrics(case):
    """CC, NSS, SIM, KLD and IG of ``evaluate_all`` equal the formulas of
    ``reference.distribution_scores`` within 1e-12, image by image. A
    constant prediction has no CC or NSS: a run that asks for them ends
    with ``ZeroVarianceError``, and the other metrics are compared on a run
    without them."""
    dataset, predictions, config = wide_case() if case == "wide" else random_case(case)
    assert case != "wide" or dataset.frame[0] * dataset.frame[1] > BAND
    sigma = dataset.sigma if config.sigma is None else config.sigma
    expected = reference.distribution_scores(dataset, predictions, sigma)
    config = replace(config, metrics=DISTRIBUTION_METRICS)
    if any(scores["cc"] is None for scores in expected.values()):
        with pytest.raises(ZeroVarianceError):
            evaluate_all(dataset, predictions, config)
        config = replace(config, metrics=("sim", "kld", "ig"))
    per_image = evaluate_all(dataset, predictions, config).per_image
    for image_id, scores in per_image.items():
        for metric, got in scores.items():
            if expected[image_id][metric] is not None:
                assert abs(got - expected[image_id][metric]) < 1e-12, (image_id, metric)
    assert all(metric in per_image[image_id] for image_id in dataset.ids
               for metric in ("sim", "kld", "ig"))
