import numpy as np
import pytest

from salmetric.core import DatasetIndex, FixationSet, ImageRecord
from salmetric.errors import UnknownModeError
from salmetric.gaussian import center_bias_map, density_from_fixations
from salmetric.metrics import EvalConfig, auc_borji, cc, evaluate_all, fn_auc, s_auc
from salmetric.seeding import derive_seed
from salmetric.synth import (
    SynthConfig,
    gen_dataset,
    gen_prediction,
    quantize_map,
    sigma_sweep,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_images=0)
    with pytest.raises(ValueError):
        SynthConfig(center_bias_strength=1.5)
    with pytest.raises(ValueError):
        SynthConfig(frame=(3, 3), fixations_per_image=10)
    with pytest.raises(ValueError):
        SynthConfig(cluster_sigma=0.0)


@pytest.mark.parametrize("fields", [
    {"n_images": 2.5}, {"n_images": True}, {"fixations_per_image": 2.5},
    {"n_object_clusters": 1.5}, {"seed": 1.5}, {"seed": False}, {"frame": (64.0, 64)},
    {"frame": [64, 64]}, {"frame": (64, 64, 1)}, {"frame": (-8, -8)},
    {"cluster_sigma": float("inf")}, {"cluster_sigma": float("nan")},
])
def test_config_rejects_fields_of_the_wrong_type(fields):
    with pytest.raises(ValueError):
        SynthConfig(**fields)


def test_gen_dataset_deterministic():
    config = SynthConfig(n_images=8, frame=(32, 32), fixations_per_image=6, seed=5)
    a = gen_dataset(config)
    b = gen_dataset(config)
    assert a.ids == b.ids
    for ra, rb in zip(a.images, b.images):
        assert ra.fixations == rb.fixations
    c = gen_dataset(SynthConfig(n_images=8, frame=(32, 32), fixations_per_image=6, seed=6))
    assert any(ra.fixations != rc.fixations for ra, rc in zip(a.images, c.images))


def test_gen_dataset_bounds_and_cardinality():
    config = SynthConfig(n_images=12, frame=(24, 16), fixations_per_image=9, seed=1)
    ds = gen_dataset(config)
    assert len(ds) == 12
    for rec in ds.images:
        assert len(rec.fixations) == 9
        assert rec.frame == (24, 16)
    assert ds.sigma == config.cluster_sigma


def test_gen_dataset_exhausts_tiny_grid():
    config = SynthConfig(n_images=2, frame=(3, 3), fixations_per_image=9,
                         center_bias_strength=1.0, seed=0)
    ds = gen_dataset(config)
    for rec in ds.images:
        assert len(rec.fixations) == 9


def test_full_strength_matches_center_density():
    config = SynthConfig(n_images=200, frame=(64, 64), fixations_per_image=20,
                         center_bias_strength=1.0, seed=3)
    ds = gen_dataset(config)
    pooled_density = density_from_fixations(ds.pooled, 16.0)
    score = cc(pooled_density, center_bias_map((64, 64)))
    assert score > 0.9


def test_corner_clusters_anticorrelate_with_center():
    corners = [(2, 2), (61, 2), (2, 61), (61, 61)]
    images = []
    for i in range(40):
        cx, cy = corners[i % 4]
        coords = [((cx + dx) % 64, (cy + dy) % 64) for dx in range(3) for dy in range(3)]
        images.append(ImageRecord(f"c{i}", FixationSet(coords, (64, 64))))
    ds = DatasetIndex(images, sigma=3.0)
    pooled_density = density_from_fixations(ds.pooled, 8.0)
    assert cc(pooled_density, center_bias_map((64, 64))) < 0.0


def test_prediction_modes(bias_dataset):
    rec = bias_dataset.images[0]
    oracle = gen_prediction(rec, "oracle", 3.0)
    assert abs(oracle.values.sum() - 1.0) < 1e-9
    assert oracle.values[rec.fixations.ys, rec.fixations.xs].min() > 0.0

    center = gen_prediction(rec, "center", 3.0)
    y, x = np.unravel_index(np.argmax(center.values), center.values.shape)
    assert 31 <= x <= 32 and 31 <= y <= 32

    peripheral = gen_prediction(rec, "peripheral", 3.0)
    py, px = np.unravel_index(np.argmax(peripheral.values), peripheral.values.shape)
    assert px in (0, 63) and py in (0, 63)
    assert peripheral.values.max() == 1.0

    quant = gen_prediction(rec, "quantized", 3.0)
    assert set(np.unique(quant.values)) == {0.0, 0.5, 1.0}

    uniform = gen_prediction(rec, "uniform", 3.0)
    assert np.unique(uniform.values).size == 1

    with pytest.raises(UnknownModeError):
        gen_prediction(rec, "telepathy", 3.0)


def test_quantize_map_levels(bias_dataset):
    rec = bias_dataset.images[1]
    oracle = gen_prediction(rec, "oracle", 3.0)
    q4 = quantize_map(oracle, levels=4)
    assert np.unique(q4.values).size == 4
    with pytest.raises(ValueError):
        quantize_map(oracle, levels=1)


def sweep_dataset():
    return gen_dataset(SynthConfig(n_images=30, frame=(48, 48), fixations_per_image=40,
                                   center_bias_strength=0.8, seed=2))


def test_sweep_table_shape_and_deviation():
    ds = sweep_dataset()
    table = sigma_sweep(ds, [4, 8, 16], sigma_gt=8, metrics=("cc", "nss", "auc_judd"), seed=0)
    assert table.sigmas == (4.0, 8.0, 16.0)
    for metric, row in table.scores.items():
        assert len(row) == 3
        assert abs(table.deviation[metric] - float(np.std(row))) < 1e-12
    assert table.scores["cc"][1] == max(table.scores["cc"])  # exact match peaks


def test_sweep_nss_prefers_sharp_predictions():
    ds = sweep_dataset()
    table = sigma_sweep(ds, [4, 8, 16], sigma_gt=8, metrics=("nss",), seed=0)
    row = table.scores["nss"]
    assert row[0] > row[1] > row[2]


def test_sweep_distribution_rows_match_evaluate_all():
    ds = gen_dataset(SynthConfig(n_images=5, frame=(24, 24), fixations_per_image=8, seed=7))
    names = ("cc", "sim", "kld", "ig")
    sigmas = (2.0, 4.0, 8.0)
    table = sigma_sweep(ds, sigmas, sigma_gt=4, metrics=names)
    for i, st in enumerate(sigmas):
        preds = {rec.id: density_from_fixations(rec.fixations, st) for rec in ds.images}
        report = evaluate_all(ds, preds, EvalConfig(metrics=names, sigma=4.0))
        for name in names:
            assert abs(table.scores[name][i] - report.aggregate[name]) < 1e-12


def test_sweep_validation():
    ds = sweep_dataset()
    with pytest.raises(ValueError):
        sigma_sweep(ds, [], metrics=("cc",))
    with pytest.raises(ValueError):
        sigma_sweep(ds, [4.0], metrics=("parsec",))
    with pytest.raises(ValueError, match="more than once"):
        sigma_sweep(ds, [4.0], metrics=("cc", "cc"))


def test_sweep_rejects_a_repeated_width():
    ds = sweep_dataset()
    with pytest.raises(ValueError, match=r"^training widths named more than once: \[2\.0, 4\.0\]$"):
        sigma_sweep(ds, [4, 2.0, 8.0, 2, 4.0], metrics=("nss",))


def test_sweep_deterministic_with_sampled_metrics():
    ds = gen_dataset(SynthConfig(n_images=6, frame=(24, 24), fixations_per_image=8, seed=4))
    a = sigma_sweep(ds, [2, 4], metrics=("auc_borji", "s_auc", "fn_auc"), seed=5,
                    n_splits=10, k=2)
    b = sigma_sweep(ds, [2, 4], metrics=("auc_borji", "s_auc", "fn_auc"), seed=5,
                    n_splits=10, k=2)
    assert a == b


def test_sweep_sampled_rows_match_the_library_calls():
    """Each width's sampled AUC rows equal, bit for bit, the image-order
    mean of ``auc_borji``, ``s_auc`` and ``fn_auc`` on the width's
    prediction at ``derive_seed(seed, "sweep", width, id)``: one draw of all
    an image's widths' splits draws what each width's own draw would."""
    ds = gen_dataset(SynthConfig(n_images=6, frame=(24, 24), fixations_per_image=8, seed=4))
    sigmas, seed, n_splits, k = (1.5, 3.0, 6.0), 5, 7, 2
    table = sigma_sweep(ds, sigmas, metrics=("auc_borji", "s_auc", "fn_auc"), seed=seed,
                        n_splits=n_splits, k=k)
    for j, st in enumerate(sigmas):
        sums = {"auc_borji": 0.0, "s_auc": 0.0, "fn_auc": 0.0}
        for rec in ds.images:
            pred = density_from_fixations(rec.fixations, st)
            image_seed = derive_seed(seed, "sweep", st, rec.id)
            sums["auc_borji"] += auc_borji(pred, rec.fixations, n_splits, image_seed)[0]
            sums["s_auc"] += s_auc(pred, rec.id, ds, n_splits, image_seed)[0]
            sums["fn_auc"] += fn_auc(pred, rec.id, ds, k, n_splits, image_seed, ds.sigma)[0]
        for name, total in sums.items():
            assert table.scores[name][j] == total / len(ds), (name, st)
