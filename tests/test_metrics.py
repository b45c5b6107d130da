import math
import warnings

import numpy as np
import pytest

from salmetric.core import (
    DatasetIndex,
    DensityMap,
    FixationSet,
    GridMap,
    ImageRecord,
    complement_set,
    normalize_to_density,
)
from salmetric.errors import (
    DimensionMismatchError,
    EmptyFixationsError,
    MissingPredictionError,
    UndersizedPoolWarning,
    ZeroVarianceError,
)
from salmetric import metrics as metrics_module
from salmetric import sampling as sampling_module
from salmetric.gaussian import center_bias_map, density_from_fixations
from salmetric.metrics import (
    EvalConfig,
    auc_borji,
    auc_judd,
    cc,
    evaluate_all,
    fn_auc,
    ig,
    kld,
    nss,
    s_auc,
    sim,
)
from salmetric.roc import auc_averaged
from salmetric.sampling import NegativePool, shuffled_pool
from salmetric.seeding import derive_seed
from salmetric.smoothing import _tie_epsilon, tie_break_global


def density(rows):
    return DensityMap(rows)


def test_cc_examples():
    a = GridMap([[1.0, 2.0], [3.0, 4.0]])
    assert abs(cc(a, a) - 1.0) < 1e-12
    b = GridMap(10.0 - 2.0 * a.values)
    assert abs(cc(a, b) + 1.0) < 1e-12
    # direct Pearson formula oracle: r = -1/3
    assert abs(cc(GridMap([[1, 0], [0, 0]]), GridMap([[0, 1], [0, 0]])) + 1.0 / 3.0) < 1e-9


def test_cc_symmetry_and_affine_invariance():
    rng = np.random.default_rng(1)
    a = GridMap(rng.random((5, 6)))
    b = GridMap(rng.random((5, 6)))
    assert abs(cc(a, b) - cc(b, a)) < 1e-12
    scaled = GridMap(3.5 * a.values + 2.0)
    assert abs(cc(scaled, b) - cc(a, b)) < 1e-12


def test_cc_errors():
    with pytest.raises(DimensionMismatchError):
        cc(GridMap(np.ones((2, 2))), GridMap(np.ones((3, 3))))
    with pytest.raises(ZeroVarianceError):
        cc(GridMap(np.ones((2, 2))), GridMap(np.arange(4.0).reshape(2, 2)))


def test_nss_example():
    pred = GridMap([[0.0, 1.0], [2.0, 3.0]])
    score = nss(pred, FixationSet([(1, 1)], (2, 2)))
    assert abs(score - 1.5 / math.sqrt(1.25)) < 1e-9  # (3 - 1.5) / popstd


def test_nss_zero_at_mean_valued_pixel():
    pred = GridMap([[0.0, 1.0], [2.0, 1.0]])  # mean 1.0 at two pixels
    assert abs(nss(pred, FixationSet([(1, 0)], (2, 2)))) < 1e-12


def test_nss_errors_and_affine_invariance():
    with pytest.raises(ZeroVarianceError):
        nss(GridMap(np.full((2, 2), 3.0)), FixationSet([(0, 0)], (2, 2)))
    with pytest.raises(EmptyFixationsError):
        nss(GridMap(np.arange(4.0).reshape(2, 2)), FixationSet([], (2, 2)))
    rng = np.random.default_rng(2)
    pred = GridMap(rng.random((6, 6)))
    fs = FixationSet([(1, 2), (4, 4)], (6, 6))
    assert abs(nss(GridMap(2.0 * pred.values + 7.0), fs) - nss(pred, fs)) < 1e-9


def test_sim_examples():
    a = density([[0.25, 0.25], [0.25, 0.25]])
    assert abs(sim(a, a) - 1.0) < 1e-12
    left = density([[1.0, 0.0]])
    right = density([[0.0, 1.0]])
    assert sim(left, right) == 0.0
    assert abs(sim(density([[0.5, 0.5]]), density([[0.25, 0.75]])) - 0.75) < 1e-9


def test_kld_examples():
    gt = density([[1.0, 0.0]])
    pred = density([[0.5, 0.5]])
    same = kld(gt, gt)
    assert abs(same) < 1e-9
    assert abs(kld(gt, pred) - math.log(2.0)) < 1e-6
    assert kld(gt, pred) != kld(pred, gt)
    assert kld(pred, gt) > kld(gt, gt)


def test_kld_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = normalize_to_density(GridMap(rng.random((4, 5)) + 1e-6))
        b = normalize_to_density(GridMap(rng.random((4, 5)) + 1e-6))
        assert kld(a, b) >= -1e-12


def test_ig_examples():
    base = center_bias_map((8, 8))
    fs = FixationSet([(3, 3), (4, 4)], (8, 8))
    assert abs(ig(base, fs, base)) < 1e-12
    # doubling the probability at every fixation gains exactly one bit; the
    # extra mass is taken from the other pixels so the density stays valid
    vals = base.values.copy()
    mask = np.zeros(vals.shape, dtype=bool)
    mask[fs.ys, fs.xs] = True
    taken = vals[mask].sum()
    vals[mask] *= 2.0
    vals[~mask] *= (1.0 - 2.0 * taken) / (1.0 - taken)
    doubled = DensityMap(vals)
    assert abs(ig(doubled, fs, base) - 1.0) < 1e-6
    uniform = density(np.full((2, 2), 0.25))
    assert abs(ig(uniform, FixationSet([(0, 1)], (2, 2)), uniform)) < 1e-12


def test_ig_default_baseline_is_center():
    fs = FixationSet([(4, 4)], (9, 9))
    pred = center_bias_map((9, 9))
    assert abs(ig(pred, fs)) < 1e-12


def test_auc_judd_perfect_and_constant():
    values = np.zeros((6, 6))
    values[2, 3] = 1.0
    values[4, 1] = 1.0
    fs = FixationSet([(3, 2), (1, 4)], (6, 6))
    assert auc_judd(GridMap(values), fs, tie_break="off") == 1.0
    assert auc_judd(GridMap(values), fs, tie_break="global") == 1.0
    assert auc_judd(GridMap(np.full((6, 6), 0.4)), fs) == 0.5


def test_auc_judd_own_density_peak():
    fs = FixationSet([(32, 30)], (64, 64))
    pred = density_from_fixations(fs, 3.0)
    assert auc_judd(pred, fs) > 0.95


def test_tie_break_modes_change_scores():
    rng = np.random.default_rng(4)
    quant = GridMap(rng.choice([0.0, 0.5, 1.0], size=(16, 16)))
    fs = FixationSet.from_linear(rng.choice(256, size=12, replace=False), (16, 16))
    off = auc_judd(quant, fs, tie_break="off")
    g = auc_judd(quant, fs, tie_break="global")
    n = auc_judd(quant, fs, tie_break="noise", seed=5)
    assert off != g or off != n
    with pytest.raises(ValueError):
        auc_judd(quant, fs, tie_break="banana")


def test_auc_borji_constant_and_determinism():
    fs = FixationSet([(1, 1), (5, 2)], (8, 8))
    mean, std = auc_borji(GridMap(np.full((8, 8), 2.0)), fs, n_splits=20, seed=0)
    assert mean == 0.5 and std == 0.0
    rng = np.random.default_rng(5)
    pred = GridMap(rng.random((8, 8)))
    assert auc_borji(pred, fs, n_splits=20, seed=1) == auc_borji(pred, fs, n_splits=20, seed=1)


def two_image_toy():
    return DatasetIndex(
        [
            ImageRecord("a", FixationSet([(2, 2), (3, 2)], (16, 16))),
            ImageRecord("b", FixationSet([(12, 12), (13, 12)], (16, 16))),
        ],
        sigma=1.5,
    )


def test_s_auc_perfect_separation_toy():
    ds = two_image_toy()
    pred = tie_break_global(density_from_fixations(ds.image("a").fixations, 1.5))
    mean, std = s_auc(pred, "a", ds, n_splits=10, seed=0)
    assert mean == 1.0 and std == 0.0


def test_s_auc_constant_map():
    ds = two_image_toy()
    mean, std = s_auc(GridMap(np.ones((16, 16))), "a", ds, n_splits=10, seed=0)
    assert mean == 0.5 and std == 0.0


def test_fn_auc_toy_left_scores_one():
    ds = DatasetIndex(
        [
            ImageRecord("left", FixationSet([(10, 30), (12, 32), (14, 34)], (64, 64))),
            ImageRecord("center", FixationSet([(30, 30), (32, 32), (34, 34)], (64, 64))),
            ImageRecord("right", FixationSet([(50, 30), (52, 32), (54, 34)], (64, 64))),
        ],
        sigma=3.0,
    )
    pred = density_from_fixations(ds.image("left").fixations, 3.0)
    mean, _ = fn_auc(pred, "left", ds, k=1, n_splits=10, seed=0)
    assert mean == 1.0


def test_fn_auc_reduces_to_s_auc(bias_dataset):
    pred = center_bias_map((64, 64))
    n = len(bias_dataset)
    for rec in bias_dataset.images[:3]:
        full = fn_auc(pred, rec.id, bias_dataset, k=n - 1, n_splits=25, seed=11)
        shuffled = s_auc(pred, rec.id, bias_dataset, n_splits=25, seed=11)
        assert full == shuffled


def test_fn_auc_constant(bias_dataset):
    rec = bias_dataset.images[0]
    mean, std = fn_auc(GridMap(np.ones((64, 64))), rec.id, bias_dataset, k=5, n_splits=10, seed=0)
    assert mean == 0.5 and std == 0.0


def make_eval_inputs():
    ds = DatasetIndex(
        [
            ImageRecord("a", FixationSet([(2, 2), (3, 3)], (12, 12))),
            ImageRecord("b", FixationSet([(8, 8), (9, 8)], (12, 12))),
            ImageRecord("c", FixationSet([(2, 9), (3, 9)], (12, 12))),
        ],
        sigma=1.5,
    )
    preds = {rec.id: density_from_fixations(rec.fixations, 1.5) for rec in ds.images}
    return ds, preds


def test_evaluate_all_aggregate_is_mean():
    ds, preds = make_eval_inputs()
    report = evaluate_all(ds, preds, EvalConfig(n_splits=8, k=2))
    for metric, value in report.aggregate.items():
        per = [report.per_image[i][metric] for i in report.per_image]
        assert abs(value - np.mean(per)) < 1e-12
    assert set(report.per_image) == {"a", "b", "c"}
    assert report.config.sigma == 1.5  # resolved from the dataset


def test_evaluate_all_single_image_dataset():
    ds = DatasetIndex([ImageRecord("solo", FixationSet([(2, 2)], (8, 8)))], sigma=1.0)
    preds = {"solo": density_from_fixations(ds.image("solo").fixations, 1.0)}
    config = EvalConfig(metrics=("cc", "nss", "auc_judd", "auc_borji"), n_splits=5)
    report = evaluate_all(ds, preds, config)
    assert report.aggregate == report.per_image["solo"]


def test_evaluate_all_identical_images_agree():
    ds = DatasetIndex(
        [
            ImageRecord("x", FixationSet([(3, 3)], (10, 10))),
            ImageRecord("y", FixationSet([(3, 3)], (10, 10))),
        ],
        sigma=1.0,
    )
    preds = {i: density_from_fixations(ds.image(i).fixations, 1.0) for i in ds.ids}
    config = EvalConfig(metrics=("cc", "nss", "auc_judd"))
    report = evaluate_all(ds, preds, config)
    assert report.per_image["x"] == report.per_image["y"]
    assert report.aggregate == report.per_image["x"]


def test_evaluate_all_deterministic_and_jobs_invariant():
    ds, preds = make_eval_inputs()
    config = EvalConfig(n_splits=6, k=2, seed=3)
    serial = evaluate_all(ds, preds, config, jobs=1)
    again = evaluate_all(ds, preds, config, jobs=1)
    parallel = evaluate_all(ds, preds, config, jobs=2)
    assert serial.per_image == again.per_image == parallel.per_image
    assert serial.aggregate == parallel.aggregate


def test_evaluate_all_errors():
    ds, preds = make_eval_inputs()
    del preds["b"]
    with pytest.raises(MissingPredictionError):
        evaluate_all(ds, preds, EvalConfig(metrics=("nss",)))
    ds2, preds2 = make_eval_inputs()
    preds2["b"] = GridMap(np.ones((5, 5)))
    with pytest.raises(DimensionMismatchError):
        evaluate_all(ds2, preds2, EvalConfig(metrics=("nss",)))
    with pytest.raises(ValueError):
        evaluate_all(ds2, {}, EvalConfig(metrics=("not_a_metric",)))


@pytest.mark.parametrize("fields", [
    {"metrics": ()},
    {"metrics": ("cc", "not_a_metric")},
    {"tie_break": "banana"},
    {"n_splits": 0},
    {"k": 0},
    {"sigma": -1.0},
    {"sigma": 0.0},
    {"sigma": math.inf},
])
def test_eval_config_rejects_unrunnable_fields(fields):
    with pytest.raises(ValueError):
        EvalConfig(**fields)


def test_ig_only_evaluate_builds_no_ground_truth_density(monkeypatch):
    ds, preds = make_eval_inputs()
    calls = []

    def counting(fixations, sigma):
        calls.append(sigma)
        return density_from_fixations(fixations, sigma)

    monkeypatch.setattr(metrics_module, "density_from_fixations", counting)
    report = evaluate_all(ds, preds, EvalConfig(metrics=("ig",)))
    assert set(report.aggregate) == {"ig"}
    assert calls == []


def test_cc_with_fn_auc_blurs_each_image_once(monkeypatch):
    ds, preds = make_eval_inputs()
    alone = {m: evaluate_all(DatasetIndex(ds.images, sigma=ds.sigma), preds,
                             EvalConfig(metrics=(m,), k=1))
             for m in ("cc", "fn_auc")}
    calls = []

    def counting(fixations, sigma):
        calls.append(sigma)
        return density_from_fixations(fixations, sigma)

    monkeypatch.setattr(metrics_module, "density_from_fixations", counting)
    monkeypatch.setattr(sampling_module, "density_from_fixations", counting)
    report = evaluate_all(ds, preds, EvalConfig(metrics=("cc", "fn_auc"), k=1))
    assert calls == [ds.sigma] * len(ds)
    for m, single in alone.items():
        assert {i: s[m] for i, s in report.per_image.items()} == \
            {i: s[m] for i, s in single.per_image.items()}
    # the neighbour matrix is cached; the densities it was built from are not
    assert set(ds._cache) == {("density_cc", ds.sigma), "id_rank"}


def test_sampled_aucs_match_evaluate_all_with_undersized_pools():
    # on a 3x2 frame image "a" leaves fewer candidates than positives in
    # every pool, so each sampled AUC falls back to the whole pool
    ds = DatasetIndex(
        [
            ImageRecord("a", FixationSet([(0, 0), (1, 0), (2, 0), (0, 1)], (3, 2))),
            ImageRecord("b", FixationSet([(1, 1)], (3, 2))),
            ImageRecord("c", FixationSet([(2, 1), (0, 0)], (3, 2))),
        ],
        sigma=1.0,
    )
    rng = np.random.default_rng(4)
    preds = {i: GridMap(rng.choice([0.0, 0.5, 1.0], size=(2, 3))) for i in ds.ids}
    config = EvalConfig(metrics=("auc_borji", "s_auc", "fn_auc"), seed=3, n_splits=7, k=1)
    with pytest.warns(UndersizedPoolWarning):
        report = evaluate_all(ds, preds, config)
    with pytest.warns(UndersizedPoolWarning):
        for image_id, pred in preds.items():
            seed = derive_seed(config.seed, image_id)
            alone = {
                "auc_borji": auc_borji(pred, ds.image(image_id).fixations, 7, seed),
                "s_auc": s_auc(pred, image_id, ds, 7, seed),
                "fn_auc": fn_auc(pred, image_id, ds, k=1, n_splits=7, seed=seed),
            }
            for name, (mean, std) in alone.items():
                assert report.per_image[image_id][name] == mean
                assert report.per_image_std[image_id][name] == std


def _pairwise_auc(pos_values, neg_values):
    """Brute-force pairwise statistic: each pair above counts 1, each tie 1/2."""
    above = int((pos_values[:, None] > neg_values[None, :]).sum())
    ties = int((pos_values[:, None] == neg_values[None, :]).sum())
    return (2 * above + ties) / (2 * pos_values.size * neg_values.size)


@pytest.mark.parametrize("kind", ["unweighted", "weighted", "undersized"])
def test_auc_averaged_matches_pairwise_oracle_over_pool_draws(kind, bias_dataset):
    rec = bias_dataset.images[3]
    fx = rec.fixations
    if kind == "unweighted":
        pool = NegativePool(complement_set(bias_dataset.frame, fx))
    elif kind == "weighted":
        pool = shuffled_pool(rec.id, bias_dataset)
        assert pool.weights.max() > 1.0
    else:
        support = FixationSet([(0, 0), (5, 9), (63, 63)], bias_dataset.frame)
        pool = NegativePool(support, np.array([1.0, 4.0, 2.0]))
    count = min(len(pool), len(fx))
    p = None if pool.weights is None else pool.weights / pool.weights.sum()
    rng = np.random.default_rng(59)
    pred = GridMap(rng.choice([0.0, 0.25, 1.0], size=(64, 64)))
    for scored in (pred, tie_break_global(pred)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = auc_averaged(scored, fx, pool, 13, 8)
        assert bool(caught) is (kind == "undersized")
        flat = scored.values.ravel()
        # numpy's own draw is the oracle, not the replay under test
        draws = [np.random.default_rng(derive_seed(8, i)).choice(
            pool.support.linear, count, replace=False, p=p) for i in range(13)]
        splits = [_pairwise_auc(flat[fx.linear], flat[take]) for take in draws]
        assert got == (float(np.mean(splits)), float(np.std(splits)))


def _unique_tie_epsilon(values, spread):
    """The two-pass form: gaps between the distinct values."""
    distinct = np.unique(values)
    if distinct.size < 2 or spread <= 0.0:
        return 1.0
    return float(np.diff(distinct).min() / (2.0 * spread))


@pytest.mark.parametrize("values", [
    np.random.default_rng(61).choice([0.0, 0.125, 0.5, 1.0], size=(48, 64)),
    np.random.default_rng(67).choice([-3.0, 7.5], size=(30, 20)),
    np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, 0.25]]),
    np.array([[-0.0, 0.0], [0.0, -0.0]]),
    np.full((5, 7), 0.3),
    np.random.default_rng(71).normal(size=(40, 40)),
])
def test_tie_break_matches_unique_oracle(values):
    pred = GridMap(values)
    for spread in (0.0, 0.75, 2.0):
        assert _tie_epsilon(pred.values, spread) == _unique_tie_epsilon(pred.values, spread)
    flat = np.unique(pred.values).size < 2
    for mode in ("global", "noise"):
        out = metrics_module._tie_break(pred, mode, 5)
        assert (out is pred) is flat
