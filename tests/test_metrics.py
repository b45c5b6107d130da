import itertools
import math
from collections.abc import Mapping
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from salmetric.core import (
    BAND,
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
    InvalidSigmaError,
    MissingPredictionError,
    SalmetricError,
    UndersizedPoolWarning,
    ZeroVarianceError,
)
from salmetric import core as core_module
from salmetric import metrics as metrics_module
from salmetric import roc as roc_module
from salmetric import sampling as sampling_module
from salmetric import synth as synth_module
from salmetric.gaussian import center_bias_map, density_from_fixations
from salmetric.metrics import (
    ALL_METRICS,
    SAMPLED_METRICS,
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
from salmetric.quality import quality_report
from salmetric.roc import auc_averaged
from salmetric.sampling import NegativePool, shuffled_pool, split_streams
from salmetric.seeding import derive_seed
from salmetric.smoothing import _tie_gap, tie_break_global
from salmetric.synth import SynthConfig, gen_dataset, sigma_sweep

from reference import pairwise_auc, tie_broken_map


def density(rows):
    return DensityMap(rows)


def test_cc_examples():
    a = GridMap([[1.0, 2.0], [3.0, 4.0]])
    assert abs(cc(a, a) - 1.0) < 1e-12
    b = GridMap(10.0 - 2.0 * a.values)
    assert abs(cc(a, b) + 1.0) < 1e-12
    # direct Pearson formula oracle: r = -1/3
    assert abs(cc(GridMap([[1, 0], [0, 0]]), GridMap([[0, 1], [0, 0]])) + 1.0 / 3.0) < 1e-9


CC_SHAPES = [(1, 2), (5, 6), (17, 3), (120, 160), (480, 640)]


def test_cc_symmetry_and_affine_invariance():
    rng = np.random.default_rng(1)
    for shape in CC_SHAPES:
        a = GridMap(rng.random(shape))
        b = GridMap(rng.random(shape))
        # exact: callers may pass the two maps in either order
        assert cc(a, b) == cc(b, a)
    a = GridMap(rng.random((5, 6)))
    b = GridMap(rng.random((5, 6)))
    scaled = GridMap(3.5 * a.values + 2.0)
    assert abs(cc(scaled, b) - cc(a, b)) < 1e-12


def test_cc_equals_flattened_pearson_expression():
    """cc is the one Pearson correlation of the package; it must keep the
    exact expression, and so the exact bits, of the flattened form."""

    def pearson(x, y):
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        xd = x - x.mean()
        yd = y - y.mean()
        xn = float(np.sqrt((xd * xd).sum()))
        yn = float(np.sqrt((yd * yd).sum()))
        return float((xd * yd).sum() / (xn * yn))

    rng = np.random.default_rng(2)
    for shape in CC_SHAPES:
        a, b = rng.random(shape), rng.random(shape) ** 3
        assert cc(GridMap(a), GridMap(b)) == pearson(a, b)


def test_cc_errors():
    with pytest.raises(DimensionMismatchError):
        cc(GridMap(np.ones((2, 2))), GridMap(np.ones((3, 3))))
    with pytest.raises(ZeroVarianceError):
        cc(GridMap(np.ones((2, 2))), GridMap(np.arange(4.0).reshape(2, 2)))


@pytest.mark.parametrize("code", [26, 128])
def test_cc_and_nss_reject_every_constant_map(code):
    """A constant map has no correlation and no z-scores, also where its
    mean does not round back to its value: on 63 pixels of 26/255 it
    differs in the last bits, so the terms of the sums are not all 0."""
    flat = GridMap(np.full((7, 9), code / 255))
    other = GridMap(np.arange(63.0).reshape(7, 9))
    for a, b, total in ((flat, other, 1.0), (other, flat, 1.0), (flat, other, float(flat.values.sum()))):
        with pytest.raises(ZeroVarianceError, match="^constant input has no correlation$"):
            cc(a, b, total)
    with pytest.raises(ZeroVarianceError, match="^constant map has no z-scores$"):
        nss(flat, FixationSet([(0, 0), (4, 3)], (9, 7)))
    ds = DatasetIndex([ImageRecord("a", FixationSet([(0, 0), (4, 3)], (9, 7)))], sigma=1.0)
    for metric in ("cc", "nss"):
        with pytest.raises(ZeroVarianceError):
            evaluate_all(ds, {"a": flat}, EvalConfig(metrics=(metric,)))


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


def test_kld_equals_the_masked_expression():
    """kld makes its terms a band at a time and sums them a band at a time;
    it must keep the bits of the whole-frame masked form."""
    rng = np.random.default_rng(4)
    for shape in CC_SHAPES[1:]:
        g = rng.random(shape) * (rng.random(shape) < 0.4)
        g[0, 0] = 1.0
        gt = normalize_to_density(GridMap(g))
        pred = normalize_to_density(GridMap(rng.random(shape) ** 4))
        mask = gt.values > 0.0
        expected = float(np.sum(gt.values[mask] * np.log(
            gt.values[mask] / (pred.values[mask] + metrics_module.EPS))))
        assert kld(gt, pred) == expected


# sizes about the pairwise blocks, one band and numpy's own splits, and
# whole frames up to 1920x1080
PAIRWISE_SIZES = [*range(301), BAND - 1, BAND, BAND + 1, 2 * BAND + 7, 19_200, 307_200,
                  786_432, 2_073_600]


def test_pairwise_sum_is_np_sum_bit_for_bit():
    """A sum taken block by block in a buffer of one band keeps numpy's own
    pairwise order: it equals ``np.sum`` of the whole array to the bit, and
    ``.mean()`` and ``.std()`` of a frame are its sums over the size."""
    rng = np.random.default_rng(11)
    sizes = PAIRWISE_SIZES + rng.integers(BAND + 1, 4 * BAND + 1, 50).tolist()
    draws = (lambda n: rng.random(n), lambda n: rng.standard_normal(n) * 1e3,
             lambda n: 10.0 ** rng.uniform(-6, 6, n) * rng.choice([-1.0, 1.0], n))
    for draw in draws:
        for n in sizes:
            x = draw(n)
            total = metrics_module._pairwise_sum(lambda lo, hi, out: np.copyto(out, x[lo:hi]),
                                                 n, np.empty(min(n, BAND)))
            assert np.float64(total).tobytes() == np.sum(x).tobytes(), n
    v = rng.random((480, 640)) ** 3
    flat = v.ravel()
    buf = np.empty(BAND)
    mean = metrics_module._pairwise_sum(lambda lo, hi, out: np.copyto(out, flat[lo:hi]),
                                        v.size, buf) / v.size

    def squares(lo, hi, out):
        np.multiply(np.subtract(flat[lo:hi], mean, out=out), out, out=out)

    assert mean == v.mean()
    assert np.sqrt(metrics_module._pairwise_sum(squares, v.size, buf) / v.size) == v.std()


@pytest.mark.parametrize("shape", [(48, 64), (120, 160), (480, 640)],
                         ids=["one-band", "two-bands", "19-bands"])
def test_banded_scores_equal_the_whole_frame_formulas(shape):
    """cc, nss, sim and kld sum a band at a time; each must equal its
    whole-frame numpy formula under ``==``, for a plain map read over its
    mass (a total other than 1), a density, and a ground truth with holes in
    its support."""
    h, w = shape
    rng = np.random.default_rng(h)
    fx = FixationSet.from_linear(rng.choice(w * h, 30, replace=False), (w, h))
    eps = metrics_module.EPS

    def whole(a, b, total):
        d, y = a / total, b
        xd, yd = d - d.mean(), y - y.mean()
        pearson = float((xd * yd).sum() / (float(np.sqrt((xd * xd).sum()))
                                           * float(np.sqrt((yd * yd).sum()))))
        mask = b > 0.0
        divergence = float(np.sum(b[mask] * np.log(b[mask] / (a[mask] / total + eps))))
        return pearson, float(np.minimum(d, b).sum()), divergence

    holes = rng.random(shape) * (rng.random(shape) < 0.4)
    truths = [density_from_fixations(fx, 3.0), normalize_to_density(GridMap(holes))]
    assert all((gt.values == 0.0).any() for gt in truths)
    plain = rng.random(shape) ** 4 * 7.0
    for a, total in ((plain, float(plain.sum())), (plain, 3.5),
                     (normalize_to_density(GridMap(plain)).values, 1.0)):
        pred = GridMap(a)
        for gt in truths:
            expected = whole(a, gt.values, total)
            assert (cc(pred, gt, total), sim(pred, gt, total), kld(gt, pred, total)) == expected
        z = float(((a.ravel()[fx.linear] - a.mean()) / a.std()).mean())
        assert nss(pred, fx) == z


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


def test_an_unknown_tie_break_raises_on_a_flat_map():
    """The mode is checked before a flat map is left to score at chance."""
    ds = two_image_toy()
    flat = GridMap(np.full((16, 16), 0.5))
    fs = ds.images[0].fixations
    for score in (lambda: auc_judd(flat, fs, tie_break="bogus"),
                  lambda: auc_borji(flat, fs, n_splits=3, tie_break="bogus"),
                  lambda: s_auc(flat, ds.images[0].id, ds, n_splits=3, tie_break="bogus"),
                  lambda: fn_auc(flat, ds.images[0].id, ds, k=1, n_splits=3, tie_break="bogus")):
        with pytest.raises(ValueError, match=r"^unknown tie_break mode 'bogus'"):
            score()


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


def test_evaluate_all_deterministic():
    ds, preds = make_eval_inputs()
    config = EvalConfig(n_splits=6, k=2, seed=3)
    first = evaluate_all(ds, preds, config)
    again = evaluate_all(ds, preds, config)
    assert first.per_image == again.per_image
    assert first.per_image_std == again.per_image_std
    assert first.aggregate == again.aggregate


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
    {"metrics": ("cc", "nss", "cc")},
    # counts that operator.index refuses could neither slice the splits nor pick neighbours
    {"n_splits": 2.5},
    {"n_splits": 3.0},
    {"k": 2.5},
    {"k": "2"},
    # a bool is an integer to Python, and a seed of False would hash as "False"
    {"seed": False},
    {"seed": True},
    {"seed": 1.5},
    {"seed": "0"},
    {"n_splits": True},
    {"k": True},
    {"sigma": True},
    {"sigma": "2"},
])
def test_eval_config_rejects_unrunnable_fields(fields):
    with pytest.raises(ValueError):
        EvalConfig(**fields)


@pytest.mark.parametrize("fields", [
    {"seed": -1}, {"seed": np.int64(3)}, {"n_splits": np.int64(4)}, {"sigma": 2}, {"sigma": np.float32(2.5)},
])
def test_eval_config_takes_numpy_numbers_and_a_negative_seed(fields):
    EvalConfig(**fields)


@pytest.mark.parametrize("broken, error", [("missing", MissingPredictionError)])
def test_evaluate_all_checks_predictions_before_building_anything(monkeypatch, broken, error):
    ds, preds = make_eval_inputs()
    del preds["c"]

    def built(*args, **kwargs):
        raise AssertionError("built before every prediction was checked")

    monkeypatch.setattr(metrics_module, "density_from_fixations", built)
    monkeypatch.setattr(sampling_module, "negative_pools", built)
    with pytest.raises(error, match="'c'"):
        evaluate_all(ds, preds, EvalConfig(k=2))


def test_evaluate_all_checks_a_frame_before_building_that_image(monkeypatch):
    """A prediction's frame is checked when the loop takes it, so the images
    before it are built and scored, and its own inputs never are."""
    ds, preds = make_eval_inputs()
    preds["c"] = GridMap(np.ones((5, 5)))
    built = []

    def building(name, original):
        def wrapper(*args, **kwargs):
            built.append(name)
            # negative_pools takes a list of image positions
            if any(arg is ds.image("c").fixations or arg == "c"
                   or (isinstance(arg, list) and ds.index("c") in arg) for arg in args):
                raise AssertionError(f"{name} built image c's input before its frame was checked")
            return original(*args, **kwargs)
        return wrapper

    for module, name in ((metrics_module, "density_from_fixations"),
                         (sampling_module, "negative_pools")):
        monkeypatch.setattr(module, name, building(name, getattr(module, name)))
    with pytest.raises(DimensionMismatchError, match="'c'"):
        evaluate_all(ds, preds, EvalConfig(k=2))
    assert set(built) == {"density_from_fixations", "negative_pools"}


def test_evaluate_all_looks_each_prediction_up_once():
    """A mapping that reads its maps on access is read once per image, in
    dataset order, after every id is checked."""
    ds, preds = make_eval_inputs()
    reads = []

    class Reading(dict):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    report = evaluate_all(ds, Reading(preds), EvalConfig(k=2, n_splits=4))
    assert reads == list(ds.ids)
    assert report == evaluate_all(ds, preds, EvalConfig(k=2, n_splits=4))


@pytest.mark.parametrize("chunk_floats", [1, None])
@pytest.mark.parametrize("metrics", [("cc", "nss"), ("auc_judd", "s_auc", "fn_auc")])
def test_no_earlier_prediction_is_alive_at_a_lookup(monkeypatch, metrics, chunk_floats):
    """Each prediction is let go once its image is scored: when a prediction
    is looked up or an image scored, the predictions of the images scored
    before are dead. In chunks of one image (``chunk_floats`` 1) every
    earlier prediction is dead at each lookup; in one chunk of every image
    (the default here), at each score."""
    ds = gen_dataset(SynthConfig(n_images=6, frame=(24, 20), fixations_per_image=6, seed=4))
    if chunk_floats is not None:
        monkeypatch.setattr(sampling_module, "_CHUNK_FLOATS", chunk_floats)
    returned, scored = {}, []

    def check(at):
        alive = [image_id for image_id in scored if returned[image_id]() is not None]
        assert not alive, f"at {at}, the predictions of {alive} are alive"

    class Building(Mapping):
        """Builds a fresh map on each lookup, and keeps a weak reference to it."""

        def __getitem__(self, image_id):
            check(f"{image_id!r}'s lookup")
            pred = GridMap(density_from_fixations(ds.image(image_id).fixations, ds.sigma).values)
            returned[image_id] = weakref.ref(pred)
            return pred

        def __contains__(self, image_id):
            return image_id in ds.ids

        def __iter__(self):
            return iter(ds.ids)

        def __len__(self):
            return len(ds)

    score_image = metrics_module._score_image

    def scoring(task, *args):
        check(f"{task['id']!r}'s score")
        result = score_image(task, *args)
        scored.append(task["id"])
        return result

    monkeypatch.setattr(metrics_module, "_score_image", scoring)
    evaluate_all(ds, Building(), EvalConfig(metrics=metrics, n_splits=4, k=2))
    assert scored == list(ds.ids)


@pytest.mark.parametrize("chunk_floats", [1, None])
def test_a_sweep_holds_one_width_prediction_at_a_time(monkeypatch, chunk_floats):
    """``sigma_sweep`` builds each width's prediction when it is scored: when
    one is built, every prediction built before it is dead, across an
    image's widths and across images. In chunks of one image (``chunk_floats``
    1) and in one chunk of every image (the default here), and the table is
    the one an unwatched sweep gives."""
    ds = gen_dataset(SynthConfig(n_images=5, frame=(24, 20), fixations_per_image=6, seed=4))
    metrics = ("cc", "nss", "auc_judd", "s_auc", "fn_auc")
    sweep = lambda: sigma_sweep(ds, (1.5, 3.0, 6.0), metrics=metrics, n_splits=4, k=2)
    expected = sweep()
    if chunk_floats is not None:
        monkeypatch.setattr(sampling_module, "_CHUNK_FLOATS", chunk_floats)
    built = []

    def building(fixations, sigma):
        alive = [j for j, ref in enumerate(built) if ref() is not None]
        assert not alive, f"at build {len(built)}, the predictions of builds {alive} are alive"
        pred = density_from_fixations(fixations, sigma)
        built.append(weakref.ref(pred))
        return pred

    monkeypatch.setattr(synth_module, "density_from_fixations", building)
    assert sweep() == expected
    assert len(built) == 3 * len(ds)


def _drawn_rows(monkeypatch) -> list:
    """Record the stream rows of each ``draw_pools`` call of the chunk
    driver: one range per image drawn, over its predictions' splits, in row
    order."""
    calls = []
    draw_pools = sampling_module.draw_pools

    def recording(streams, draws):
        calls.append(sorted({rows for _, _, rows in draws}, key=lambda rows: rows.start))
        return draw_pools(streams, draws)

    monkeypatch.setattr(sampling_module, "draw_pools", recording)
    return calls


def _image_floats(dataset, cfg, n_preds: int) -> int:
    """What one image of ``n_preds`` predictions adds to a scoring chunk:
    one frame, and the ``_draw_floats`` of its predictions' splits."""
    width, height = dataset.frame
    samplers = [SAMPLED_METRICS[name] for name in cfg.metrics if name in SAMPLED_METRICS]
    return (width * height
            + sampling_module._draw_floats(dataset, samplers, cfg.k, n_preds * cfg.n_splits))


def _scored_ids(monkeypatch) -> list:
    """Record the id of each image ``_score_image`` scores without error."""
    scored = []
    score_image = metrics_module._score_image

    def recording(task, *args):
        result = score_image(task, *args)
        scored.append(result[0])
        return result

    monkeypatch.setattr(metrics_module, "_score_image", recording)
    return scored


def test_scores_do_not_depend_on_the_chunk_size(monkeypatch):
    """Chunks of 1, 2, 3 and every image draw and score alike: the same
    ``evaluate_all`` report, and the same ``sigma_sweep`` table, whose
    images have one seed per training width."""
    ds = gen_dataset(SynthConfig(n_images=7, frame=(24, 20), fixations_per_image=6, seed=4))
    preds = {rec.id: density_from_fixations(rec.fixations, ds.sigma) for rec in ds.images}
    config = EvalConfig(metrics=("nss", "auc_borji", "s_auc", "fn_auc"), n_splits=5, k=2)
    sweep_metrics = ("cc", "fn_auc", "auc_borji", "s_auc")
    sweep_config = EvalConfig(metrics=sweep_metrics, n_splits=4, k=2)
    calls = _drawn_rows(monkeypatch)
    results = []
    for per_chunk in (1, 2, 3, len(ds)):
        runs = []
        for cfg, n_preds, run in (
                (config, 1, lambda: evaluate_all(ds, preds, config)),
                (sweep_config, 3, lambda: sigma_sweep(ds, (1.5, 3.0, 6.0), metrics=sweep_metrics,
                                                      n_splits=4, k=2))):
            floats = _image_floats(ds, cfg, n_preds)
            monkeypatch.setattr(sampling_module, "_CHUNK_FLOATS", per_chunk * floats)
            calls.clear()
            runs.append(run())
            # one range an image, over its predictions' splits
            sizes = [len(ranges) for ranges in calls]
            assert sizes[0] == per_chunk and sum(sizes) == len(ds)
            assert {len(rows) for ranges in calls for rows in ranges} == {n_preds * cfg.n_splits}
        results.append(runs)
    assert all(runs == results[0] for runs in results[1:])


def test_negatives_and_quality_do_not_depend_on_the_chunk_size(monkeypatch, tmp_path):
    """Chunks of 1, 2, 3 and every image draw alike: ``negatives`` writes
    the same bytes with either sampler, and ``quality_report`` gives the
    same triples under either measure."""
    from salmetric.cli import run
    from salmetric.io import write_manifest

    ds = gen_dataset(SynthConfig(n_images=7, frame=(24, 20), fixations_per_image=6, seed=4))
    manifest = tmp_path / "manifest.json"
    write_manifest(ds, manifest)
    calls = []
    draw_pools = sampling_module.draw_pools

    def recording(streams, draws):
        calls.append(len(draws))
        return draw_pools(streams, draws)

    monkeypatch.setattr(sampling_module, "draw_pools", recording)
    results = []
    for per_chunk in (1, 2, 3, len(ds)):
        runs = []
        for sampler, label in (("shuffled", "shuffled"), ("fn", "fn:2")):
            floats = sampling_module._draw_floats(ds, [sampler], 2, 1)
            monkeypatch.setattr(sampling_module, "_CHUNK_FLOATS", per_chunk * floats)
            out = tmp_path / f"{sampler}_{per_chunk}"
            calls.clear()
            assert run(["negatives", str(manifest), "--sampler", sampler, "--k", "2",
                        "--out", str(out)]) == 0
            runs.append((out / "negatives.json").read_bytes())
            for measure in ("cc", "auc"):
                runs.append(quality_report(ds, [label], seed=3, measure=measure))
            # one call per chunk, for negatives and each measure
            assert calls == ([per_chunk] * (len(ds) // per_chunk)
                             + [len(ds) % per_chunk] * (len(ds) % per_chunk > 0)) * 3
        results.append(runs)
    assert all(runs == results[0] for runs in results[1:])


def test_an_empty_fn_pool_mid_chunk_exits_after_the_images_before_it(tmp_path, monkeypatch,
                                                                      capsys):
    """Image c holds every other image's fixations, so with k = N − 1 its fn
    pool is empty: ``evaluate`` exits 1 with the one-line message of the
    empty pool once a and b, drawn in the same chunk, are scored."""
    from salmetric.cli import run
    from salmetric.io import write_manifest, write_map

    frame = (12, 12)
    ds = DatasetIndex([
        ImageRecord("a", FixationSet([(1, 1), (2, 1)], frame)),
        ImageRecord("b", FixationSet([(9, 9), (9, 10)], frame)),
        ImageRecord("c", FixationSet([(1, 1), (2, 1), (9, 9), (9, 10), (5, 2)], frame)),
        ImageRecord("d", FixationSet([(5, 2), (1, 1)], frame)),
    ], sigma=1.5)
    write_manifest(ds, tmp_path / "manifest.json")
    (tmp_path / "preds").mkdir()
    for rec in ds.images:
        write_map(density_from_fixations(rec.fixations, ds.sigma),
                  tmp_path / "preds" / f"{rec.id}.smap")
    calls = _drawn_rows(monkeypatch)
    scored = _scored_ids(monkeypatch)
    argv = ["evaluate", tmp_path / "manifest.json", "--pred", tmp_path / "preds",
            "--metrics", "auc_judd,fn_auc", "--k", "3", "--splits", "4",
            "--out", tmp_path / "report.json"]
    assert run([str(a) for a in argv]) == 1
    assert capsys.readouterr().err == (
        "error: no negative candidates left after removing the positives\n")
    assert calls == [[range(0, 4), range(4, 8)]]
    assert scored == ["a", "b"]
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("first, second",
                         itertools.permutations(("wrong_frame", "empty_pool", "constant"), 2))
def test_the_first_fault_of_a_chunk_in_image_order_is_raised(monkeypatch, first, second):
    """Two faults at images 1 and 3 of one chunk: a prediction of another
    frame, an empty fn pool (the image holds every other image's
    fixations, and k = N − 1), or a constant prediction scored by cc. The
    earlier image's message is raised once image 0, and only it, is
    scored. A frame of 2**k pixels keeps the constant's density exactly
    constant."""
    frame = (16, 16)
    own = [[(1, 1), (2, 1)], [(9, 9), (9, 10)], [(5, 2), (6, 3)], [(2, 8), (3, 9)],
           [(8, 2), (10, 4)]]
    at = {first: 1, second: 3}
    every = [xy for fixations in own for xy in fixations]
    ds = DatasetIndex([
        ImageRecord(f"img{j}", FixationSet(every if j == at.get("empty_pool") else fx, frame))
        for j, fx in enumerate(own)], sigma=1.5)
    preds = {rec.id: density_from_fixations(rec.fixations, ds.sigma) for rec in ds.images}
    messages = {"empty_pool": "no negative candidates left after removing the positives",
                "constant": "constant input has no correlation"}
    if "wrong_frame" in at:
        image_id = ds.ids[at["wrong_frame"]]
        preds[image_id] = GridMap(np.arange(20.0).reshape(4, 5))
        messages["wrong_frame"] = f"prediction for {image_id!r} is (5, 4), dataset frame is {frame}"
    if "constant" in at:
        preds[ds.ids[at["constant"]]] = GridMap(np.full((16, 16), 0.5))
    config = EvalConfig(metrics=("cc", "fn_auc"), n_splits=4, k=len(ds) - 1)
    assert len(ds) * _image_floats(ds, config, 1) <= sampling_module._CHUNK_FLOATS
    scored = _scored_ids(monkeypatch)
    with pytest.raises(SalmetricError) as err:
        evaluate_all(ds, preds, config)
    assert str(err.value) == messages[first]
    assert scored == ["img0"]


def test_auc_judd_scores_the_borji_pool(monkeypatch):
    """AUC-Judd and AUC-Borji build no complement set while they score, and
    AUC-Judd still equals the pairwise statistic over the explicit
    complement of each image's fixations."""
    ds, preds = make_eval_inputs()
    calls = []

    def counting(frame, exclude):
        calls.append(frame)
        return complement_set(frame, exclude)

    for module in (core_module, metrics_module, roc_module, sampling_module):
        monkeypatch.setattr(module, "complement_set", counting, raising=False)
    configs = (EvalConfig(metrics=("auc_judd", "auc_borji"), n_splits=4),
               EvalConfig(metrics=("auc_judd",), tie_break="off"))
    reports = [evaluate_all(ds, preds, config) for config in configs]
    assert calls == []
    monkeypatch.undo()
    for config, report in zip(configs, reports):
        for image_id, pred in preds.items():
            fx = ds.image(image_id).fixations
            seed = derive_seed(config.seed, image_id)
            flat = tie_broken_map(pred, config.tie_break, seed).values.ravel()
            expected = pairwise_auc(flat[fx.linear], flat[complement_set(ds.frame, fx).linear])
            assert report.per_image[image_id]["auc_judd"] == expected == \
                auc_judd(pred, fx, config.tie_break, seed)


@pytest.mark.parametrize("metrics", [ALL_METRICS, ("cc", "auc_judd", "sim")],
                         ids=["all-nine", "sim-after-an-auc"])
def test_evaluate_all_never_builds_the_prediction_density(monkeypatch, metrics):
    """The distribution metrics read a plain prediction's density as its
    values over its mass: ``evaluate_all`` builds no more densities for
    plain maps than for the same maps given as densities, and their
    distribution scores are the same to the bit."""
    ds, preds = make_eval_inputs()
    plain = {image_id: GridMap(pred.values) for image_id, pred in preds.items()}
    densities = {image_id: normalize_to_density(pred) for image_id, pred in plain.items()}
    take = DensityMap._take
    made, reports = [], []

    def taking(self, arr, finite=False):
        made.append(arr.shape)
        take(self, arr, finite)

    monkeypatch.setattr(DensityMap, "_take", taking)
    for given in (plain, densities):
        reports.append(evaluate_all(DatasetIndex(ds.images, sigma=ds.sigma), given,
                                    EvalConfig(metrics=metrics, n_splits=3, k=1)))
        made.append(None)
    split = made.index(None)
    assert made[:split] == made[split + 1:-1]
    assert len(made[:split]) == len(ds) + ("ig" in metrics)
    for image_id, scores in reports[0].per_image.items():
        for name in {"cc", "sim", "kld", "ig"} & set(metrics):
            assert scores[name] == reports[1].per_image[image_id][name]


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


def test_the_tie_break_comes_before_the_ground_truth_and_raises_at_its_turn(monkeypatch):
    """The kernel tie-breaks before it builds the ground truth, so the
    sorted copy is gone first; a failing tie-break is still raised at the
    first AUC's turn, after the metrics before it, and a failing density
    build before any metric."""
    ds, preds = make_eval_inputs()
    calls = []

    def failing_tie_break(*args):
        calls.append("tie-break")
        raise ValueError("map values must be finite")

    def density(fixations, sigma):
        calls.append("density")
        return density_from_fixations(fixations, sigma)

    def scoring(name, score):
        def recording(*args):
            calls.append(name)
            return score(*args)
        return recording

    monkeypatch.setattr(metrics_module, "_tie_break", failing_tie_break)
    monkeypatch.setattr(metrics_module, "density_from_fixations", density)
    monkeypatch.setattr(metrics_module, "cc", scoring("cc", cc))
    config = EvalConfig(metrics=("cc", "auc_judd", "sim"))
    with pytest.raises(ValueError, match="^map values must be finite$"):
        evaluate_all(ds, preds, config)
    assert calls == ["tie-break", "density", "cc"]

    def failing_density(fixations, sigma):
        raise InvalidSigmaError("no density")

    monkeypatch.setattr(metrics_module, "density_from_fixations", failing_density)
    with pytest.raises(InvalidSigmaError, match="^no density$"):
        evaluate_all(ds, preds, config)


def test_cc_with_fn_auc_builds_each_density_once(monkeypatch):
    """The neighbour matrix blurs the fixation maps in its own row bands, so
    the ground-truth densities are built once each, when their image is
    scored, and no list of them is kept."""
    ds, preds = make_eval_inputs()
    alone = {m: evaluate_all(DatasetIndex(ds.images, sigma=ds.sigma), preds,
                             EvalConfig(metrics=(m,), k=1))
             for m in ("cc", "fn_auc")}
    calls = []

    def counting(fixations, sigma):
        calls.append(sigma)
        return density_from_fixations(fixations, sigma)

    monkeypatch.setattr(metrics_module, "density_from_fixations", counting)
    report = evaluate_all(ds, preds, EvalConfig(metrics=("cc", "fn_auc"), k=1))
    assert calls == [ds.sigma] * len(ds)
    for m, single in alone.items():
        assert {i: s[m] for i, s in report.per_image.items()} == \
            {i: s[m] for i, s in single.per_image.items()}
    # the neighbour matrix is cached; the densities are not
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
            got = auc_averaged(scored, fx, pool, split_streams([8], 13))
        assert bool(caught) is (kind == "undersized")
        flat = scored.values.ravel()
        # numpy's own draw is the oracle, not the replay under test
        draws = [np.random.default_rng(derive_seed(8, i)).choice(
            pool.support.linear, count, replace=False, p=p) for i in range(13)]
        splits = [pairwise_auc(flat[fx.linear], flat[take]) for take in draws]
        assert got == (float(np.mean(splits)), float(np.std(splits)))


def _unique_tie_gap(values):
    """The two-pass form: gaps between the distinct values."""
    distinct = np.unique(values)
    return None if distinct.size < 2 else np.diff(distinct).min()


@pytest.mark.parametrize("values", [
    np.random.default_rng(61).choice([0.0, 0.125, 0.5, 1.0], size=(48, 64)),
    np.random.default_rng(67).choice([-3.0, 7.5], size=(30, 20)),
    np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, 0.25]]),
    np.array([[-0.0, 0.0], [0.0, -0.0]]),
    np.full((5, 7), 0.3),
    np.random.default_rng(71).normal(size=(40, 40)),
    np.random.default_rng(73).choice(np.arange(3000) * 0.25, size=(150, 200)),  # several bands
    # the one smallest gap straddles the first band boundary of the sorted copy
    np.random.default_rng(77).permutation(np.arange(40000.0) - 0.5 * (np.arange(40000) >= BAND)
                                          ).reshape(200, 200),
])
def test_tie_break_matches_unique_oracle(values):
    pred = GridMap(values)
    gap = _unique_tie_gap(pred.values)
    assert _tie_gap(pred.values) == gap
    for mode in ("global", "noise"):
        out = metrics_module._tie_break(pred, mode, 5)
        assert (out.field is None) is (gap is None)
        if gap is not None:
            assert out.eps == float(gap / (2.0 * float(out.field.max() - out.field.min())))


@pytest.mark.parametrize("mode", ["global", "noise"])
def test_tie_broken_values_equal_the_built_map(mode):
    """The AUCs read the tie-broken values where they look, a band at a
    time over the whole map; they equal the map that ``tie_break_global``
    and ``tie_break_noise`` build, and AUC-Judd scores that map."""
    pred = GridMap(np.random.default_rng(79).choice([0.0, 0.25, 1.0], size=(150, 200)))
    fx = FixationSet.from_linear(np.random.default_rng(83).choice(30000, 40, replace=False),
                                 (200, 150))
    built = tie_broken_map(pred, mode, 7).values.ravel()
    scored = metrics_module._tie_break(pred, mode, 7)
    got = [scored.at(slice(start, start + BAND)) for start in range(0, built.size, BAND)]
    assert len(got) > 1 and np.array_equal(np.concatenate(got), built)
    assert np.array_equal(scored.values_at(fx), built[fx.linear])
    negatives = complement_set((200, 150), fx).linear
    assert auc_judd(pred, fx, mode, 7) == pairwise_auc(built[fx.linear], built[negatives])


@pytest.mark.parametrize("mode", ["global", "noise"])
def test_a_jitter_past_the_float_range_raises_one_line(mode):
    """A float64 map that holds the float maximum jitters past the float
    range; scoring it raises the one-line ``GridMap`` error, and numpy warns
    of no overflow on the way."""
    ds, _ = make_eval_inputs()
    pred = GridMap(np.random.default_rng(89).choice([0.0, np.finfo(np.float64).max],
                                                    size=(12, 12)))
    runs = (lambda: auc_judd(pred, ds.image("a").fixations, mode),
            lambda: s_auc(pred, "a", ds, n_splits=3, tie_break=mode),
            lambda: evaluate_all(ds, dict.fromkeys(ds.ids, pred),
                                 EvalConfig(metrics=("auc_judd", "s_auc"), tie_break=mode)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in runs:
            with pytest.raises(ValueError, match="^map values must be finite$"):
                run()


@pytest.mark.parametrize("metrics", [("auc_judd", "auc_borji", "s_auc"),
                                     ("cc", "sim", "kld", "ig", "nss", "auc_judd"),
                                     ("cc", "fn_auc")])
def test_scoring_keeps_one_image_inputs_alive(metrics):
    """Each image's densities and pools die before the next image's are
    built, and the neighbour matrix holds one band of the blurred maps at a
    time: from 8 to 16 images at 160×120, the tracemalloc peak of
    ``evaluate_all`` and ``sigma_sweep`` grows by less than a quarter of 8
    borji pools. numpy reports its buffers to tracemalloc."""
    frame = (160, 120)
    budget = 8 * frame[0] * frame[1] * 8 / 4

    def peaks(n_images):
        ds = gen_dataset(SynthConfig(n_images=n_images, frame=frame, fixations_per_image=10,
                                     seed=1))
        preds = {rec.id: density_from_fixations(rec.fixations, ds.sigma) for rec in ds.images}
        runs = (lambda: evaluate_all(ds, preds, EvalConfig(metrics=metrics, n_splits=3)),
                lambda: sigma_sweep(ds, (2.0, 4.0), metrics=metrics, n_splits=3))
        out = []
        for run in runs:
            tracemalloc.start()
            try:
                run()
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return out

    peaks(8)  # process-wide caches fill here, outside the measured runs
    small, large = peaks(8), peaks(16)
    for name, before, after in zip(("evaluate_all", "sigma_sweep"), small, large):
        assert after - before < budget, f"{name} peak grew {after - before} bytes"


def _first_run_frames(frame, n_images, metrics, as_read):
    """The tracemalloc peak of the first ``evaluate_all`` on ``n_images`` at
    ``frame`` (30 fixations, cluster σ 19, seed 0), in frames of float64,
    with the predictions built beforehand, as densities or as the plain maps
    ``evaluate`` reads."""
    ds = gen_dataset(SynthConfig(n_images=n_images, frame=frame, fixations_per_image=30,
                                 cluster_sigma=19.0, seed=0))
    preds = {rec.id: density_from_fixations(rec.fixations, ds.sigma) for rec in ds.images}
    if as_read:
        preds = {image_id: GridMap(pred.values) for image_id, pred in preds.items()}
    config = EvalConfig(metrics=metrics, n_splits=10, k=2)
    tracemalloc.start()
    try:
        evaluate_all(ds, preds, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (frame[0] * frame[1] * 8)


@pytest.mark.parametrize("metrics, as_read", [(("auc_judd", "auc_borji", "ig"), False),
                                               (ALL_METRICS, True)],
                         ids=["judd-borji-ig", "all-nine"])
def test_scoring_holds_under_three_frames(metrics, as_read):
    """AUC-Judd counts against the tie-broken values a band at a time, the
    sampled AUCs read them only where they look, AUC-Borji draws pool
    positions without building the complement, the ig baseline is kept at
    the fixations, cc, nss, sim and kld sum a band at a time, reading the
    prediction's density as its values over its mass so that no frame of it
    is built, the tie-break's sorted copy goes before the ground truth is
    built, the blur adds into its unpadded output, and the global tie-break
    field is read from its axis terms, so no frame of it is kept: on 3
    images at 320×240 the first ``evaluate_all`` stays below 2 frames."""
    frames = _first_run_frames((320, 240), 3, metrics, as_read)
    assert frames < 2.0, f"peak {frames:.2f} frames"


def test_scoring_holds_two_frames_and_a_band_at_640x480():
    """On 4 images at 640×480 the first all-nine ``evaluate_all`` of plain
    maps holds the ground truth, one band and the blur's lines: at most
    1.5 frames beyond its predictions."""
    frames = _first_run_frames((640, 480), 4, ALL_METRICS, True)
    assert frames <= 1.5, f"peak {frames:.2f} frames"
