import numpy as np
import pytest

from salmetric.core import DatasetIndex, FixationSet, ImageRecord
from salmetric.errors import EmptyFixationsError, UndersizedPoolWarning
from salmetric.gaussian import center_bias_map
from salmetric.quality import (
    QualityTriple,
    center_penalization,
    make_triple,
    positive_contamination,
    quality_report,
)

FRAME = (64, 64)


def test_penalization_of_center_like_negatives():
    # negatives spread like the centered baseline itself
    rng = np.random.default_rng(0)
    flat = center_bias_map(FRAME).values.ravel()
    picks = rng.choice(64 * 64, size=300, replace=False, p=flat)
    negs = FixationSet.from_linear(picks, FRAME)
    score = center_penalization(negs, sigma=8.0)
    assert score > 0.7


def test_penalization_corner_negatives_is_low():
    negs = FixationSet([(x, y) for x in range(4) for y in range(4)], FRAME)
    assert center_penalization(negs, sigma=3.0) < 0.2


def test_penalization_deterministic():
    negs = FixationSet([(10, 10), (30, 30)], FRAME)
    assert center_penalization(negs, sigma=3.0) == center_penalization(negs, sigma=3.0)


def test_contamination_identical_sets():
    fs = FixationSet([(10, 10), (20, 20), (30, 30)], FRAME)
    assert abs(positive_contamination(fs, fs, sigma=3.0) - 1.0) < 1e-12


def test_contamination_opposite_corners_negative():
    negs = FixationSet([(2, 2), (3, 3)], FRAME)
    pos = FixationSet([(61, 61), (60, 60)], FRAME)
    assert positive_contamination(negs, pos, sigma=3.0) < 0.0


def test_contamination_symmetry():
    a = FixationSet([(5, 5), (9, 9)], FRAME)
    b = FixationSet([(40, 40), (44, 40)], FRAME)
    assert positive_contamination(a, b, sigma=3.0) == positive_contamination(b, a, sigma=3.0)


def test_measure_validation_and_empty_sets():
    fs = FixationSet([(1, 1)], FRAME)
    with pytest.raises(ValueError):
        center_penalization(fs, sigma=3.0, measure="nope")
    with pytest.raises(EmptyFixationsError):
        center_penalization(FixationSet([], FRAME), sigma=3.0)
    with pytest.raises(EmptyFixationsError):
        positive_contamination(FixationSet([], FRAME), fs, sigma=3.0)


def test_auc_measure_variants():
    negs = FixationSet([(31, 31), (32, 32), (33, 31)], FRAME)
    # centered negatives make the center map an excellent "prediction"
    assert center_penalization(negs, sigma=3.0, measure="auc") > 0.9
    pos = FixationSet([(5, 50), (6, 51)], FRAME)
    # negatives far from the positives barely predict them
    assert positive_contamination(negs, pos, sigma=3.0, measure="auc") < 0.6


def test_make_triple_ratio():
    t = make_triple(0.5, 0.25)
    assert t.ratio == 0.5
    undefined = make_triple(0.0, 0.3)
    assert undefined.ratio is None


def test_quality_report_forced_equal_sets():
    # a sampler whose draw always equals the positives scores contamination 1
    ds = DatasetIndex(
        [
            ImageRecord("a", FixationSet([(10, 10), (12, 12)], FRAME)),
            ImageRecord("b", FixationSet([(40, 40), (42, 42)], FRAME)),
        ],
        sigma=3.0,
    )
    for rec in ds.images:
        score = positive_contamination(rec.fixations, rec.fixations, sigma=3.0)
        assert abs(score - 1.0) < 1e-12


def test_quality_report_direction(bias_dataset):
    report = quality_report(bias_dataset, samplers=("shuffled", "fn:5"), seed=11)
    assert set(report) == {"shuffled", "fn:5"}
    fn = report["fn:5"]
    s = report["shuffled"]
    assert isinstance(fn, QualityTriple)
    assert fn.contamination < s.contamination
    assert fn.ratio < s.ratio


def test_quality_report_full_k_matches_shuffled(bias_dataset):
    n = len(bias_dataset)
    report = quality_report(bias_dataset, samplers=("shuffled", f"fn:{n - 1}"), seed=4)
    s = report["shuffled"]
    fn = report[f"fn:{n - 1}"]
    # identical pools and per-image seeds differ only through the label used
    # in seed derivation, so the means agree up to sampling noise
    assert abs(fn.penalization - s.penalization) < 0.05
    assert abs(fn.contamination - s.contamination) < 0.05


def test_quality_report_deterministic(bias_dataset):
    small = DatasetIndex(bias_dataset.images[:12], sigma=bias_dataset.sigma)
    a = quality_report(small, samplers=("shuffled", "fn:3"), seed=9)
    b = quality_report(small, samplers=("shuffled", "fn:3"), seed=9)
    assert a == b


def test_contamination_grows_with_k(bias_dataset):
    """With more neighbors the pool drifts toward the full pooled set."""
    ks = (1, 5, 20, 80, 199)
    # fn:1 pools a single neighbour's fixations, short of 20 for some images
    with pytest.warns(UndersizedPoolWarning, match=r"negative pool \(19\) smaller"):
        report = quality_report(bias_dataset, samplers=[f"fn:{k}" for k in ks], seed=2)
    gammas = [report[f"fn:{k}"].contamination for k in ks]
    ranks = np.argsort(np.argsort(gammas))
    rho = np.corrcoef(ranks, np.arange(len(ks)))[0, 1]
    assert rho >= 0.8


def test_sampler_spec_parsing_errors(bias_dataset):
    small = DatasetIndex(bias_dataset.images[:4], sigma=bias_dataset.sigma)
    with pytest.raises(ValueError):
        quality_report(small, samplers=("fn",), seed=0)
    with pytest.raises(ValueError):
        quality_report(small, samplers=("bogus:3",), seed=0)
    with pytest.raises(ValueError):
        quality_report(small, samplers=("shuffled:2",), seed=0)
