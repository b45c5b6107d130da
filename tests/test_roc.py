import numpy as np
import pytest

from salmetric.core import FixationSet, GridMap, complement_set
from salmetric.errors import EmptyNegativesError, EmptyPoolError, EmptyPositivesError
from salmetric.roc import RocCurve, auc, auc_averaged, auc_rows, auc_single, auc_values, roc_points
from salmetric.sampling import NegativePool


def pairwise_rank_oracle(pred, positives, negatives):
    """Brute-force Mann-Whitney statistic; ties count one half."""
    total = 0.0
    pv = pred.values_at(positives)
    nv = pred.values_at(negatives)
    for p in pv:
        for n in nv:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pv) * len(nv))


def test_roc_points_positive_holds_maximum():
    pred = GridMap([[0.1, 0.9], [0.4, 0.6]])
    curve = roc_points(pred, FixationSet([(1, 0)], (2, 2)), FixationSet([(0, 0), (0, 1)], (2, 2)))
    assert curve.points[0] == (0.0, 0.0)
    assert (0.0, 1.0) in curve.points
    assert curve.points[-1] == (1.0, 1.0)
    assert auc(curve) == 1.0


def test_roc_points_constant_map():
    pred = GridMap(np.full((2, 2), 0.3))
    curve = roc_points(pred, FixationSet([(0, 0)], (2, 2)), FixationSet([(1, 1)], (2, 2)))
    assert curve.points == ((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))
    assert auc(curve) == 0.5


def test_roc_points_hand_derived_threshold():
    pred = GridMap([[0.1, 0.9], [0.4, 0.6]])
    curve = roc_points(pred, FixationSet([(0, 1)], (2, 2)), FixationSet([(1, 0), (0, 0)], (2, 2)))
    # at threshold 0.4 every positive passes and one of two negatives does
    assert (0.5, 1.0) in curve.points
    assert abs(auc_single(pred, FixationSet([(0, 1)], (2, 2)),
                          FixationSet([(1, 0), (0, 0)], (2, 2))) - 0.5) < 1e-12


def test_roc_requires_nonempty_sets():
    pred = GridMap(np.ones((2, 2)))
    with pytest.raises(EmptyPositivesError):
        roc_points(pred, FixationSet([], (2, 2)), FixationSet([(0, 0)], (2, 2)))
    with pytest.raises(EmptyNegativesError):
        roc_points(pred, FixationSet([(0, 0)], (2, 2)), FixationSet([], (2, 2)))


def test_curve_validation():
    with pytest.raises(ValueError):
        RocCurve(((0.0, 0.0), (0.5, 0.2)))
    with pytest.raises(ValueError):
        RocCurve(((0.0, 0.0), (0.6, 0.9), (0.4, 1.0), (1.0, 1.0)))


def test_auc_examples():
    assert auc(RocCurve(((0, 0), (0, 1), (1, 1)))) == 1.0
    assert auc(RocCurve(((0, 0), (1, 1)))) == 0.5
    assert abs(auc(RocCurve(((0, 0), (0.5, 1), (1, 1)))) - 0.75) < 1e-12


def _random_case(rng, w=8, h=8, n_pos=8, n_neg=8):
    values = rng.permutation(w * h).astype(float) / (w * h)
    pred = GridMap(values.reshape(h, w))
    picks = rng.choice(w * h, size=n_pos + n_neg, replace=False)
    pos = FixationSet.from_linear(picks[:n_pos], (w, h))
    neg = FixationSet.from_linear(picks[n_pos:], (w, h))
    return pred, pos, neg


def test_auc_single_equals_rank_statistic():
    rng = np.random.default_rng(17)
    for _ in range(50):
        pred, pos, neg = _random_case(rng)
        assert abs(auc_single(pred, pos, neg) - pairwise_rank_oracle(pred, pos, neg)) < 1e-9


def test_auc_single_rank_statistic_with_ties():
    rng = np.random.default_rng(23)
    for _ in range(30):
        w = h = 8
        values = rng.integers(0, 5, size=(h, w)).astype(float)
        pred = GridMap(values)
        picks = rng.choice(w * h, size=16, replace=False)
        pos = FixationSet.from_linear(picks[:8], (w, h))
        neg = FixationSet.from_linear(picks[8:], (w, h))
        assert abs(auc_single(pred, pos, neg) - pairwise_rank_oracle(pred, pos, neg)) < 1e-9


def test_monotone_transform_invariance():
    rng = np.random.default_rng(29)
    for _ in range(20):
        pred, pos, neg = _random_case(rng)
        base = auc_single(pred, pos, neg)
        squashed = GridMap(np.exp(2.0 * pred.values) + 1.0)
        assert auc_single(squashed, pos, neg) == base


def test_antisymmetry_under_set_swap():
    rng = np.random.default_rng(31)
    for _ in range(20):
        pred, pos, neg = _random_case(rng)
        s = auc_single(pred, pos, neg)
        assert abs(auc_single(pred, neg, pos) - (1.0 - s)) < 1e-12


def test_auc_averaged_single_split_and_fixed_sampler():
    # a pool exactly the size of the positive set is drawn whole in every split
    rng = np.random.default_rng(37)
    pred, pos, neg = _random_case(rng)
    pool = NegativePool(neg)
    mean, std = auc_averaged(pred, pos, pool, n_splits=1, seed=0)
    assert mean == auc_single(pred, pos, neg)
    assert std == 0.0
    mean, std = auc_averaged(pred, pos, pool, n_splits=25, seed=0)
    assert mean == auc_single(pred, pos, neg)
    assert std == 0.0


def test_auc_averaged_deterministic():
    rng = np.random.default_rng(41)
    pred, pos, _ = _random_case(rng)
    pool = NegativePool(complement_set((8, 8), pos))
    first = auc_averaged(pred, pos, pool, n_splits=20, seed=9)
    second = auc_averaged(pred, pos, pool, n_splits=20, seed=9)
    assert first == second
    third = auc_averaged(pred, pos, pool, n_splits=20, seed=10)
    assert first != third


def test_auc_averaged_empty_draw():
    pred = GridMap(np.ones((2, 2)))
    pool = NegativePool(FixationSet([(1, 1)], (2, 2)))
    with pytest.raises(EmptyPositivesError):
        auc_averaged(pred, FixationSet([], (2, 2)), pool, n_splits=3, seed=0)
    with pytest.raises(EmptyPoolError):
        auc_averaged(pred, FixationSet([(0, 0)], (2, 2)), NegativePool(FixationSet([], (2, 2))))


def test_auc_single_heavily_tied_maps_match_brute_force():
    rng = np.random.default_rng(43)
    for _ in range(30):
        w, h = 12, 9
        pred = GridMap(rng.choice([0.0, 0.5, 1.0], size=(h, w)))
        picks = rng.permutation(w * h)
        n_pos = int(rng.integers(1, 20))
        pos = FixationSet.from_linear(picks[:n_pos], (w, h))
        neg = FixationSet.from_linear(picks[n_pos:], (w, h))
        assert abs(auc_single(pred, pos, neg) - pairwise_rank_oracle(pred, pos, neg)) < 1e-12


def test_auc_single_fully_tied_map_is_exactly_half():
    pred = GridMap(np.full((9, 12), -0.25))
    rng = np.random.default_rng(47)
    for n_pos in (1, 5, 107):
        picks = rng.permutation(108)
        pos = FixationSet.from_linear(picks[:n_pos], (12, 9))
        neg = FixationSet.from_linear(picks[n_pos:], (12, 9))
        assert auc_single(pred, pos, neg) == 0.5


def test_auc_single_equals_curve_area_on_random_maps():
    rng = np.random.default_rng(53)
    for _ in range(30):
        w, h = 16, 12
        pred = GridMap(rng.normal(size=(h, w)))
        picks = rng.permutation(w * h)
        n_pos = int(rng.integers(1, 40))
        n_neg = int(rng.integers(1, w * h - n_pos + 1))
        pos = FixationSet.from_linear(picks[:n_pos], (w, h))
        neg = FixationSet.from_linear(picks[n_pos:n_pos + n_neg], (w, h))
        assert abs(auc_single(pred, pos, neg) - auc(roc_points(pred, pos, neg))) < 1e-12


@pytest.mark.parametrize("levels", [(0.0, 0.5, 1.0), None])
def test_auc_rows_equals_auc_values_per_row(levels):
    rng = np.random.default_rng(61)
    for _ in range(20):
        n_pos, rows, count = (int(v) for v in rng.integers(1, 30, size=3))
        if levels is None:
            pv, neg = rng.normal(size=n_pos), rng.normal(size=(rows, count))
        else:
            pv, neg = rng.choice(levels, size=n_pos), rng.choice(levels, size=(rows, count))
        got = auc_rows(pv, neg)
        assert got.tolist() == [auc_values(pv, row) for row in neg]
