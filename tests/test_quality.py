import numpy as np
import pytest

from salmetric.core import DatasetIndex, FixationSet, ImageRecord
from salmetric.errors import EmptyFixationsError, UndersizedPoolWarning
from salmetric.gaussian import center_bias_map, density_from_fixations
from salmetric import metrics as metrics_module
from salmetric.metrics import auc_judd, cc
from salmetric import quality as quality_module
from salmetric.quality import (
    QualityTriple,
    center_penalization,
    make_triple,
    positive_contamination,
    quality_report,
)
from salmetric.sampling import draw_negatives
from salmetric.seeding import derive_seed

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


def test_measures_score_through_the_metric_suite():
    negs = FixationSet([(5, 5), (30, 31), (33, 30)], FRAME)
    pos = FixationSet([(31, 31), (50, 12)], FRAME)
    center = center_bias_map(FRAME)
    dn, dp = density_from_fixations(negs, 3.0), density_from_fixations(pos, 3.0)
    # exact, and with the densities in the order the scores were defined with
    assert center_penalization(negs, center, 3.0) == cc(dn, center)
    assert positive_contamination(negs, pos, 3.0) == cc(dn, dp)
    assert center_penalization(negs, center, 3.0, "auc") == auc_judd(center, negs)
    assert positive_contamination(negs, pos, 3.0, "auc") == auc_judd(dn, pos)


def test_quality_report_rejects_unknown_measure_before_any_pool(bias_dataset, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was built")

    monkeypatch.setattr(quality_module, "draw_negatives", no_pool)
    with pytest.raises(ValueError, match="unknown measure 'nope'"):
        quality_report(bias_dataset, samplers=("shuffled",), measure="nope")


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


@pytest.mark.parametrize("measure", ["cc", "auc"])
def test_quality_report_scores_each_set_once(bias_dataset, measure, monkeypatch):
    """``quality_report`` builds each negative set's density once for both
    measures, each image's positives' density once for every sampler of
    ``cc``, and tie-breaks the centre map once per run for ``auc``; its
    means equal those of ``center_penalization`` and
    ``positive_contamination`` over the same sets, bit for bit."""
    small = DatasetIndex(bias_dataset.images[:8], sigma=bias_dataset.sigma)
    builds, tie_breaks = [], []

    def counted(count, real):
        return lambda *args, **kwargs: count.append(1) or real(*args, **kwargs)

    monkeypatch.setattr(quality_module, "density_from_fixations",
                        counted(builds, quality_module.density_from_fixations))
    monkeypatch.setattr(metrics_module, "tie_broken", counted(tie_breaks, metrics_module.tie_broken))
    report = quality_report(small, samplers=("shuffled", "fn:3"), seed=6, measure=measure)
    # per image: a set for each of the two samplers, and for cc its positives
    assert len(builds) == len(small) * (3 if measure == "cc" else 2)
    assert len(tie_breaks) == (2 * len(small) + 1 if measure == "auc" else 0)
    monkeypatch.undo()
    center = center_bias_map(small.frame)
    for label, (sampler, k) in (("shuffled", ("shuffled", None)), ("fn:3", ("fn", 3))):
        seeds = [derive_seed(6, label, rec.id) for rec in small.images]
        triples = [make_triple(center_penalization(negs, center, small.sigma, measure),
                               positive_contamination(negs, rec.fixations, small.sigma, measure))
                   for rec, negs in zip(small.images, draw_negatives(sampler, small, seeds, k))]
        ratios = [t.ratio for t in triples if t.ratio is not None]
        assert report[label] == QualityTriple(float(np.mean([t.penalization for t in triples])),
                                              float(np.mean([t.contamination for t in triples])),
                                              float(np.mean(ratios)) if ratios else None)


@pytest.mark.parametrize("samplers", [("shuffled", "fn:3"), ("fn:3", "shuffled")])
def test_quality_report_raises_the_first_faulty_image_then_the_first_sampler(
        bias_dataset, samplers, monkeypatch):
    """The samplers' draws run in step: ``fn:3`` fails at image 2 and
    ``shuffled`` at image 4, so image 2's fault is raised whichever sampler
    is listed first, and once image 3 fails under both, the sampler listed
    first is raised."""
    small = DatasetIndex(bias_dataset.images[:6], sigma=bias_dataset.sigma)
    real = quality_module.draw_negatives

    def failing(at):
        def stub(sampler, dataset, seeds, k=5, sigma=None):
            for i, negatives in enumerate(real(sampler, dataset, seeds, k, sigma)):
                if i == at[sampler]:
                    raise EmptyFixationsError(f"{sampler} fails at image {i}")
                yield negatives
        return stub

    monkeypatch.setattr(quality_module, "draw_negatives", failing({"fn": 2, "shuffled": 4}))
    with pytest.raises(EmptyFixationsError, match=r"^fn fails at image 2$"):
        quality_report(small, samplers=samplers, seed=1)
    monkeypatch.setattr(quality_module, "draw_negatives", failing({"fn": 3, "shuffled": 3}))
    first = samplers[0].split(":")[0]
    with pytest.raises(EmptyFixationsError, match=rf"^{first} fails at image 3$"):
        quality_report(small, samplers=samplers, seed=1)


def test_quality_report_scores_a_set_before_the_next_sampler_draws(bias_dataset, monkeypatch):
    """Each sampler draws an image's set just before it is scored: an empty
    ``shuffled`` set at image 1 fails its score before ``fn:3``'s draw of
    image 1, which would fail too, is taken."""
    small = DatasetIndex(bias_dataset.images[:4], sigma=bias_dataset.sigma)
    real = quality_module.draw_negatives

    def stub(sampler, dataset, seeds, k=5, sigma=None):
        for i, negatives in enumerate(real(sampler, dataset, seeds, k, sigma)):
            if i == 1 and sampler == "fn":
                raise AssertionError("fn drew image 1 before shuffled's set was scored")
            yield FixationSet.from_linear([], dataset.frame) if i == 1 else negatives

    monkeypatch.setattr(quality_module, "draw_negatives", stub)
    with pytest.raises(EmptyFixationsError, match="need at least one fixation"):
        quality_report(small, samplers=("shuffled", "fn:3"), seed=1)


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


@pytest.mark.parametrize("samplers, message", [
    ((), "no samplers given"),
    (("fn:2", "shuffled", "fn:2"), r"samplers named more than once: \['fn:2'\]"),
])
def test_quality_report_rejects_empty_and_repeated_samplers(bias_dataset, samplers, message):
    small = DatasetIndex(bias_dataset.images[:4], sigma=bias_dataset.sigma)
    with pytest.raises(ValueError, match=message):
        quality_report(small, samplers=samplers, seed=0)
