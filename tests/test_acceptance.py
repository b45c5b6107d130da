"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion with the measured numbers.
"""

import json
import math
import time

import numpy as np

import reference
from salmetric.core import DensityMap, FixationSet, GridMap
from salmetric.errors import ZeroVarianceError
from salmetric.gaussian import center_bias_map, density_from_fixations
from salmetric.metrics import auc_judd, cc, fn_auc, ig, kld, nss, s_auc, sim
from salmetric.quality import quality_report
from salmetric.roc import auc_single
from salmetric.sampling import farthest_pool, shuffled_pool
from salmetric.smoothing import tie_break_global, tie_break_noise
from salmetric.synth import SynthConfig, gen_dataset, gen_prediction, quantize_map, sigma_sweep
from salmetric.cli import run as cli_run
from salmetric.io import write_manifest, write_map


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_auc_matches_pairwise_rank_statistic():
    """auc_single equals the brute-force pairwise statistic on distinct maps."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        values = rng.permutation(144).astype(float).reshape(12, 12) / 144.0
        pred = GridMap(values)
        picks = rng.choice(144, size=20, replace=False)
        pos = FixationSet.from_linear(picks[:10], (12, 12))
        neg = FixationSet.from_linear(picks[10:], (12, 12))
        oracle = reference.pairwise_auc(pred.values_at(pos), pred.values_at(neg))
        worst = max(worst, abs(auc_single(pred, pos, neg) - oracle))
    elapsed = time.monotonic() - start
    report(1, worst < 1e-9 and elapsed < 10.0,
           f"max |auc - rank statistic| = {worst:.2e} over 1000 trials in {elapsed:.1f}s")


def test_criterion_02_blur_matches_dense_convolution():
    """A fixation density is the dense convolution of the fixation map with
    the truncated 2D kernel, renormalised to mass 1."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for sigma in (1.0, 2.0, 4.0):
        for _ in range(34):
            picks = rng.choice(256, size=int(rng.integers(1, 41)), replace=False)
            fixations = FixationSet.from_linear(picks, (16, 16))
            dense = reference.dense_convolution(reference.vectorize(fixations), sigma)
            fast = density_from_fixations(fixations, sigma).values
            worst = max(worst, float(np.max(np.abs(fast - dense / dense.sum()))))
    report(2, worst < 1e-12, f"max |separable - dense| = {worst:.2e} over 102 densities")


def test_criterion_03_metric_analytic_suite():
    tol = 1e-6
    checks = []

    a = GridMap([[1.0, 2.0], [3.0, 4.0]])
    checks.append(abs(cc(a, a) - 1.0) < tol)
    checks.append(abs(cc(a, GridMap(10.0 - 2.0 * a.values)) + 1.0) < tol)
    checks.append(abs(cc(GridMap([[1, 0], [0, 0]]), GridMap([[0, 1], [0, 0]])) + 1 / 3) < tol)

    pred = GridMap([[0.0, 1.0], [2.0, 3.0]])
    checks.append(abs(nss(pred, FixationSet([(1, 1)], (2, 2))) - 1.5 / math.sqrt(1.25)) < tol)
    checks.append(abs(nss(GridMap([[0.0, 1.0], [2.0, 1.0]]), FixationSet([(1, 0)], (2, 2)))) < tol)
    try:
        nss(GridMap(np.ones((2, 2))), FixationSet([(0, 0)], (2, 2)))
        checks.append(False)
    except ZeroVarianceError:
        checks.append(True)

    half = DensityMap([[0.5, 0.5]])
    skew = DensityMap([[0.25, 0.75]])
    checks.append(abs(sim(half, half) - 1.0) < tol)
    checks.append(sim(DensityMap([[1.0, 0.0]]), DensityMap([[0.0, 1.0]])) == 0.0)
    checks.append(abs(sim(half, skew) - 0.75) < tol)

    point = DensityMap([[1.0, 0.0]])
    checks.append(abs(kld(point, point)) < 1e-9)
    checks.append(abs(kld(point, half) - math.log(2.0)) < tol)
    checks.append(kld(point, half) != kld(half, point))

    base = center_bias_map((8, 8))
    fs = FixationSet([(3, 3), (4, 4)], (8, 8))
    checks.append(abs(ig(base, fs, base)) < tol)
    vals = base.values.copy()
    mask = np.zeros(vals.shape, dtype=bool)
    mask[fs.ys, fs.xs] = True
    taken = vals[mask].sum()
    vals[mask] *= 2.0
    vals[~mask] *= (1.0 - 2.0 * taken) / (1.0 - taken)
    checks.append(abs(ig(DensityMap(vals), fs, base) - 1.0) < tol)
    uniform = DensityMap(np.full((2, 2), 0.25))
    checks.append(abs(ig(uniform, FixationSet([(0, 1)], (2, 2)), uniform)) < tol)

    report(3, all(checks), f"{sum(checks)}/{len(checks)} analytic examples within 1e-6")


def test_criterion_04_shuffled_auc_center_bias_null(bias_dataset):
    start = time.monotonic()
    pred = center_bias_map(bias_dataset.frame)
    means = [s_auc(pred, rec.id, bias_dataset, n_splits=100, seed=42)[0]
             for rec in bias_dataset.images]
    mean = float(np.mean(means))
    elapsed = time.monotonic() - start
    report(4, 0.47 <= mean <= 0.53 and elapsed < 60.0,
           f"center predictor mean S-AUC = {mean:.4f} over 200 images in {elapsed:.1f}s")


def test_criterion_05_farthest_beats_shuffled_quality(bias_dataset):
    triples = quality_report(bias_dataset, samplers=("shuffled", "fn:5"), seed=11)
    fn = triples["fn:5"]
    s = triples["shuffled"]
    ok = fn.ratio < s.ratio and fn.contamination < s.contamination
    report(5, ok,
           f"ratio fn:5 {fn.ratio:.3f} < shuffled {s.ratio:.3f}; "
           f"contamination {fn.contamination:.3f} < {s.contamination:.3f}")


def test_criterion_06_full_k_pool_equals_shuffled_pool(bias_dataset):
    n = len(bias_dataset)
    equal = 0
    for rec in bias_dataset.images:
        fn = farthest_pool(rec.id, bias_dataset, n - 1)
        s = shuffled_pool(rec.id, bias_dataset)
        if fn.support == s.support and np.array_equal(fn.weights, s.weights):
            equal += 1
    report(6, equal == n, f"candidate pools identical for {equal}/{n} images")


def test_criterion_07_sigma_sweep_directions():
    start = time.monotonic()
    ds = gen_dataset(SynthConfig(n_images=100, frame=(64, 64), fixations_per_image=200,
                                 center_bias_strength=0.8, seed=7))
    table = sigma_sweep(ds, [10, 20, 30, 40, 50], sigma_gt=20,
                        metrics=("cc", "nss", "auc_judd"), seed=3)
    elapsed = time.monotonic() - start
    cc_row = table.scores["cc"]
    nss_row = table.scores["nss"]
    dev = table.deviation
    peak_ok = cc_row.index(max(cc_row)) == 1
    nss_ok = all(a > b for a, b in zip(nss_row, nss_row[1:]))
    dev_ok = dev["auc_judd"] < dev["cc"] < dev["nss"]
    report(7, peak_ok and nss_ok and dev_ok and elapsed < 120.0,
           f"cc peaks at 20: {peak_ok}; nss decreasing: {nss_ok}; "
           f"dev auc_judd {dev['auc_judd']:.4f} < cc {dev['cc']:.4f} < nss {dev['nss']:.4f}; "
           f"{elapsed:.1f}s")


def order_violations(before, after):
    b = before.ravel()
    a = after.ravel()
    levels = np.unique(b)
    group_max = np.array([a[b == lv].max() for lv in levels])
    group_min = np.array([a[b == lv].min() for lv in levels])
    bad = 0
    for i in range(len(levels) - 1):
        if group_max[i] >= group_min[i + 1 :].min():
            bad += 1
    return bad


def test_criterion_08_global_smoothing_beats_noise():
    # trials: centrally generated fixations scored against the three-level
    # quantization of their generating density
    ds = gen_dataset(SynthConfig(n_images=200, frame=(64, 64), fixations_per_image=100,
                                 center_bias_strength=1.0, seed=7))
    quantized = quantize_map(center_bias_map(ds.frame))
    wins = 0
    for i, rec in enumerate(ds.images):
        g = auc_judd(quantized, rec.fixations, tie_break="global")
        n = auc_judd(quantized, rec.fixations, tie_break="noise", seed=1000 + i)
        wins += (g >= n)
    rate = wins / len(ds)

    rng = np.random.default_rng(108)
    violations = 0
    for trial in range(20):
        pred = GridMap(rng.choice([0.0, 0.5, 1.0], size=(64, 64)))
        violations += order_violations(pred.values, tie_break_global(pred).values)
        violations += order_violations(pred.values, tie_break_noise(pred, seed=trial).values)
    report(8, rate >= 0.9 and violations == 0,
           f"global >= noise in {rate:.1%} of 200 trials; {violations} order violations")


def test_criterion_09_peripheral_predictor_penalized(bias_dataset):
    s_scores, fn_scores = [], []
    for rec in bias_dataset.images:
        peripheral = gen_prediction(rec, "peripheral", bias_dataset.sigma)
        s_scores.append(s_auc(peripheral, rec.id, bias_dataset, n_splits=100, seed=42)[0])
        fn_scores.append(fn_auc(peripheral, rec.id, bias_dataset, k=5, n_splits=100, seed=42)[0])
    s_mean = float(np.mean(s_scores))
    fn_mean = float(np.mean(fn_scores))
    report(9, fn_mean < s_mean,
           f"peripheral predictor: mean FN-AUC {fn_mean:.4f} < mean S-AUC {s_mean:.4f}")


def test_criterion_10_cli_end_to_end_determinism(tmp_path):
    ds = gen_dataset(SynthConfig(n_images=8, frame=(24, 24), fixations_per_image=6, seed=21))
    manifest = tmp_path / "manifest.json"
    write_manifest(ds, manifest)
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    for rec in ds.images:
        write_map(density_from_fixations(rec.fixations, ds.sigma),
                  pred_dir / f"{rec.id}.smap")
    quant = tmp_path / "quant.smap"
    write_map(quantize_map(center_bias_map(ds.frame)), quant)
    synth_config = tmp_path / "synth.json"
    synth_config.write_text(json.dumps({
        "n_images": 5, "frame": [20, 20], "fixations_per_image": 4, "seed": 13,
    }))

    def tree(root):
        return [p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()]

    commands = {
        "density": ["density", str(manifest)],
        "evaluate": ["evaluate", str(manifest), "--pred", str(pred_dir),
                     "--splits", "8", "--k", "3", "--seed", "5", "--jobs", "JOBS"],
        "negatives": ["negatives", str(manifest), "--sampler", "fn", "--k", "3", "--seed", "2"],
        "quality": ["quality", str(manifest), "--samplers", "shuffled,fn:3", "--seed", "4"],
        "synth": ["synth", "--config", str(synth_config), "--predictors", "oracle"],
        "sweep": ["sweep", str(synth_config), "--sigmas", "2,4", "--metrics", "cc,nss",
                  "--seed", "6"],
        "smooth": ["smooth", str(quant), "--mode", "noise", "--seed", "3"],
    }
    all_ok = True
    for name, args in commands.items():
        outputs = []
        for attempt, jobs in enumerate(("1", "2")):
            argv = [a.replace("JOBS", jobs) for a in args]
            target = tmp_path / f"{name}-{attempt}"
            if name in ("evaluate", "quality", "sweep"):
                out_args = ["--out", str(target.with_suffix(".json"))]
            elif name == "smooth":
                out_args = ["--out", str(target.with_suffix(".smap"))]
            else:
                out_args = ["--out", str(target)]
            code = cli_run(argv + out_args)
            assert code == 0, f"{name} exited {code}"
            if target.is_dir():
                outputs.append(tree(target))
            else:
                produced = target.with_suffix(".json") if name in ("evaluate", "quality", "sweep") \
                    else target.with_suffix(".smap")
                outputs.append(produced.read_bytes())
        if outputs[0] != outputs[1]:
            all_ok = False
            print(f"  mismatch in {name}")
    report(10, all_ok, f"{len(commands)} subcommand configurations byte-identical across reruns")
