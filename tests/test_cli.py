import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from salmetric import metrics as metrics_module
from salmetric import sampling as sampling_module
from salmetric.cli import run
from salmetric.core import DatasetIndex, FixationSet, GridMap, ImageRecord
from salmetric.gaussian import density_from_fixations
from salmetric.io import read_manifest, read_map, write_manifest, write_map
from salmetric.synth import SynthConfig, gen_dataset


@pytest.fixture()
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    images = []
    for i in range(10):
        picks = rng.choice(32 * 32, size=6, replace=False)
        images.append(ImageRecord(f"img{i:02d}", FixationSet.from_linear(picks, (32, 32))))
    ds = DatasetIndex(images, name="cli-demo", sigma=2.0)
    manifest = tmp_path / "manifest.json"
    write_manifest(ds, manifest)
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    for rec in ds.images:
        write_map(density_from_fixations(rec.fixations, 2.0), pred_dir / f"{rec.id}.smap")
    return tmp_path, manifest, pred_dir


def read_tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_density_command_deterministic(workspace):
    tmp, manifest, _ = workspace
    out1, out2 = tmp / "d1", tmp / "d2"
    assert run(["density", str(manifest), "--out", str(out1)]) == 0
    assert run(["density", str(manifest), "--out", str(out2)]) == 0
    assert list(read_tree(out1).values()) == list(read_tree(out2).values())
    d = read_map(out1 / "img00.smap")
    assert abs(d.values.sum() - 1.0) < 1e-3  # float32 payload


def test_evaluate_command_and_jobs(workspace):
    tmp, manifest, preds = workspace
    args = ["evaluate", str(manifest), "--pred", str(preds), "--splits", "10",
            "--k", "3", "--seed", "5"]
    r1, r2, r3 = tmp / "r1.json", tmp / "r2.json", tmp / "r3.json"
    assert run(args + ["--out", str(r1)]) == 0
    assert run(args + ["--out", str(r2)]) == 0
    assert run(args + ["--out", str(r3), "--jobs", "2"]) == 0
    assert r1.read_bytes() == r2.read_bytes() == r3.read_bytes()
    doc = json.loads(r1.read_text())
    assert set(doc["per_image"]) == {f"img{i:02d}" for i in range(10)}
    assert doc["config"]["seed"] == 5


def test_evaluate_jobs_starts_no_worker(workspace, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("evaluate started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    tmp, manifest, preds = workspace
    args = ["evaluate", str(manifest), "--pred", str(preds), "--splits", "4", "--k", "3"]
    assert run(args + ["--out", str(tmp / "r1.json"), "--jobs", "1"]) == 0
    assert run(args + ["--out", str(tmp / "r2.json"), "--jobs", "2"]) == 0
    assert (tmp / "r1.json").read_bytes() == (tmp / "r2.json").read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_evaluate_jobs_below_one_is_a_usage_error(workspace, capsys, jobs):
    tmp, manifest, preds = workspace
    code = run(["evaluate", str(manifest), "--pred", str(preds), "--out", str(tmp / "r.json"),
                "--jobs", jobs])
    assert code == 2
    assert "argument --jobs" in capsys.readouterr().err.strip().splitlines()[-1]
    assert not (tmp / "r.json").exists()


def test_evaluate_missing_prediction(workspace, capsys):
    tmp, manifest, preds = workspace
    (preds / "img03.smap").unlink()
    code = run(["evaluate", str(manifest), "--pred", str(preds), "--out", str(tmp / "r.json")])
    assert code == 1
    assert "img03" in capsys.readouterr().err


def test_evaluate_reads_one_prediction_at_a_time(tmp_path):
    """Each prediction file is read when its image is scored and dropped
    after it: from 8 to 16 images at 160×120, the tracemalloc peak of an
    ``evaluate`` run grows by less than a quarter of 8 maps."""
    frame = (160, 120)
    budget = 8 * frame[0] * frame[1] * 8 / 4

    def peak(n_images):
        root = tmp_path / f"n{n_images}"
        ds = gen_dataset(SynthConfig(n_images=n_images, frame=frame, fixations_per_image=10,
                                     seed=1))
        (root / "preds").mkdir(parents=True, exist_ok=True)
        write_manifest(ds, root / "manifest.json")
        for rec in ds.images:
            write_map(density_from_fixations(rec.fixations, ds.sigma),
                      root / "preds" / f"{rec.id}.smap")
        argv = ["evaluate", str(root / "manifest.json"), "--pred", str(root / "preds"),
                "--splits", "3", "--k", "2", "--out", str(root / "report.json")]
        tracemalloc.start()
        try:
            assert run(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # process-wide caches fill here, outside the measured runs
    small, large = peak(8), peak(16)
    assert large - small < budget, f"evaluate peak grew {large - small} bytes"


def test_evaluate_wrong_frame_exits_1_before_building_anything(workspace, capsys, monkeypatch):
    """Every file's header is read before scoring starts, so a map of
    another frame stops the run before any density or pool is built."""
    tmp, manifest, preds = workspace
    write_map(GridMap(np.ones((5, 7))), preds / "img07.smap")

    def built(*args, **kwargs):
        raise AssertionError("built before every prediction was checked")

    monkeypatch.setattr(metrics_module, "density_from_fixations", built)
    monkeypatch.setattr(sampling_module, "negative_pools", built)
    out = tmp / "r.json"
    assert run(["evaluate", str(manifest), "--pred", str(preds), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: prediction for 'img07' is (7, 5), dataset frame is (32, 32)\n"
    assert not out.exists()


def test_evaluate_metric_selection(workspace):
    tmp, manifest, preds = workspace
    out = tmp / "r.json"
    assert run(["evaluate", str(manifest), "--pred", str(preds), "--metrics", "cc,nss",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["aggregate"]) == {"cc", "nss"}


def test_negatives_command(workspace):
    tmp, manifest, _ = workspace
    for sampler in ("shuffled", "fn"):
        out1 = tmp / f"neg1-{sampler}"
        out2 = tmp / f"neg2-{sampler}"
        base = ["negatives", str(manifest), "--sampler", sampler, "--k", "3", "--seed", "2"]
        assert run(base + ["--out", str(out1)]) == 0
        assert run(base + ["--out", str(out2)]) == 0
        assert (out1 / "negatives.json").read_bytes() == (out2 / "negatives.json").read_bytes()
        doc = json.loads((out1 / "negatives.json").read_text())
        assert len(doc["images"]) == 10
        negatives = read_manifest(out1 / "negatives.json")
        for rec in read_manifest(manifest).images:
            assert len(negatives.image(rec.id).fixations) == len(rec.fixations)


def test_quality_command(workspace):
    tmp, manifest, _ = workspace
    out1, out2 = tmp / "q1.json", tmp / "q2.json"
    base = ["quality", str(manifest), "--samplers", "shuffled,fn:3", "--seed", "4"]
    assert run(base + ["--out", str(out1)]) == 0
    assert run(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert set(doc["samplers"]) == {"shuffled", "fn:3"}
    for triple in doc["samplers"].values():
        assert set(triple) == {"penalization", "contamination", "ratio"}


def test_synth_command(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "n_images": 6, "frame": [24, 24], "fixations_per_image": 5,
        "center_bias_strength": 0.7, "seed": 9,
    }))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    base = ["synth", "--config", str(config), "--predictors", "oracle,center"]
    assert run(base + ["--out", str(out1)]) == 0
    assert run(base + ["--out", str(out2)]) == 0
    assert list(read_tree(out1).values()) == list(read_tree(out2).values())
    assert (out1 / "manifest.json").exists()
    assert len(list((out1 / "pred_oracle").glob("*.smap"))) == 6
    assert len(list((out1 / "pred_center").glob("*.smap"))) == 6


def test_sweep_command_default_grid(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "n_images": 4, "frame": [24, 24], "fixations_per_image": 6, "seed": 3,
    }))
    out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
    base = ["sweep", str(config), "--metrics", "cc,nss", "--seed", "2"]
    assert run(base + ["--out", str(out1)]) == 0
    assert run(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["sigmas"] == [10.0, 20.0, 30.0, 40.0, 50.0]
    assert set(doc["metrics"]) == {"cc", "nss"}


def test_sweep_accepts_manifest(workspace):
    tmp, manifest, _ = workspace
    out = tmp / "t.json"
    assert run(["sweep", str(manifest), "--sigmas", "2,4", "--metrics", "nss",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["sigmas"] == [2.0, 4.0]
    assert doc["sigma_gt"] == 2.0  # falls back to the dataset sigma


def test_smooth_command(workspace):
    tmp, _, _ = workspace
    rng = np.random.default_rng(1)
    quant = GridMap(rng.choice([0.0, 0.5, 1.0], size=(16, 16)))
    src = tmp / "q.smap"
    write_map(quant, src)
    for mode in ("global", "noise"):
        out1 = tmp / f"s1-{mode}.smap"
        out2 = tmp / f"s2-{mode}.smap"
        base = ["smooth", str(src), "--mode", mode, "--seed", "6"]
        assert run(base + ["--out", str(out1)]) == 0
        assert run(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        smoothed = read_map(out1)
        assert np.unique(smoothed.values).size > 3


def test_smooth_negative_noise_seed_exits_1_naming_the_seed(workspace, capsys):
    tmp, _, _ = workspace
    src = tmp / "q.smap"
    write_map(GridMap(np.random.default_rng(1).choice([0.0, 0.5, 1.0], size=(16, 16))), src)
    out = tmp / "noise.smap"
    assert run(["smooth", str(src), "--mode", "noise", "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: the noise seed must be a non-negative integer, got -1\n"
    assert not out.exists()
    # the global mode ignores the seed, as before
    for seed in ("-1", "0"):
        assert run(["smooth", str(src), "--seed", seed, "--out", str(tmp / f"g{seed}.smap")]) == 0
    assert (tmp / "g-1.smap").read_bytes() == (tmp / "g0.smap").read_bytes()


def test_usage_errors_exit_2(tmp_path):
    assert run([]) == 2
    assert run(["evaluate"]) == 2
    assert run(["smooth", "x.smap", "--mode", "sideways", "--out", "y.smap"]) == 2


def test_data_errors_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["density", str(missing), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_sigma_exits_1(workspace, capsys):
    tmp, manifest, preds = workspace
    doc = json.loads(manifest.read_text())
    doc["sigma"] = float("inf")
    inf_manifest = tmp / "inf.json"
    inf_manifest.write_text(json.dumps(doc))  # written as Infinity, which json.load accepts
    for argv in (
        ["density", str(manifest), "--sigma", "inf", "--out", str(tmp / "d")],
        ["evaluate", str(manifest), "--pred", str(preds), "--sigma", "inf",
         "--out", str(tmp / "r.json")],
        ["sweep", str(manifest), "--sigmas", "2,inf", "--out", str(tmp / "t.json")],
        ["evaluate", str(inf_manifest), "--pred", str(preds), "--out", str(tmp / "r.json")],
    ):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err


def test_underflowing_sigma_exits_1(workspace, capsys):
    tmp, manifest, _ = workspace
    assert run(["density", str(manifest), "--sigma", "1e200", "--out", str(tmp / "d")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "sigma 1e+200" in err


def test_fn_auc_at_an_underflowing_sigma_exits_1(workspace, capsys):
    tmp, manifest, preds = workspace
    assert run(["evaluate", str(manifest), "--pred", str(preds), "--metrics", "fn_auc",
                "--sigma", "1e200", "--out", str(tmp / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "sigma 1e+200 is so wide" in err
    assert not (tmp / "r.json").exists()


def test_sigma_whose_kernel_overflows_exits_1(workspace, capsys):
    tmp, manifest, preds = workspace
    for argv, named in (
        (["density", str(manifest), "--sigma", "1e-200", "--out", str(tmp / "d")], "sigma 1e-200"),
        (["evaluate", str(manifest), "--pred", str(preds), "--sigma", "1e-320",
          "--out", str(tmp / "r.json")], "sigma 1e-320"),
    ):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err


def test_evaluate_empty_metric_list_exits_1(workspace, capsys):
    tmp, manifest, preds = workspace
    out = tmp / "r.json"
    assert run(["evaluate", str(manifest), "--pred", str(preds), "--metrics", "",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no metrics given" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["evaluate", "{manifest}", "--pred", "{preds}", "--metrics", "cc,nss,cc"],
    ["sweep", "{manifest}", "--sigmas", "1,2", "--metrics", "cc,cc"],
])
def test_repeated_metric_exits_1(workspace, capsys, command):
    tmp, manifest, preds = workspace
    out = tmp / "r.json"
    argv = [a.format(manifest=manifest, preds=preds) for a in command]
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "metrics named more than once: ['cc']" in err
    assert not out.exists()


def test_sweep_synth_config_unknown_key_exits_1(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_images": 4, "frame": [24, 24], "bogus": 1}))
    assert run(["sweep", str(config), "--out", str(tmp_path / "t.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown synth config keys ['bogus']" in err


def test_synth_config_fractional_frame_exits_1(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_images": 4, "frame": [24.5, 20]}))
    out = tmp_path / "s"
    assert run(["synth", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'frame' must be two integers" in err
    assert not out.exists()


@pytest.mark.parametrize("text, named", [
    ('{"n_images": 2.5}', "n_images must be an integer, got 2.5"),
    ('{"n_object_clusters": 1.5}', "n_object_clusters must be an integer, got 1.5"),
    ('{"cluster_sigma": 1e999}', "cluster_sigma must be positive and finite, got inf"),
    ('{"fixations_per_image": 2.5}', "fixations_per_image must be an integer, got 2.5"),
    ('{"n_images": true}', "n_images must be an integer, got True"),
    ('{"seed": 1.5}', "seed must be an integer, got 1.5"),
    ('{"frame": [0, 20]}', "'frame' must be two integers of at least 1, got (0, 20)"),
    ('{"cluster_sigma": true}', "cluster_sigma must be a real number, got True"),
    ('{"center_bias_strength": true}', "center_bias_strength must be a real number, got True"),
    ('{"cluster_sigma": "3"}', "cluster_sigma must be a real number, got '3'"),
    ('{"center_bias_strength": [0.5]}', "center_bias_strength must be a real number, got [0.5]"),
])
@pytest.mark.parametrize("command", ["synth", "sweep"])
def test_synth_config_of_wrong_type_exits_1(tmp_path, capsys, text, named, command):
    config = tmp_path / "synth.json"
    config.write_text(text)
    out = tmp_path / "out"
    argv = ["synth", "--config", str(config)] if command == "synth" else ["sweep", str(config)]
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err
    assert not out.exists()


@pytest.mark.parametrize("samplers, named", [
    ("", "no samplers given"),
    ("fn:2,fn:2", "samplers named more than once: ['fn:2']"),
])
def test_quality_empty_or_repeated_samplers_exit_1(workspace, capsys, samplers, named):
    tmp, manifest, _ = workspace
    out = tmp / "q.json"
    assert run(["quality", str(manifest), "--samplers", samplers, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err
    assert not out.exists()


@pytest.mark.parametrize("metrics", ["cc,nss", "cc,fn_auc"])
def test_sweep_k_below_one_exits_1(workspace, capsys, metrics):
    tmp, manifest, _ = workspace
    out = tmp / "t.json"
    assert run(["sweep", str(manifest), "--sigmas", "1,2", "--metrics", metrics,
                "--k", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "k must be at least 1, got 0" in err
    assert not out.exists()


@pytest.mark.parametrize("sigma_gt", ["nan", "inf", "0", "-5"])
def test_sweep_sigma_gt_not_positive_finite_exits_1(workspace, capsys, sigma_gt):
    # nss builds no ground-truth density, so only the sweep itself can check the width
    tmp, manifest, _ = workspace
    out = tmp / "t.json"
    assert run(["sweep", str(manifest), "--sigmas", "1,2", "--metrics", "nss",
                "--sigma-gt", sigma_gt, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "sigma_gt must be positive and finite" in err
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-3"])
def test_negatives_k_below_one_exits_1(workspace, capsys, k):
    tmp, manifest, _ = workspace
    out = tmp / "negs"
    assert run(["negatives", str(manifest), "--sampler", "shuffled", "--k", k,
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"k must be at least 1, got {k}" in err
    assert not out.exists()


def test_synth_unknown_predictor_writes_nothing(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_images": 3, "frame": [16, 16], "fixations_per_image": 4}))
    out = tmp_path / "s"
    assert run(["synth", "--config", str(config), "--predictors", "oracle,bogus",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown predictor modes ['bogus']" in err
    assert not out.exists()


def test_sweep_repeated_width_exits_1(workspace, capsys):
    tmp, manifest, _ = workspace
    out = tmp / "s.json"
    assert run(["sweep", str(manifest), "--sigmas", "2,4,2", "--metrics", "nss",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: training widths named more than once: [2.0]\n"
    assert not out.exists()


def test_undersized_pool_warning_is_one_line(tmp_path):
    # on a 3x2 frame image "a" has 4 fixations and only 2 shuffled candidates
    ds = DatasetIndex([
        ImageRecord("a", FixationSet([(0, 0), (1, 0), (2, 0), (0, 1)], (3, 2))),
        ImageRecord("b", FixationSet([(1, 1)], (3, 2))),
        ImageRecord("c", FixationSet([(2, 1), (0, 0)], (3, 2))),
    ], sigma=1.0)
    write_manifest(ds, tmp_path / "manifest.json")
    proc = subprocess.run(
        [sys.executable, "-m", "salmetric", "negatives", str(tmp_path / "manifest.json"),
         "--sampler", "shuffled", "--out", str(tmp_path / "negs")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ("warning: negative pool (2) smaller than the positive set (4); "
                           "using the whole pool\n")


def test_quality_scores_each_image_before_the_next_pool_fails(tmp_path, capsys):
    """At a width of 1e10 image a's negatives have a constant density, and
    image b's shuffled pool is empty: ``quality`` exits 1 with a's score
    error, as a's set is scored before b's draw is counted."""
    manifest = tmp_path / "two.json"
    manifest.write_text(json.dumps({
        "name": "two", "width": 2, "height": 1, "sigma": 1e10,
        "images": [{"id": "a", "fixations": [[0, 0]]},
                   {"id": "b", "fixations": [[0, 0], [1, 0]]}]}))
    out = tmp_path / "quality.json"
    assert run(["quality", str(manifest), "--samplers", "shuffled", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: constant input has no correlation\n"
    assert not out.exists()


def test_module_entry_point(workspace):
    tmp, manifest, _ = workspace
    out = tmp / "mod"
    proc = subprocess.run(
        [sys.executable, "-m", "salmetric", "density", str(manifest), "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert len(list(out.glob("*.smap"))) == 10


def test_import_loads_no_process_pool():
    # every image is scored in this process, so no code path needs the pool
    code = ("import sys, salmetric.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("tie_break, loaded", [("global", False), ("off", False), ("noise", True)])
def test_evaluate_imports_numpy_random_only_for_noise(workspace, tie_break, loaded):
    """Every draw replays numpy's on PCG64's raw words, so scoring all nine
    metrics loads no ``numpy.random``; ``--tie-break noise`` still draws its
    jitter with ``Generator.random``."""
    tmp, manifest, preds = workspace
    argv = ["evaluate", str(manifest), "--pred", str(preds), "--splits", "5", "--k", "3",
            "--tie-break", tie_break, "--out", str(tmp / f"{tie_break}.json")]
    code = ("import sys; from salmetric.cli import run; "
            f"code = run({argv!r}); print(code, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", str(loaded)]
    doc = json.loads((tmp / f"{tie_break}.json").read_text())
    assert len(doc["aggregate"]) == len(metrics_module.ALL_METRICS)


@pytest.mark.parametrize("metric, message", [
    ("auc_judd", "no negative locations"),
    ("auc_borji", "no negative candidates left after removing the positives"),
])
def test_fully_fixated_frame_exits_1(tmp_path, capsys, metric, message):
    """An image that fixates every pixel leaves no negatives: AUC-Judd and
    AUC-Borji exit 1 with one line each."""
    frame = (3, 2)
    ds = DatasetIndex([
        ImageRecord("all", FixationSet([(x, y) for x in range(3) for y in range(2)], frame)),
        ImageRecord("one", FixationSet([(1, 1)], frame)),
    ], sigma=1.0)
    write_manifest(ds, tmp_path / "manifest.json")
    (tmp_path / "preds").mkdir()
    for i, rec in enumerate(ds.images):
        write_map(GridMap(np.arange(6.0).reshape(2, 3) + i), tmp_path / "preds" / f"{rec.id}.smap")
    out = tmp_path / "report.json"
    assert run(["evaluate", str(tmp_path / "manifest.json"), "--pred", str(tmp_path / "preds"),
                "--metrics", metric, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def one_image_run(tmp_path, write, metrics):
    """Run ``evaluate --metrics metrics`` on one 9×7 image whose prediction
    ``write`` puts at the path it is given; returns the exit code and
    whether a report was written."""
    frame = (9, 7)
    ds = DatasetIndex([ImageRecord("a", FixationSet([(1, 1), (6, 4)], frame))], sigma=1.0)
    write_manifest(ds, tmp_path / "manifest.json")
    (tmp_path / "preds").mkdir(exist_ok=True)
    write(tmp_path / "preds" / "a")
    out = tmp_path / "report.json"
    code = run(["evaluate", str(tmp_path / "manifest.json"), "--pred", str(tmp_path / "preds"),
                "--metrics", metrics, "--out", str(out)])
    return code, out.exists()


@pytest.mark.parametrize("metric, message", [("cc", "constant input has no correlation"),
                                             ("nss", "constant map has no z-scores")])
def test_constant_graymap_exits_1_from_cc_and_nss(tmp_path, capsys, metric, message):
    """A graymap of code 26 on every pixel is constant, though the mean of
    its 63 values does not round back to 26/255: cc and nss exit 1 with one
    line and write no report."""
    def graymap(stem):
        stem.with_suffix(".pgm").write_bytes(b"P5\n9 7\n255\n" + bytes([26]) * 63)

    assert one_image_run(tmp_path, graymap, metric) == (1, False)
    assert capsys.readouterr().err == f"error: {message}\n"


def _half_smap(stem):
    path = stem.with_suffix(".smap")
    write_map(GridMap(np.arange(63.0).reshape(7, 9)), path)
    path.write_bytes(path.read_bytes()[:16 + 126])
    return path


def _pgm_above_maxval(stem):
    path = stem.with_suffix(".pgm")
    path.write_bytes(b"P5\n9 7\n100\n" + bytes([200]) + bytes(62))
    return path


@pytest.mark.parametrize("write, message", [
    (_half_smap, "payload is 126 bytes, header promises 252"),
    (_pgm_above_maxval, "graymap code 200 exceeds its maxval 100"),
], ids=["truncated-smap", "pgm-above-maxval"])
def test_a_faulty_map_file_exits_1_naming_it(tmp_path, capsys, write, message):
    """A float map cut short, found from its header, and a graymap with a
    code above its maxval, found when it is read, each exit 1 with one line
    that names the file, and write no report."""
    paths = []
    assert one_image_run(tmp_path, lambda stem: paths.append(write(stem)), "cc") == (1, False)
    assert capsys.readouterr().err == f"error: {paths[0]}: {message}\n"


@pytest.mark.parametrize("metrics", ["cc", "sim", "kld", "ig", "cc,nss", "nss,cc"])
@pytest.mark.parametrize("values, message", [
    (np.arange(63.0).reshape(7, 9) - 0.5, "map has negative values"),
    (np.zeros((7, 9)), "cannot normalize an all-zero map"),
], ids=["negative", "all-zero"])
def test_a_prediction_with_no_density_exits_1(tmp_path, capsys, metrics, values, message):
    """A plain prediction with a negative value, or with no mass, has no
    density: each distribution metric exits 1 with normalize_to_density's
    line and writes no report. nss, asked first, finds the all-zero map
    constant before cc looks at it."""
    if metrics == "nss,cc" and not values.any():
        message = "constant map has no z-scores"
    assert one_image_run(tmp_path, lambda stem: write_map(GridMap(values), stem.with_suffix(".smap")),
                         metrics) == (1, False)
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["evaluate", "negatives", "quality", "density", "sweep"])
def test_default_commands_load_no_openssl(workspace, command):
    """Every seed is a SHA-256 from the interpreter's built-in module, so a
    default run of each command loads no ``_hashlib`` (OpenSSL's libcrypto).
    ``evaluate --tie-break noise`` and ``synth`` are exempt: they draw through
    ``numpy.random``, which imports ``secrets`` → ``hmac`` → ``_hashlib``."""
    tmp, manifest, preds = workspace
    out = str(tmp / f"{command}.out")
    argv = {"evaluate": ["evaluate", str(manifest), "--pred", str(preds), "--splits", "5",
                         "--k", "3", "--out", out],
            "negatives": ["negatives", str(manifest), "--sampler", "fn", "--k", "3", "--out", out],
            "quality": ["quality", str(manifest), "--samplers", "shuffled,fn:3", "--out", out],
            "density": ["density", str(manifest), "--out", out],
            "sweep": ["sweep", str(manifest), "--sigmas", "2,4", "--metrics",
                      "cc,auc_judd,s_auc,fn_auc", "--splits", "5", "--k", "3", "--out", out]}[command]
    code = ("import sys; from salmetric.cli import run; "
            f"code = run({argv!r}); print(code, '_hashlib' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
    assert (tmp / f"{command}.out").exists()
