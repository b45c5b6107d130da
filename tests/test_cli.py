import json
import subprocess
import sys

import numpy as np
import pytest

from salmetric.cli import run
from salmetric.core import DatasetIndex, FixationSet, GridMap, ImageRecord
from salmetric.gaussian import density_from_fixations
from salmetric.io import read_manifest, read_map, write_manifest, write_map


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


def test_evaluate_missing_prediction(workspace, capsys):
    tmp, manifest, preds = workspace
    (preds / "img03.smap").unlink()
    code = run(["evaluate", str(manifest), "--pred", str(preds), "--out", str(tmp / "r.json")])
    assert code == 1
    assert "img03" in capsys.readouterr().err


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


def test_evaluate_empty_metric_list_exits_1(workspace, capsys):
    tmp, manifest, preds = workspace
    out = tmp / "r.json"
    assert run(["evaluate", str(manifest), "--pred", str(preds), "--metrics", "",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no metrics given" in err
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


def test_module_entry_point(workspace):
    tmp, manifest, _ = workspace
    out = tmp / "mod"
    proc = subprocess.run(
        [sys.executable, "-m", "salmetric", "density", str(manifest), "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert len(list(out.glob("*.smap"))) == 10
