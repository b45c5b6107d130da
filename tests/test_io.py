import json
import re
import struct

import numpy as np
import pytest

from salmetric import io as io_module
from salmetric.cli import run as cli_run
from salmetric.core import DatasetIndex, FixationSet, GridMap, ImageRecord
from salmetric.errors import (
    BadMagicError,
    DuplicateIdError,
    NonFiniteValueError,
    OutOfBoundsFixationError,
    SchemaError,
    TruncatedPayloadError,
)
from salmetric.io import (
    MapFiles,
    read_manifest,
    read_map,
    read_map_frame,
    read_report,
    write_manifest,
    write_map,
    write_report,
)
from salmetric.metrics import EvalConfig, evaluate_all
from salmetric.gaussian import density_from_fixations


def test_map_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.random((5, 7), dtype=np.float32).astype(np.float64)
    path = tmp_path / "m.smap"
    write_map(GridMap(values), path)
    back = read_map(path)
    assert np.array_equal(back.values, values)
    assert back.frame == (7, 5)


def test_map_write_quantizes_to_float32(tmp_path):
    values = np.array([[1.0 / 3.0, 2.0 / 3.0]])
    path = tmp_path / "m.smap"
    write_map(GridMap(values), path)
    back = read_map(path)
    assert np.array_equal(back.values, values.astype(np.float32).astype(np.float64))


def test_map_write_twice_identical_bytes(tmp_path):
    rng = np.random.default_rng(1)
    grid = GridMap(rng.random((4, 4)))
    a = tmp_path / "a.smap"
    b = tmp_path / "b.smap"
    write_map(grid, a)
    write_map(grid, b)
    assert a.read_bytes() == b.read_bytes()


def test_map_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"JUNKxxxxxxxxxxxxxxx")
    with pytest.raises(BadMagicError):
        read_map(path)


def test_map_truncated(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "m.smap"
    write_map(GridMap(rng.random((6, 6))), path)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(TruncatedPayloadError):
        read_map(path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(TruncatedPayloadError):
        read_map(path)


def test_map_rejects_wrong_version(tmp_path):
    path = tmp_path / "m.smap"
    header = b"SMAP" + struct.pack("<III", 2, 1, 1) + struct.pack("<f", 0.5)
    path.write_bytes(header)
    with pytest.raises(BadMagicError):
        read_map(path)


def test_map_rejects_nonfinite_payload(tmp_path):
    path = tmp_path / "m.smap"
    payload = struct.pack("<2f", 1.0, float("inf"))
    path.write_bytes(b"SMAP" + struct.pack("<III", 1, 2, 1) + payload)
    with pytest.raises(NonFiniteValueError):
        read_map(path)
    with pytest.raises(NonFiniteValueError):
        write_map(GridMap([[1e300]]), tmp_path / "big.smap")


def test_pgm_8bit(tmp_path):
    path = tmp_path / "g.pgm"
    raster = bytes([0, 128, 255, 64, 32, 16])
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + raster)
    grid = read_map(path)
    assert grid.frame == (3, 2)
    assert grid.values[0, 2] == 1.0
    assert abs(grid.values[0, 1] - 128 / 255) < 1e-12


def test_pgm_16bit_big_endian(tmp_path):
    path = tmp_path / "g.pgm"
    raster = struct.pack(">4H", 0, 1000, 65535, 123)
    path.write_bytes(b"P5 2 2 65535\n" + raster)
    grid = read_map(path)
    assert grid.values[0, 0] == 0.0
    assert grid.values[1, 0] == 1.0
    assert abs(grid.values[0, 1] - 1000 / 65535) < 1e-12


@pytest.mark.parametrize("header, raster, top, maxval", [
    (b"P5 3 1 100\n", bytes([0, 255, 100]), 255, 100),
    (b"P5 2 1 1000\n", struct.pack(">2H", 1001, 1000), 1001, 1000),
], ids=["8bit", "16bit"])
def test_pgm_code_above_maxval_is_rejected(tmp_path, capsys, header, raster, top, maxval):
    path = tmp_path / "g.pgm"
    path.write_bytes(header + raster)
    with pytest.raises(SchemaError, match=f"code {top} exceeds its maxval {maxval}"):
        read_map(path)
    assert cli_run(["smooth", str(path), "--out", str(tmp_path / "s.smap")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{top}" in err and f"{maxval}" in err


def test_pgm_truncated_raster(tmp_path):
    path = tmp_path / "g.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(TruncatedPayloadError):
        read_map(path)


_SMAP_2x3 = b"SMAP" + struct.pack("<III", 1, 2, 3) + struct.pack("<6f", *range(6))


@pytest.mark.parametrize("data", [
    _SMAP_2x3,
    _SMAP_2x3[:-1],
    _SMAP_2x3 + b"\x00",
    _SMAP_2x3[:10],
    b"SMAP" + struct.pack("<III", 2, 1, 1) + struct.pack("<f", 0.5),
    b"SMAP" + struct.pack("<III", 1, 0, 1),
    b"JUNKxxxxxxxxxxxxxxx",
    b"",
    b"P5\n# a comment\n3 2\n255\n" + bytes(6),
    b"P5 2 2 65535\n" + bytes(8),
    b"P5\n#" + b"c" * 9000 + b"\n3 2\n255\n" + bytes(6),
    b"P5 3 2 255 " + bytes(6) + b"trailing",
    b"P5\n4 4\n255\n" + bytes(7),
    b"P5\n4 4\n255",
    b"P5\n4 4",
    b"P5 x 4 255\n" + bytes(16),
    b"P5 4 4 70000\n" + bytes(32),
    b"P6 4 4 255\n" + bytes(48),
], ids=lambda data: repr(data[:24]))
def test_map_frame_reads_the_header_as_read_map_does(tmp_path, data):
    """The header alone gives the frame ``read_map`` gives, or the error it
    raises, message and all, whatever the header's length."""
    path = tmp_path / "m.bin"
    path.write_bytes(data)
    try:
        expected = read_map(path).frame
    except Exception as exc:  # the error the header read must raise too
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            read_map_frame(path)
    else:
        assert read_map_frame(path) == expected


def test_map_frame_leaves_the_payload_to_read_map(tmp_path):
    path = tmp_path / "m.smap"
    path.write_bytes(b"SMAP" + struct.pack("<III", 1, 2, 1) + struct.pack("<2f", 1.0, np.inf))
    assert read_map_frame(path) == (2, 1)
    with pytest.raises(NonFiniteValueError):
        read_map(path)


def test_map_files_read_on_every_access_and_keep_nothing(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    paths = {}
    for key in ("a", "b"):
        paths[key] = tmp_path / f"{key}.smap"
        write_map(GridMap(rng.random((3, 4))), paths[key])
    reads = []
    monkeypatch.setattr(io_module, "read_map", lambda path: reads.append(path) or path)
    files = MapFiles(paths)
    assert "a" in files and "c" not in files and reads == []
    assert list(files) == ["a", "b"] and len(files) == 2
    assert files["a"] == paths["a"] and files["a"] == paths["a"]
    assert reads == [paths["a"], paths["a"]]
    with pytest.raises(KeyError):
        files["c"]


def sample_dataset():
    return DatasetIndex(
        [
            ImageRecord("one", FixationSet([(0, 0), (3, 2)], (8, 6))),
            ImageRecord("two", FixationSet([(5, 5)], (8, 6))),
        ],
        name="demo",
        sigma=4.5,
    )


def test_manifest_round_trip(tmp_path):
    ds = sample_dataset()
    path = tmp_path / "m.json"
    write_manifest(ds, path)
    back = read_manifest(path)
    assert back.name == ds.name
    assert back.sigma == ds.sigma
    assert back.frame == ds.frame
    assert back.ids == ds.ids
    for a, b in zip(ds.images, back.images):
        assert a.fixations == b.fixations
    # byte-determinism
    write_manifest(back, tmp_path / "m2.json")
    assert (tmp_path / "m.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


def test_manifest_minimal(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "name": "tiny", "width": 4, "height": 4,
        "images": [{"id": "a", "fixations": [[1, 1], [2, 3]]}],
    }))
    ds = read_manifest(path)
    assert len(ds.pooled) == 2


def test_manifest_sigma_defaults(tmp_path):
    for name, expected in (("SALICON", 19.0), ("Toronto", 20.0), ("unheard-of", 19.0)):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "name": name, "width": 4, "height": 4,
            "images": [{"id": "a", "fixations": [[1, 1]]}],
        }))
        assert read_manifest(path).sigma == expected
    path.write_text(json.dumps({
        "name": "SALICON", "width": 4, "height": 4, "sigma": 2.5,
        "images": [{"id": "a", "fixations": [[1, 1]]}],
    }))
    assert read_manifest(path).sigma == 2.5


def test_manifest_out_of_bounds_names_image(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "name": "x", "width": 64, "height": 64,
        "images": [{"id": "good", "fixations": [[1, 1]]},
                   {"id": "bad", "fixations": [[999, 0]]}],
    }))
    with pytest.raises(OutOfBoundsFixationError, match="bad"):
        read_manifest(path)


def test_manifest_duplicate_id(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "name": "x", "width": 4, "height": 4,
        "images": [{"id": "a", "fixations": [[1, 1]]},
                   {"id": "a", "fixations": [[2, 2]]}],
    }))
    with pytest.raises(DuplicateIdError):
        read_manifest(path)


@pytest.mark.parametrize("doc", [
    [],
    {"width": 4, "height": 4},
    {"name": "x", "width": 4, "height": 4, "images": []},
    {"name": "x", "width": 4, "height": 4, "images": [{"id": 7, "fixations": []}]},
    {"name": "x", "width": 4, "height": 4,
     "images": [{"id": "a", "fixations": [[1.5, 2]]}]},
    {"name": "x", "width": 0, "height": 4,
     "images": [{"id": "a", "fixations": [[0, 0]]}]},
    {"name": "x", "width": True, "height": 4,
     "images": [{"id": "a", "fixations": [[0, 0]]}]},
    {"name": "x", "width": 4, "height": True,
     "images": [{"id": "a", "fixations": [[0, 0]]}]},
    {"name": "x", "width": 4.7, "height": 4,
     "images": [{"id": "a", "fixations": [[0, 0]]}]},
    {"name": "x", "width": 4, "height": "4",
     "images": [{"id": "a", "fixations": [[0, 0]]}]},
    {"name": "x", "width": 4, "height": 4,
     "images": [{"id": "a", "fixations": [[True, False]]}]},
    {"name": "x", "width": 4, "height": 4, "sigma": True,
     "images": [{"id": "a", "fixations": [[0, 0]]}]},
    {"name": "x", "width": 4, "height": 4, "sigma": float("inf"),
     "images": [{"id": "a", "fixations": [[0, 0]]}]},
    {"name": "x", "width": 4, "height": 4, "sigma": 10 ** 400,
     "images": [{"id": "a", "fixations": [[0, 0]]}]},
])
def test_manifest_schema_errors(tmp_path, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        read_manifest(path)


def test_manifest_invalid_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{nope")
    with pytest.raises(SchemaError):
        read_manifest(path)


def make_report():
    ds = sample_dataset()
    preds = {rec.id: density_from_fixations(rec.fixations, 2.0) for rec in ds.images}
    config = EvalConfig(metrics=("cc", "nss", "auc_judd", "auc_borji"), n_splits=5, seed=1)
    return evaluate_all(ds, preds, config)


def test_report_round_trip(tmp_path):
    report = make_report()
    path = tmp_path / "r.json"
    write_report(report, path)
    back = read_report(path)
    assert back.aggregate == report.aggregate
    assert back.per_image == report.per_image
    assert back.per_image_std == report.per_image_std
    assert back.config == report.config


def test_report_aggregate_recomputable(tmp_path):
    report = make_report()
    path = tmp_path / "r.json"
    write_report(report, path)
    doc = json.loads(path.read_text())
    for metric, value in doc["aggregate"].items():
        per = [doc["per_image"][i][metric] for i in doc["per_image"]]
        assert abs(value - sum(per) / len(per)) < 1e-12


def test_report_writes_identical_bytes(tmp_path):
    report = make_report()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_report(report, a)
    write_report(report, b)
    assert a.read_bytes() == b.read_bytes()


# A report as written while EvalConfig still had the fn-fast sampler's fields.
LEGACY_REPORT = """{
  "aggregate": {
    "nss": 1.25
  },
  "config": {
    "cc_threshold": 0.0,
    "fn_fast": false,
    "k": 3,
    "metrics": [
      "nss"
    ],
    "n_splits": 5,
    "seed": 1,
    "sigma": 2.0,
    "tie_break": "global"
  },
  "per_image": {
    "one": {
      "nss": 1.25
    }
  },
  "per_image_std": {}
}
"""


def test_report_legacy_config_keys(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(LEGACY_REPORT)
    report = read_report(path)
    assert report.config == EvalConfig(metrics=("nss",), seed=1, n_splits=5, k=3, sigma=2.0)
    assert report.per_image == {"one": {"nss": 1.25}}
    doc = json.loads(LEGACY_REPORT)
    doc["config"]["cc_thresh"] = 0.0
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        read_report(path)


@pytest.mark.parametrize("field, value", [
    ("metrics", []), ("metrics", ["nss", "nss"]), ("tie_break", "banana"), ("n_splits", 0), ("k", 0), ("sigma", -1.0),
    ("n_splits", 2.5), ("k", 2.5),
    ("seed", False), ("seed", 1.5), ("seed", "0"), ("n_splits", True), ("k", True), ("sigma", True),
])
def test_report_invalid_config_is_schema_error(tmp_path, field, value):
    doc = json.loads(LEGACY_REPORT)
    doc["config"][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="invalid config"):
        read_report(path)
