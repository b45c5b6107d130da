"""Correctness checks on the reports the benchmark's runs write.

A run's report passes when it loads with ``salmetric.io.read_report``, its
scores obey the invariants below, its NSS scores match a plain numpy
recomputation, and, for the default seed, every per-image score, split spread
and aggregate is within ``TOLERANCE`` of the reference stored under
``reference/``. Scores are compared, not the ``config`` block, so a change that
only drops config keys still passes. Byte equality between the runs of one
set is checked by the caller.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np

from salmetric.io import read_report

from workloads import SAMPLED_METRICS

TOLERANCE = 1e-9
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_UNIT_INTERVAL = ("sim", "auc_judd", "auc_borji", "s_auc", "fn_auc")


def reference_path(workload_name: str) -> Path:
    return REFERENCE_DIR / f"{workload_name}.json"


def scores_of(report) -> dict:
    return {"aggregate": report.aggregate, "per_image": report.per_image,
            "per_image_std": report.per_image_std}


def _compare(got, want, where: str, problems: list) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{where}: keys differ from the reference")
            return
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}", problems)
    elif not abs(float(got) - float(want)) <= TOLERANCE:
        problems.append(f"{where}: {got!r} differs from reference {want!r}")


def _read_smap(path: Path) -> np.ndarray:
    data = path.read_bytes()
    width, height = struct.unpack("<II", data[8:16])
    return np.frombuffer(data, dtype="<f4", offset=16).astype(np.float64).reshape(height, width)


def _nss_by_hand(manifest: dict, pred_dir: Path) -> dict:
    out = {}
    for entry in manifest["images"]:
        values = _read_smap(pred_dir / f"{entry['id']}.smap")
        xs, ys = np.array(entry["fixations"]).T
        z = (values - values.mean()) / values.std()
        out[entry["id"]] = float(z[ys, xs].mean())
    return out


def check_report(path: Path, workload, seed: int, data_dir: Path) -> list:
    """Problems found in one report; an empty list means it is correct."""
    try:
        report = read_report(path)
    except Exception as exc:  # any failure to load is a failed run, reported by name
        return [f"report does not load: {type(exc).__name__}: {exc}"]
    problems = []
    manifest = json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))
    ids = {entry["id"] for entry in manifest["images"]}
    metrics = set(workload.metrics)
    if set(report.per_image) != ids:
        problems.append("per_image ids differ from the manifest")
    if set(report.aggregate) != metrics:
        problems.append("aggregate metrics differ from the requested ones")
    sampled = metrics & set(SAMPLED_METRICS)
    for image_id, scores in report.per_image.items():
        if set(scores) != metrics:
            problems.append(f"{image_id}: metrics differ from the requested ones")
            continue
        for name, value in scores.items():
            if not math.isfinite(value):
                problems.append(f"{image_id}.{name} is not finite")
            elif name in _UNIT_INTERVAL and not 0.0 <= value <= 1.0:
                problems.append(f"{image_id}.{name}={value} outside [0, 1]")
            elif name == "cc" and not -1.0 - TOLERANCE <= value <= 1.0 + TOLERANCE:
                problems.append(f"{image_id}.cc={value} outside [-1, 1]")
        stds = report.per_image_std.get(image_id, {})
        if set(stds) != sampled or any(not s >= 0.0 for s in stds.values()):
            problems.append(f"{image_id}: split spreads missing or negative")
    for name in metrics & set(report.aggregate):
        mean = float(np.mean([report.per_image[i][name] for i in report.per_image]))
        if not abs(mean - report.aggregate[name]) <= TOLERANCE:
            problems.append(f"aggregate {name} is not the mean of the per-image scores")
    if "nss" in metrics and not problems:
        by_hand = _nss_by_hand(manifest, data_dir / f"pred_{workload.predictor}")
        for image_id, want in by_hand.items():
            if not abs(report.per_image[image_id]["nss"] - want) <= TOLERANCE:
                problems.append(f"{image_id}.nss differs from a numpy recomputation")
    if seed == DEFAULT_SEED:
        ref = reference_path(workload.name)
        if not ref.is_file():
            problems.append(f"no reference scores at {ref.name}")
        else:
            _compare(scores_of(report), json.loads(ref.read_text(encoding="utf-8")),
                     "scores", problems)
    return problems[:20]
