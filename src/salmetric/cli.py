"""Batch command-line front end.

Usage:
    salmetric density  <manifest> --sigma 19 --out densities/
    salmetric evaluate <manifest> --pred preds/ --out report.json
    salmetric negatives <manifest> --sampler fn --k 5 --out negs/
    salmetric quality  <manifest> --samplers shuffled,fn:5 --out quality.json
    salmetric synth    --config synth.json --out data/
    salmetric sweep    <manifest-or-synth-config> --sigmas 10,20,30,40,50 --out sweep.json
    salmetric smooth   <map> --mode global --out smoothed.smap

Every subcommand is deterministic given --seed (default 0; wall-clock entropy
is never used). Usage errors exit with 2, data errors with 1.
"""

import argparse
import json
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

from . import io as sio
from .core import DatasetIndex, ImageRecord
from .errors import MissingPredictionError, SalmetricError, UnknownModeError
from .gaussian import density_from_fixations
from .metrics import ALL_METRICS, TIE_BREAK_MODES, EvalConfig, _check_frame, evaluate_all
from .quality import QUALITY_MEASURES, quality_report
from .sampling import draw_negatives
from .seeding import derive_seed
from .smoothing import tie_break_global, tie_break_noise
from .synth import PREDICTOR_MODES, SynthConfig, gen_dataset, gen_prediction, sigma_sweep


def _comma_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_synth_config(path, doc) -> SynthConfig:
    """Validate ``doc``, the synth config read from ``path``."""
    if not isinstance(doc, dict):
        raise SalmetricError(f"{path}: synth config must be a JSON object")
    unknown = set(doc) - set(SynthConfig.__dataclass_fields__)
    if unknown:
        raise SalmetricError(f"{path}: unknown synth config keys {sorted(unknown)}")
    if isinstance(doc.get("frame"), list):
        doc["frame"] = tuple(doc["frame"])
    try:
        return SynthConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise SalmetricError(f"{path}: bad synth config: {exc}") from exc


def _cmd_density(args) -> int:
    dataset = sio.read_manifest(args.manifest)
    sigma = dataset.sigma if args.sigma is None else args.sigma
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for rec in dataset.images:
        sio.write_map(density_from_fixations(rec.fixations, sigma), out / f"{rec.id}.smap")
    return 0


def _cmd_evaluate(args) -> int:
    dataset = sio.read_manifest(args.manifest)
    pred_dir = Path(args.pred)
    paths, frames = {}, {}
    for rec in dataset.images:
        for suffix in (".smap", ".pgm"):
            candidate = pred_dir / f"{rec.id}{suffix}"
            if candidate.exists():
                paths[rec.id] = candidate
                frames[rec.id] = sio.read_map_frame(candidate)
                break
        else:
            raise MissingPredictionError(f"no prediction file for image {rec.id!r} in {pred_dir}")
    for image_id, frame in frames.items():
        _check_frame(image_id, frame, dataset)
    config = EvalConfig(
        metrics=tuple(_comma_list(args.metrics)),
        seed=args.seed,
        n_splits=args.splits,
        k=args.k,
        sigma=args.sigma,
        tie_break=args.tie_break,
    )
    # each map is read when its image is scored, and dropped after it
    report = evaluate_all(dataset, sio.MapFiles(paths), config)
    sio.write_report(report, args.out)
    return 0


def _cmd_negatives(args) -> int:
    if args.k < 1:
        raise ValueError(f"k must be at least 1, got {args.k}")
    dataset = sio.read_manifest(args.manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seeds = [derive_seed(args.seed, "negatives", image_id) for image_id in dataset.ids]
    drawn = map(ImageRecord, dataset.ids, draw_negatives(args.sampler, dataset, seeds, args.k))
    negatives = DatasetIndex(drawn, name=f"{dataset.name}-negatives-{args.sampler}",
                             sigma=dataset.sigma)
    sio.write_manifest(negatives, out / "negatives.json")
    return 0


def _cmd_quality(args) -> int:
    dataset = sio.read_manifest(args.manifest)
    triples = quality_report(
        dataset,
        samplers=_comma_list(args.samplers),
        seed=args.seed,
        sigma=args.sigma,
        measure=args.measure,
    )
    doc = {
        "config": {"seed": args.seed, "sigma": dataset.sigma if args.sigma is None else args.sigma,
                   "measure": args.measure},
        "samplers": {label: asdict(triple) for label, triple in triples.items()},
    }
    sio.dump_json(doc, args.out)
    return 0


def _cmd_synth(args) -> int:
    config = _load_synth_config(args.config, _read_json(args.config))
    modes = _comma_list(args.predictors)
    unknown = [mode for mode in modes if mode not in PREDICTOR_MODES]
    if unknown:
        raise UnknownModeError(f"unknown predictor modes {unknown}; choose from {PREDICTOR_MODES}")
    dataset = gen_dataset(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sio.write_manifest(dataset, out / "manifest.json")
    for mode in modes:
        mode_dir = out / f"pred_{mode}"
        mode_dir.mkdir(exist_ok=True)
        for rec in dataset.images:
            pred = gen_prediction(rec, mode, dataset.sigma)
            sio.write_map(pred, mode_dir / f"{rec.id}.smap")
    return 0


def _cmd_sweep(args) -> int:
    doc = _read_json(args.dataset)
    if isinstance(doc, dict) and "images" in doc:
        dataset = sio.manifest_to_dataset(doc)
    else:
        dataset = gen_dataset(_load_synth_config(args.dataset, doc))
    table = sigma_sweep(
        dataset,
        sigma_train=[float(s) for s in _comma_list(args.sigmas)],
        sigma_gt=args.sigma_gt,
        metrics=tuple(_comma_list(args.metrics)),
        seed=args.seed,
        n_splits=args.splits,
        k=args.k,
    )
    doc = {
        "sigma_gt": table.sigma_gt,
        "sigmas": list(table.sigmas),
        "metrics": {
            m: {"scores": list(table.scores[m]), "deviation": table.deviation[m]}
            for m in table.scores
        },
    }
    sio.dump_json(doc, args.out)
    return 0


def _cmd_smooth(args) -> int:
    grid = sio.read_map(args.map)
    if args.mode == "global":
        smoothed = tie_break_global(grid)
    else:
        smoothed = tie_break_noise(grid, args.seed)
    sio.write_map(smoothed, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salmetric",
        description="Evaluate fixation-prediction maps against eye-fixation ground truth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="write per-image fixation densities")
    p.add_argument("manifest")
    p.add_argument("--sigma", type=float, default=None, help="blur width; defaults to the dataset's")
    p.add_argument("--out", required=True, help="output directory for .smap files")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("evaluate", help="score prediction maps and write a report")
    p.add_argument("manifest")
    p.add_argument("--pred", required=True, help="directory of <id>.smap or <id>.pgm files")
    p.add_argument("--metrics", default=",".join(ALL_METRICS))
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--splits", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--tie-break", choices=TIE_BREAK_MODES, default="global")
    p.add_argument("--out", required=True, help="report file")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="ignored: every image is scored in this process; still at least 1")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("negatives", help="draw one negative set per image")
    p.add_argument("manifest")
    p.add_argument("--sampler", choices=("shuffled", "fn"), required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_negatives)

    p = sub.add_parser("quality", help="compare negative samplers")
    p.add_argument("manifest")
    p.add_argument("--samplers", default="shuffled,fn:5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--measure", choices=QUALITY_MEASURES, default="cc")
    p.add_argument("--out", required=True, help="report file")
    p.set_defaults(func=_cmd_quality)

    p = sub.add_parser("synth", help="generate a synthetic dataset and predictor maps")
    p.add_argument("--config", required=True, help="JSON synth config")
    p.add_argument("--predictors", default="oracle",
                   help=f"comma list from {', '.join(PREDICTOR_MODES)}")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("sweep", help="score the oracle predictor across blur widths")
    p.add_argument("dataset", help="dataset manifest or synth config")
    p.add_argument("--sigmas", default="10,20,30,40,50")
    p.add_argument("--sigma-gt", type=float, default=None)
    p.add_argument("--metrics", default="cc,nss,auc_judd",
                   help=f"comma list from {', '.join(ALL_METRICS)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--splits", type=int, default=100)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", required=True, help="table file")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("smooth", help="tie-break a quantized map")
    p.add_argument("map")
    p.add_argument("--mode", choices=("global", "noise"), default="global")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output map file")
    p.set_defaults(func=_cmd_smooth)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def run(argv) -> int:
    with warnings.catch_warnings():
        # a warning is one line, like an error, without Python's source line
        warnings.showwarning = _print_warning
        try:
            try:
                args = build_parser().parse_args(argv)
            except SystemExit as exc:
                return int(exc.code or 0)
            return args.func(args)
        except (SalmetricError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
