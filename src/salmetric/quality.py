"""Quality measures for sampled negative sets.

A good negative set does two things at once: it lands where a pure
center-bias prediction is strong (so that prediction gets penalized), and it
stays away from the true positives (so a correct prediction does not). The
two measures here score exactly that trade-off; their ratio
(contamination / penalization) is lower for better sets.
"""

from dataclasses import dataclass

import numpy as np

from .core import DatasetIndex, DensityMap, FixationSet
from .errors import EmptyFixationsError
from .gaussian import center_bias_map, density_from_fixations
from .metrics import _tie_break, auc_judd, cc
from .sampling import draw_negatives
from .seeding import derive_seed

QUALITY_MEASURES = ("cc", "auc")


@dataclass(frozen=True)
class QualityTriple:
    penalization: float  # higher is better
    contamination: float  # lower is better
    ratio: float | None  # contamination / penalization; None when penalization is 0


def make_triple(penalization: float, contamination: float) -> QualityTriple:
    ratio = contamination / penalization if penalization != 0.0 else None
    return QualityTriple(penalization, contamination, ratio)


def _agreement(pred: DensityMap, fixations: FixationSet, sigma: float, measure: str,
               density: DensityMap | None = None) -> float:
    """Score ``pred`` against ``fixations`` with the metric suite: ``cc`` with
    their density at ``sigma`` (``density``, when built already), or ``auc_judd``."""
    if measure == "cc":
        return cc(pred, density_from_fixations(fixations, sigma) if density is None else density)
    if measure == "auc":
        return auc_judd(pred, fixations)
    raise ValueError(f"unknown measure {measure!r}; choose from {QUALITY_MEASURES}")


def center_penalization(negatives: FixationSet, center: DensityMap | None = None,
                        sigma: float = 19.0, measure: str = "cc") -> float:
    """How strongly the negatives would reward a pure center-bias prediction.

    Treats the negatives as if they were positives and scores the centered
    density against them."""
    if len(negatives) == 0:
        raise EmptyFixationsError("no negatives to score")
    if center is None:
        center = center_bias_map(negatives.frame)
    return _agreement(center, negatives, sigma, measure)


def positive_contamination(negatives: FixationSet, positives: FixationSet,
                           sigma: float = 19.0, measure: str = "cc") -> float:
    """How much the negatives overlap the positives they should contrast with.

    Treats the negatives' density as a prediction and scores it against the
    true positives."""
    if len(negatives) == 0 or len(positives) == 0:
        raise EmptyFixationsError("need non-empty negative and positive sets")
    return _agreement(density_from_fixations(negatives, sigma), positives, sigma, measure)


def _parse_sampler(label: str):
    """Sampler spec "shuffled" or "fn:K" as ``(sampler, k)`` for :func:`draw_negatives`."""
    kind, *params = label.split(":")
    if kind == "shuffled" and not params:
        return "shuffled", None
    if kind == "fn" and len(params) == 1:
        try:
            return "fn", int(params[0])
        except ValueError as exc:
            raise ValueError(f"sampler {label!r}: {exc}") from None
    raise ValueError(f"unknown sampler {label!r}; expected shuffled or fn:K")


def quality_report(dataset: DatasetIndex, samplers=("shuffled", "fn:5"), seed: int = 0,
                   sigma: float | None = None, measure: str = "cc") -> dict:
    """Mean quality triple per sampler across all images of the dataset.

    Each image's draw is seeded from (seed, sampler label, image id), so the
    report is deterministic and order-independent. The samplers'
    :func:`draw_negatives` run in step, so the first faulty image in
    manifest order ends the run, and of its samplers the first listed."""
    if measure not in QUALITY_MEASURES:
        raise ValueError(f"unknown measure {measure!r}; choose from {QUALITY_MEASURES}")
    samplers = list(samplers)
    if not samplers:
        raise ValueError("no samplers given; expected shuffled or fn:K")
    repeated = sorted({label for label in samplers if samplers.count(label) > 1})
    if repeated:
        raise ValueError(f"samplers named more than once: {repeated}")
    sigma = dataset.sigma if sigma is None else float(sigma)
    center = center_bias_map(dataset.frame)
    center = _tie_break(center, "global", 0) if measure == "auc" else center  # tie-broken once
    drawn = [draw_negatives(sampler, dataset, [derive_seed(seed, label, rec.id)
                                               for rec in dataset.images], k, sigma)
             for label, (sampler, k) in zip(samplers, map(_parse_sampler, samplers))]
    triples = {label: [] for label in samplers}
    # each sampler draws an image's set just before it is scored; the image's
    # positives' density serves every sampler, a set's density both measures
    for rec in dataset.images:
        truth = None
        for label, negatives in zip(samplers, map(next, drawn)):
            density = density_from_fixations(negatives, sigma)
            penalization = _agreement(center, negatives, sigma, measure, density)
            if truth is None and measure == "cc":  # at its first use
                truth = density_from_fixations(rec.fixations, sigma)
            triples[label].append(make_triple(
                penalization, _agreement(density, rec.fixations, sigma, measure, truth)))
    out = {}
    for label, scored in triples.items():
        ratios = [t.ratio for t in scored if t.ratio is not None]
        out[label] = QualityTriple(float(np.mean([t.penalization for t in scored])),
                                   float(np.mean([t.contamination for t in scored])),
                                   float(np.mean(ratios)) if ratios else None)
    return out
