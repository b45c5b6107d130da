"""Evaluation toolkit for fixation-prediction (saliency) maps.

Core types live in :mod:`salmetric.core`, the metric suite in
:mod:`salmetric.metrics`, negative-set samplers in :mod:`salmetric.sampling`,
and file formats in :mod:`salmetric.io`. The most used names are re-exported
here.
"""

from .core import (
    DatasetIndex,
    DensityMap,
    FixationSet,
    GridMap,
    ImageRecord,
    complement_set,
    normalize_to_density,
)
from .gaussian import (
    center_bias_map,
    density_from_fixations,
    global_gaussian_map,
)
from .metrics import (
    EvalConfig,
    MetricReport,
    auc_borji,
    auc_judd,
    cc,
    evaluate_all,
    fn_auc,
    ig,
    kld,
    nss,
    s_auc,
    sim,
)
from .quality import QualityTriple, center_penalization, positive_contamination, quality_report
from .roc import RocCurve, auc_averaged, auc_single, roc_points
from .sampling import (
    NegativePool,
    NeighborList,
    negative_pool,
    neighbor_ranking,
    sample_from_pool,
)
from .smoothing import tie_break_global, tie_break_noise
from .synth import SynthConfig, SweepTable, gen_dataset, gen_prediction, sigma_sweep

__version__ = "0.1.0"
