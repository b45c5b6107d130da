"""The benchmark's traced run wraps salmetric functions by name; a refactor
that drops or renames one makes its per-layer metrics read 0. This test
resolves every name ``perfbench/layers.py`` lists, so that shows up here and
not only in a ``perfbench/run.py --trace 1`` run."""

import importlib
import statistics
import sys
from pathlib import Path

import pytest

from salmetric.gaussian import density_from_fixations
from salmetric.metrics import EvalConfig, evaluate_all
from salmetric.sampling import negative_pool
from salmetric.synth import SynthConfig, gen_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    """``layers`` and ``tracer`` from perfbench/, imported as the benchmark
    imports them and dropped from ``sys.modules`` afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("layers"), importlib.import_module("tracer")
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
            del sys.modules[name]


def test_every_traced_name_resolves(perfbench):
    layers, tracer = perfbench
    targets = layers.eval_targets([]) + layers.SETUP_TARGETS
    assert targets
    with tracer.Tracer().install(targets) as installed:
        missing = list(installed.missing)
    assert missing == []


def test_traced_evaluate_reads_every_asked_pool(perfbench):
    """The pool-size metrics read ``fixations`` and ``pools`` from each
    captured ``_score_image`` input; a renamed key would zero them."""
    layers, tracer = perfbench
    ds = gen_dataset(SynthConfig(n_images=5, frame=(24, 20), fixations_per_image=6, seed=2))
    preds = {rec.id: density_from_fixations(rec.fixations, ds.sigma) for rec in ds.images}
    sampled = {"auc_borji": "borji", "s_auc": "shuffled", "fn_auc": "fn"}
    captured = []
    with tracer.Tracer().install(layers.eval_targets(captured)):
        evaluate_all(ds, preds, EvalConfig(metrics=("auc_judd", *sampled), n_splits=3, k=2))
    assert len(captured) == len(ds)
    got = layers._pool_metrics(captured)
    for name, sampler in sampled.items():
        sizes = [len(negative_pool(sampler, image_id, ds, 2)) for image_id in ds.ids]
        assert got[f"sampling.pool_size.{name}.mean"] == statistics.fmean(sizes) > 0
