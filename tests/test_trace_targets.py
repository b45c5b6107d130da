"""The benchmark's traced run wraps salmetric functions by name; a refactor
that drops or renames one makes its per-layer metrics read 0. This test
resolves every name ``perfbench/layers.py`` lists, so that shows up here and
not only in a ``perfbench/run.py --trace 1`` run."""

import importlib
import sys
from pathlib import Path

import pytest

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
