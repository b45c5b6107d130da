"""Golden outputs: the bytes every subcommand writes on a tiny synthetic dataset.

The inputs come from ``salmetric synth`` with ``golden/synth.json``. Each case
runs one subcommand and compares the file it writes with its file under
``golden/``. A change that moves these bytes on purpose regenerates them with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
"""

import tempfile
from pathlib import Path

import pytest

from salmetric.cli import run

GOLDEN = Path(__file__).parent / "golden"
SAMPLED = ["--splits", "5", "--k", "3"]
MANIFEST = "{data}/manifest.json"

# case -> (golden file, arguments or None, file to compare); {data} is the
# synth output directory and {work} a scratch directory of the case.
CASES = {
    "synth-manifest": ("manifest.json", None, MANIFEST),
    **{
        f"evaluate-{pred}": (
            f"evaluate_{pred}.json",
            ["evaluate", MANIFEST, "--pred", f"{{data}}/pred_{pred}", *SAMPLED,
             "--out", "{work}/report.json"],
            "{work}/report.json",
        )
        for pred in ("oracle", "quantized")
    },
    **{
        f"sweep-{source}": (
            "sweep.json",
            ["sweep", path, "--sigmas", "1,3,6", "--metrics",
             "cc,nss,auc_judd,auc_borji,s_auc,fn_auc", *SAMPLED, "--out", "{work}/sweep.json"],
            "{work}/sweep.json",
        )
        for source, path in (("manifest", MANIFEST), ("synth-config", str(GOLDEN / "synth.json")))
    },
    **{
        f"negatives-{sampler}": (
            f"negatives_{sampler}.json",
            ["negatives", MANIFEST, "--sampler", sampler, "--k", "3", "--out", "{work}/negs"],
            "{work}/negs/negatives.json",
        )
        for sampler in ("shuffled", "fn")
    },
    **{
        f"quality-{measure}": (
            f"quality_{measure}.json",
            ["quality", MANIFEST, "--samplers", "shuffled,fn:3", "--measure", measure,
             "--out", "{work}/quality.json"],
            "{work}/quality.json",
        )
        for measure in ("cc", "auc")
    },
    "density": (
        "density_synth_0000.smap",
        ["density", MANIFEST, "--out", "{work}/densities"],
        "{work}/densities/synth_0000.smap",
    ),
    **{
        f"smooth-{mode}": (
            f"smooth_{mode}.smap",
            ["smooth", "{data}/pred_quantized/synth_0000.smap", "--mode", mode,
             "--out", "{work}/smoothed.smap"],
            "{work}/smoothed.smap",
        )
        for mode in ("global", "noise")
    },
}


def synth(out) -> None:
    code = run(["synth", "--config", str(GOLDEN / "synth.json"),
                "--predictors", "oracle,quantized", "--out", str(out)])
    assert code == 0, f"synth exited {code}"


def produce(case: str, data, work) -> bytes:
    _, argv, written = CASES[case]
    if argv is not None:
        code = run([arg.format(data=data, work=work) for arg in argv])
        assert code == 0, f"{case} exited {code}"
    return Path(written.format(data=data, work=work)).read_bytes()


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden-data")
    synth(out)
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, data, tmp_path):
    assert produce(case, data, tmp_path) == (GOLDEN / CASES[case][0]).read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        synth(data)
        for case, (golden, _, _) in CASES.items():
            work = Path(tmp) / case
            work.mkdir()
            (GOLDEN / golden).write_bytes(produce(case, data, work))
