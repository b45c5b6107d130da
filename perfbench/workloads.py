"""The benchmark's workloads.

Each workload is a synthetic dataset made by ``salmetric synth`` from the run's
seed, one predictor's maps, and the ``salmetric evaluate`` flags it is scored
with. README.md gives why each workload exists and which end-to-end metric
each layer metric should move on it.
"""

from dataclasses import dataclass

# Every metric ``salmetric evaluate`` knows; the traced run times each alone.
METRICS = ("cc", "nss", "sim", "kld", "ig", "auc_judd", "auc_borji", "s_auc", "fn_auc")
SAMPLED_METRICS = ("auc_borji", "s_auc", "fn_auc")


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict  # SynthConfig fields; the run adds "seed"
    predictor: str
    flags: dict  # evaluate flags besides the manifest, --pred, --seed and --out
    why: str
    # Another --jobs value whose report must match the timed runs' bytes,
    # checked once per run; 0 for none.
    check_jobs: int = 0

    @property
    def metrics(self) -> tuple:
        return tuple(self.flags["--metrics"].split(",")) if "--metrics" in self.flags else METRICS

    def evaluate_argv(self, data_dir, seed: int, out, **overrides) -> list:
        """``salmetric evaluate`` arguments; ``overrides`` maps flag names
        without the leading dashes (``jobs``, ``metrics``) to new values."""
        flags = dict(self.flags)
        flags.update({f"--{k}": str(v) for k, v in overrides.items()})
        argv = ["evaluate", str(data_dir / "manifest.json"),
                "--pred", str(data_dir / f"pred_{self.predictor}"),
                "--seed", str(seed), "--out", str(out)]
        for flag, value in flags.items():
            argv += [flag, value]
        return argv

    def synth_config(self, seed: int) -> dict:
        return {**self.synth, "seed": seed}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="dense-large",
        synth={"n_images": 4, "frame": [640, 480], "fixations_per_image": 30,
               "cluster_sigma": 19},
        predictor="oracle",
        flags={"--splits": "10", "--k": "3", "--jobs": "1"},
        why="640x480 frames at sigma 19: complement sets, blurs, AUC-Judd over 307k "
            "negatives, large map reads and memory do most of the work",
    ),
    Workload(
        name="fn-many",
        synth={"n_images": 400, "frame": [64, 48], "fixations_per_image": 15},
        predictor="oracle",
        flags={"--metrics": "s_auc,fn_auc", "--splits": "10", "--k": "5", "--jobs": "1"},
        why="400 tiny images: neighbour ranking, per-image pools and many small files "
            "do most of the work; every run also checks --jobs 2 writes the same bytes",
        check_jobs=2,
    ),
)}
