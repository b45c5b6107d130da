"""The traced run: per-layer numbers for one workload.

Everything here runs in the benchmark's own process through
``salmetric.cli.run``, the same entry point the subprocess runs use, with
``--jobs 1`` so every span is recorded in this process. README.md says which
end-to-end metric each number should move.
"""

import json
import os
import pickle
import statistics
from time import perf_counter

import checks
from salmetric.io import read_report
from tracer import Tracer
from workloads import METRICS, SAMPLED_METRICS

IMPORT_REPS = 5

# Spans that aggregate other layers; trace.coverage counts only the rest.
PHASE_SPANS = ("metrics.evaluate_all", "metrics.score")

# The layers whose spans and counts are reported, in the order they print.
SPAN_METRICS = {
    "io.read_manifest": ("s",),
    "io.read_map": ("calls", "s"),
    "io.write_report": ("s",),
    "core.complement_set": ("calls", "s"),
    "core.from_linear": ("calls", "s"),
    "gaussian.density_from_fixations": ("calls", "s"),
    "smoothing.tie_break_global": ("calls", "s"),
    "roc.auc_single": ("calls", "s", "self_s"),
    "roc.auc_averaged": ("calls", "s"),
    "sampling.sample_from_pool": ("calls", "s"),
    "sampling.shuffled_pool": ("calls", "s"),
    "sampling.farthest_pool": ("calls", "s"),
    "sampling.neighbor_ranking": ("calls", "s"),
    "metrics.evaluate_all": ("s",),
}
SETUP_SPAN_METRICS = {
    "io.write_map": ("s",),
    "synth.gen_dataset": ("s",),
    "synth.gen_prediction": ("calls", "s"),
}
COUNT_METRICS = ("io.read_map.bytes", "io.write_report.bytes", "io.write_map.bytes",
                 "roc.auc_single.points", "sampling.sample_from_pool.drawn",
                 "sampling.cc_matrix.bytes")


def _count_after(counter: str, amount):
    return lambda tracer, result, args, kwargs: tracer.count(counter, amount(result, args, kwargs))


def eval_targets(captured_tasks: list) -> list:
    """Spans and counters of an evaluate run; ``_score_image`` tasks are kept
    in ``captured_tasks`` so their pickled size can be taken afterwards."""
    seen_matrices = set()

    def cc_matrix_bytes(result, args, kwargs):
        dataset, sigma = args[0], args[1]
        key = (id(dataset), float(sigma))
        if key in seen_matrices:
            return 0
        seen_matrices.add(key)
        width, height = dataset.frame
        return len(dataset) * width * height * 8

    def report_bytes(result, args, kwargs):
        return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    return [
        ("io", "read_manifest", "io.read_manifest", None),
        ("io", "read_map", "io.read_map",
         _count_after("io.read_map.bytes", lambda r, a, k: 16 + 4 * r.values.size)),
        ("io", "write_report", "io.write_report",
         _count_after("io.write_report.bytes", report_bytes)),
        ("core", "complement_set", "core.complement_set", None),
        ("core", "FixationSet.from_linear", "core.from_linear", None),
        ("gaussian", "density_from_fixations", "gaussian.density_from_fixations", None),
        ("smoothing", "tie_break_global", "smoothing.tie_break_global", None),
        ("roc", "auc_single", "roc.auc_single", None),
        ("roc", "roc_points", None,
         _count_after("roc.auc_single.points", lambda r, a, k: len(r.points))),
        ("roc", "auc_averaged", "roc.auc_averaged", None),
        ("sampling", "sample_from_pool", "sampling.sample_from_pool",
         _count_after("sampling.sample_from_pool.drawn", lambda r, a, k: len(r))),
        ("sampling", "shuffled_pool", "sampling.shuffled_pool", None),
        ("sampling", "farthest_pool", "sampling.farthest_pool", None),
        ("sampling", "neighbor_ranking", "sampling.neighbor_ranking", None),
        ("sampling", "_cc_matrix", None, _count_after("sampling.cc_matrix.bytes", cc_matrix_bytes)),
        ("metrics", "evaluate_all", "metrics.evaluate_all", None),
        ("metrics", "_score_image", "metrics.score",
         lambda tracer, result, args, kwargs: captured_tasks.append(args[0])),
        *[("metrics", name, f"metrics.kernel.{name}", None)
          for name in ("cc", "nss", "sim", "kld", "ig")],
    ]


SETUP_TARGETS = [
    ("io", "write_map", "io.write_map",
     _count_after("io.write_map.bytes", lambda r, a, k: 16 + 4 * a[0].values.size)),
    ("synth", "gen_dataset", "synth.gen_dataset", None),
    ("synth", "gen_prediction", "synth.gen_prediction", None),
]
EVALUATE_ONLY = [("metrics", "evaluate_all", "metrics.evaluate_all", None)]


class _Run:
    """Outcome of one in-process CLI call."""

    def __init__(self, cli, argv, targets):
        self.error = None
        self.tracer = Tracer()
        start = perf_counter()
        try:
            with self.tracer.install(targets):
                code = cli.run([str(a) for a in argv])
            if code != 0:
                self.error = f"exit code {code}"
        except Exception as exc:  # a crash is a failed run; the message names it
            self.error = f"{type(exc).__name__}: {exc}"
        self.wall = perf_counter() - start

    @property
    def evaluate_s(self) -> float:
        return self.tracer.span("metrics.evaluate_all").total


def _pool_metrics(tasks: list) -> dict:
    sizes = {m: [] for m in SAMPLED_METRICS}
    undersized = 0
    for task in tasks:
        pools = task.get("pools", {}) if isinstance(task, dict) else {}
        positives = len(task["fixations"]) if pools else 0
        for name, pool in pools.items():
            sizes.setdefault(name, []).append(len(pool))
            undersized += len(pool) < positives
    out = {f"sampling.pool_size.{m}.mean": statistics.fmean(sizes[m]) if sizes[m] else 0
           for m in SAMPLED_METRICS}
    out["sampling.undersized_pool.count"] = undersized
    return out


def _dispatch_metrics(tasks: list) -> dict:
    start = perf_counter()
    sizes = [len(pickle.dumps(task)) for task in tasks]
    return {"metrics.dispatch.tasks": len(tasks), "metrics.dispatch.bytes": sum(sizes),
            "metrics.dispatch.s": perf_counter() - start}


def run_traced(workload, seed: int, work, data_dir, spawn_python, tree_digest):
    """Per-layer metrics, the numbers of runs attempted and failed, the
    problems found, and the traced names the package no longer has."""
    from salmetric import cli

    problems = []
    failed = set()  # labels of the runs that failed
    attempted = 0

    def fail(label, problem):
        failed.add(label)
        problems.append(f"{label}: {problem}")

    def attempt(argv, targets, label):
        nonlocal attempted
        attempted += 1
        run = _Run(cli, argv, targets)
        if run.error:
            fail(label, run.error)
        return run

    config_path = work / "traced_synth.json"
    config_path.write_text(json.dumps(workload.synth_config(seed)), encoding="utf-8")
    synth_dir = work / "traced_synth"
    setup = attempt(["synth", "--config", config_path, "--predictors", workload.predictor,
                     "--out", synth_dir], SETUP_TARGETS, "traced synth")
    if tree_digest(synth_dir) != tree_digest(data_dir):
        fail("traced synth", "wrote other bytes than the synth subprocess")

    import_s = statistics.median(
        spawn_python(["-c", "import salmetric.cli"]).wall for _ in range(IMPORT_REPS))

    def evaluate(name, targets, **overrides):
        out = work / f"{name}.json"
        run = attempt(workload.evaluate_argv(data_dir, seed, out, **overrides), targets, name)
        run.report = out.read_bytes() if out.is_file() else None
        return run

    # Untraced runs before and after the traced one, so neither side alone
    # pays for a cold start.
    untraced = [evaluate("untraced", EVALUATE_ONLY, jobs=1)]
    captured = []
    traced = evaluate("traced", eval_targets(captured), jobs=1)
    untraced.append(evaluate("untraced_again", EVALUATE_ONLY, jobs=1))
    untraced_s = statistics.fmean(run.evaluate_s for run in untraced)
    jobs2 = evaluate("jobs2", EVALUATE_ONLY, jobs=2)

    if traced.report is not None:
        for problem in checks.check_report(work / "traced.json", workload, seed, data_dir):
            fail("traced", problem)
    for run, label in ((untraced[0], "untraced"), (untraced[1], "untraced_again"),
                       (jobs2, "jobs2")):
        if run.report != traced.report:
            fail(label, "report bytes differ from the traced --jobs 1 report")

    full = read_report(work / "traced.json") if traced.report is not None else None
    single = {}
    for name in METRICS:
        run = evaluate(f"only_{name}", EVALUATE_ONLY, jobs=1, metrics=name)
        single[f"metrics.{name}.s"] = run.evaluate_s
        if run.report is None or full is None or name not in full.aggregate:
            continue
        alone = read_report(work / f"only_{name}.json")
        for image_id, scores in alone.per_image.items():
            if not abs(scores[name] - full.per_image[image_id][name]) <= checks.TOLERANCE:
                fail(f"only_{name}", f"score differs from the full run on {image_id}")
                break

    spans = traced.tracer
    metrics = {"cli.import_s": import_s}
    for tracer, table in ((spans, SPAN_METRICS), (setup.tracer, SETUP_SPAN_METRICS)):
        for layer, fields in table.items():
            stats = tracer.span(layer)
            values = {"calls": stats.calls, "s": stats.total, "self_s": stats.self_time}
            metrics.update({f"{layer}.{f}": values[f] for f in fields})
    counts = {**setup.tracer.counts, **spans.counts}
    metrics.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    metrics.update(_pool_metrics(captured))
    evaluate_all = spans.span("metrics.evaluate_all")
    score = spans.span("metrics.score")
    metrics["metrics.prep.s"] = (score.first_start - evaluate_all.first_start
                                 if score.first_start is not None else evaluate_all.total)
    metrics["metrics.score.s"] = score.total
    metrics.update(_dispatch_metrics(captured))
    metrics["metrics.jobs2_speedup"] = _ratio(untraced_s, jobs2.evaluate_s)
    metrics.update(single)
    metrics["trace.overhead"] = _ratio(traced.evaluate_s, untraced_s)
    covered = sum(s.self_time for name, s in spans.spans.items() if name not in PHASE_SPANS)
    metrics["trace.coverage"] = _ratio(covered, traced.wall)
    missing = sorted(set(setup.tracer.missing + spans.missing))
    return metrics, attempted, len(failed), problems, missing


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
