#!/usr/bin/env python3
"""salmetric benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory. ``--workload all`` runs every workload in turn.

With ``--trace 0`` the run writes the workload's dataset with ``salmetric
synth`` (several times, for ``setup_s``), then times ``salmetric evaluate``
subprocesses for ``--seconds`` seconds and reports medians. With
``--trace 1`` it makes one traced in-process run of the same inputs and
reports per-layer numbers instead. Either way every report is checked (see
checks.py), and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Pin BLAS and OpenMP to one thread before numpy loads. This applies to the
# benchmark's process and the subprocesses it starts, nothing else, and keeps
# the two workers of a --jobs 2 run the only parallelism.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPS = 5
MIN_EVALUATE_REPS = 2
CHILD_TIMEOUT_S = 150.0
# Stop starting new evaluate runs after this long, so a run ends within 180 s.
LOOP_DEADLINE_S = 120.0

@dataclass
class ChildRun:
    wall: float
    cpu: float
    peak_rss_mb: float
    code: int


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("SALMETRIC_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn_python(args, stderr_path=None) -> ChildRun:
    """Run ``python args`` to completion; resource use comes from ``os.wait4``,
    so it covers the child and the workers it waited for, and no other child."""
    env = _child_env()
    with open(stderr_path or os.devnull, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *map(str, args)], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode)


def salmetric(argv, stderr_path=None) -> ChildRun:
    return spawn_python(["-m", "salmetric", *argv], stderr_path)


def tree_digest(directory: Path) -> str:
    """Digest of every file's relative path and bytes under ``directory``."""
    digest = hashlib.sha256()
    if not directory.is_dir():
        return ""
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _last_line(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def make_dataset(workload, seed: int, work: Path):
    """Write the workload's inputs ``SETUP_REPS`` times with ``salmetric
    synth``; returns the first output directory, the wall times, and problems."""
    config = work / "synth.json"
    config.write_text(json.dumps(workload.synth_config(seed)), encoding="utf-8")
    times, digests, problems = [], [], []
    for i in range(SETUP_REPS):
        out = work / f"data{i}"
        err = work / f"synth{i}.err"
        run = salmetric(["synth", "--config", config, "--predictors", workload.predictor,
                         "--out", out], err)
        times.append(run.wall)
        if run.code != 0:
            problems.append(f"synth exited {run.code}: {_last_line(err)}")
        digests.append(tree_digest(out))
        if i:
            shutil.rmtree(out, ignore_errors=True)
    if len(set(digests)) != 1:
        problems.append("synth wrote different bytes on a rerun")
    return work / "data0", times, problems


def run_end_to_end(workload, seed: int, seconds: float, work: Path) -> dict:
    import checks

    data_dir, setup_times, problems = make_dataset(workload, seed, work)
    runs, reports = [], []
    start = perf_counter()
    budget = min(seconds, LOOP_DEADLINE_S)
    # Start another run only while it should end within the budget. The first
    # run is a warm-up: its report is checked like the others, its times are not
    # in the medians.
    while len(runs) < 1 + MIN_EVALUATE_REPS or (
            perf_counter() - start + statistics.median(r.wall for r in runs) <= budget):
        out = work / f"report{len(runs)}.json"
        err = work / f"evaluate{len(runs)}.err"
        run = salmetric(workload.evaluate_argv(data_dir, seed, out), err)
        runs.append(run)
        reports.append(out.read_bytes() if run.code == 0 and out.is_file() else None)
        if run.code != 0:
            problems.append(f"evaluate exited {run.code}: {_last_line(err)}")

    # The report most runs wrote is checked once; any run whose bytes differ fails.
    written = [r for r in reports if r is not None]
    majority = max(set(written), key=written.count) if written else None
    failed = sum(r != majority for r in reports)
    if len(set(written)) > 1:
        problems.append(f"{len(set(written))} distinct report byte strings in one set")
    if majority is not None:
        checked = work / "checked.json"
        checked.write_bytes(majority)
        content = checks.check_report(checked, workload, seed, data_dir)
        if content:
            problems += content
            failed = len(reports)

    attempted = len(runs)
    if workload.check_jobs:
        # Worker-count invariance: another --jobs value must write the same bytes.
        out = work / "check_jobs.json"
        err = work / "check_jobs.err"
        run = salmetric(workload.evaluate_argv(data_dir, seed, out, jobs=workload.check_jobs), err)
        attempted += 1
        if run.code != 0 or not out.is_file() or out.read_bytes() != majority:
            failed += 1
            problems.append(f"--jobs {workload.check_jobs} report bytes differ from the "
                            f"--jobs {workload.flags['--jobs']} reports")

    timed = runs[1:]
    samples = {"evaluate_s": [r.wall for r in timed], "evaluate_cpu_s": [r.cpu for r in timed],
               "peak_rss_mb": [r.peak_rss_mb for r in timed], "setup_s": setup_times}
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "samples": samples}


def run_per_layer(workload, seed: int, work: Path) -> dict:
    import layers

    data_dir, _, problems = make_dataset(workload, seed, work)
    metrics, attempted, failed, more, missing = layers.run_traced(
        workload, seed, work, data_dir, spawn_python, tree_digest)
    problems += more
    if missing:
        print(f"# {workload.name}: the package has no {', '.join(missing)}; "
              "their metrics read 0", file=sys.stderr)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems}


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _declared_units(trace: int) -> dict:
    """Name and unit of each metric BENCHMARK.json promises for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "salmetric" / "__init__.py").is_file():
        print(f"error: no salmetric package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import salmetric

    if Path(salmetric.__file__).resolve().parent != SRC / "salmetric":
        print(f"error: salmetric was imported from {salmetric.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = _declared_units(args.trace)
    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    results = {}
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    try:
        for name in names:
            work = work_dir / name
            work.mkdir(parents=True)
            if args.trace:
                results[name] = run_per_layer(WORKLOADS[name], args.seed, work)
            else:
                results[name] = run_end_to_end(WORKLOADS[name], args.seed, args.seconds, work)
            _print_table(name, args.seed, results[name], units)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    metrics = {}
    for name, result in results.items():
        if sorted(result["metrics"]) != sorted(units):
            print(f"error: {name} measured {sorted(result['metrics'])}, "
                  f"BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
            return 2
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": result["metrics"][metric], "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and not any(r["problems"] for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _print_table(name: str, seed: int, result: dict, units: dict) -> None:
    print(f"== {name} (seed {seed})")
    for problem in result["problems"]:
        print(f"   FAIL {problem}")
    for metric, value in result["metrics"].items():
        unit = units.get(metric, "?")
        samples = result.get("samples", {}).get(metric)
        extra = (f"   median of {len(samples)}: " + " ".join(f"{v:.3f}" for v in samples)
                 if samples else "")
        print(f"   {metric:<42} {value:>14.6g} {unit}{extra}")
    share = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"   {'runs_failed':<42} {share:>14.6g} share "
          f"({result['failed']} of {result['attempted']} runs)", flush=True)


if __name__ == "__main__":
    sys.exit(main())
