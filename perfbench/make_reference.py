#!/usr/bin/env python3
"""Regenerate the reference scores the benchmark checks the default seed against.

    python3 perfbench/make_reference.py [--workload NAME]

Run it only when a change alters scores on purpose, and say in the change
which scores moved and by how much. Like run.py, it runs from the root of a
source checkout.
"""

import argparse
import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import checks

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = run.WORK_ROOT / "reference"
    try:
        for name in names:
            workload = WORKLOADS[name]
            work = work_root / name
            work.mkdir(parents=True)
            data, _, problems = run.make_dataset(workload, checks.DEFAULT_SEED, work)
            report = work / "report.json"
            err = work / "evaluate.err"
            code = run.salmetric(workload.evaluate_argv(data, checks.DEFAULT_SEED, report), err).code
            if problems or code != 0:
                print(f"error: {name}: {problems or err.read_text()}", file=sys.stderr)
                return 1
            scores = checks.scores_of(checks.read_report(report))
            checks.reference_path(name).write_text(
                json.dumps(scores, sort_keys=True, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {checks.reference_path(name)}")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
