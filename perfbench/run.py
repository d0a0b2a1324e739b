#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune from the checkout this file sits in,
then runs it from the checkout root. The workload process prints its
metrics and, as the last line of standard output, one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["table2_batch", "dense_refine", "serve_cached"]
# the workload process must end well inside the 180 s a run is allowed
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = ap.parse_args()

    # keep every file the build and the run write inside the checkout: the
    # dune cache is off and the compilers' temporary files go to .perfbench
    tmp = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: workload did not finish in %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
