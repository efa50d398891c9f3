#!/usr/bin/env python3
"""Builds flitbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root.  The first run configures and builds the
repository's libraries and flitbench under .bench_build/perfbench
(Release); later runs only re-check the build.  flitbench prints its
result as one JSON line, the last line of stdout; build output and the
benchmark's human-readable report go to stderr.  `--workload all` runs
every workload, each in a fresh process, and ends with one JSON line
whose metrics are named <workload>/<metric>.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("blame-table1", "serve-mixed", "injection-campaign")


def build(env):
    """Configures (once) and builds flitbench; returns its path."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "flitbench",
                    "-j", "4"], stdout=sys.stderr, env=env, check=True)
    return os.path.join(BUILD, "flitbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no repository sources next to perfbench/ "
                 "(run from a full checkout)")
    # Compiler and benchmark temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        exe = build(env)
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed (%s)" % e)

    def command(workload):
        return [exe, "--workload", workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--state-dir", os.path.join(BUILD, "state")]

    if a.workload != "all":
        sys.exit(subprocess.run(command(a.workload), cwd=ROOT,
                                env=env).returncode)

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print("perfbench: %s" % workload, file=sys.stderr, flush=True)
        run = subprocess.run(command(workload), cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            sys.exit("perfbench: %s exited with %d" % (workload,
                                                       run.returncode))
        result = json.loads(run.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(total))


if __name__ == "__main__":
    main()
