#!/usr/bin/env python3
"""Socket-to-ledger pipeline benchmark: build, run, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload eco_mix --seed 1 --seconds 10 --trace 0

Workloads: eco_mix, backlog_drain, submit_storm (see BENCHMARK.json for why
each exists). The first run configures and builds perfbench/ (which compiles
the program from src/) into .bench_build/perfbench; later runs only re-check
the build. Then it runs the pipeline binary, which prints a human-readable
report and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(spans around each layer's public calls, written to
.bench_build/perfbench-trace-<workload>.json as a Chrome trace).

Exits non-zero, without a result line, if the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_pipeline")
WORKLOADS = ("eco_mix", "backlog_drain", "submit_storm")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(env):
    """Configures (once) and builds the binary; returns True on success."""
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_pipeline", "-j", jobs])
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench-build.log"), "w") as out:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                    env=env, timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                log(f"perfbench: build step failed: {err}")
                return False
            if rc != 0:
                log(f"perfbench: build failed (see {out.name})")
                return False
    return os.path.exists(BINARY)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Compilers and the binary keep their temporary files inside the checkout.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not build(env):
        return 1

    workdir = os.path.join(BUILD_ROOT, f"work-{args.workload}-{os.getpid()}")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--git-sha", git_sha()]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(BUILD_ROOT,
                                 f"perfbench-trace-{args.workload}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                             cwd=ROOT, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        for line in lines:
            if not line.startswith("{"):
                print(line)
        log(f"perfbench: perfbench_pipeline exited with {run.returncode}")
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
