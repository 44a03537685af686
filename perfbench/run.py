#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. It builds perfbench (CMake, Release,
into .bench_build/perfbench), runs the workload in a child process and
passes its output through: the human-readable lines first, then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics. perfbench reports metrics as name -> value; BENCHMARK.json is the
one list of their names and units, and this script holds the report
against it. Each run also leaves a results file under .bench_build/results.
The exit code is the workload's: non-zero when an answer check failed.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

WORKLOADS = ("serve_zipf", "query_tree", "build_compact")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RESULTS_DIR = os.path.join(".bench_build", "results")
WORK_DIR = os.path.join(".bench_build", "work")
# A build may take long on a cold tree; a workload run must not.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, env, timeout):
    """Runs a build step; its output goes to stderr only when it fails."""
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("failed: " + " ".join(cmd))


def build(env, jobs):
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        run_quiet(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], env, BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "-j", str(jobs)], env, BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = proc.stdout.decode().strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def with_units(reported, trace):
    """Adds BENCHMARK.json's units to perfbench's name -> value metrics.

    Untraced runs must report every end_to_end metric; traced runs report
    the per_layer metrics of the layers the workload runs, and the others
    are 0. A name BENCHMARK.json does not declare is an error.
    """
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    unknown = sorted(set(reported) - {m["name"] for m in declared})
    if unknown:
        fail("metrics not in BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    for m in declared:
        if m["name"] not in reported and not trace:
            fail("metric %s was not reported" % m["name"])
        metrics[m["name"]] = {"value": reported.get(m["name"], 0),
                              "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    # The benchmark builds the library from this checkout's sources.
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("perfbench", "CMakeLists.txt"),
                   "BENCHMARK.json"):
        if not os.path.isfile(needed):
            fail("run from the root of a checkout: %s is missing" % needed)

    for d in (BUILD_DIR, RESULTS_DIR, WORK_DIR):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = os.path.abspath(WORK_DIR)
    binary = build(env, len(os.sched_getaffinity(0)))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS_DIR,
           "--work-dir", WORK_DIR, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.decode(errors="replace").splitlines()
    if proc.returncode != 0 and (not lines or not lines[-1].startswith("{")):
        fail("perfbench exited with code %d" % proc.returncode)

    result = json.loads(lines[-1])
    result["metrics"] = with_units(result["metrics"], args.trace == 1)
    for line in lines[:-1]:
        print(line)
    for name, m in result["metrics"].items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
