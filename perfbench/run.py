#!/usr/bin/env python3
"""Builds cfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first call configures and builds
into .bench_build/perfbench (the library with the repository's own
flags, then the benchmark); later calls rebuild only what changed.
Build output goes to stderr. The benchmark's stdout is passed through
once its last line, the result object, is checked against the metrics
and units of BENCHMARK.json; a run whose result does not match exits 1
without it. Scratch files and traces go to .bench_out/. See
perfbench/README.md.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_sha():
    """Content hash of the sources the benchmark builds."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "cfbench", "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            die("build failed: " + " ".join(step))
    return os.path.join(BUILD, "cfbench")


def check_result(line, trace):
    """Why the result line does not match BENCHMARK.json, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    wanted = manifest["per_layer" if trace == "1" else "end_to_end"]
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        return "the result does not hold exactly the four keys"
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(metrics) ^ {m["name"] for m in wanted})
    for metric in wanted:
        got = metrics[metric["name"]]
        if got.get("unit") != metric["unit"]:
            return "%s is in %s, not %s" % (metric["name"], got.get("unit"),
                                            metric["unit"])
        if not isinstance(got.get("value"), (int, float)):
            return "%s has no numeric value" % metric["name"]
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        return "attempted/failed are not whole numbers with attempted >= 1"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die("no repository sources beside perfbench/ (missing %s)"
                % needed)
    binary = build()
    os.makedirs(OUT, exist_ok=True)
    # A run removes its own scratch shards; a killed one cannot.
    for stale in glob.glob(os.path.join(OUT, "work-*")):
        shutil.rmtree(stale, ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               args.trace, "--commit", git_commit(), "--source-sha",
               source_sha(), "--out", OUT]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        die("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write("".join(line + "\n" for line in lines))
        sys.exit(result.returncode or 1)
    problem = check_result(lines[-1], args.trace)
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if problem:
        print("perfbench: %s: %s" % (args.workload, problem),
              file=sys.stderr)
        sys.exit(1)
    print(lines[-1])


if __name__ == "__main__":
    main()
