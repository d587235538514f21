#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload hot-batch --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build): a CMake
Release build of perfbench/, which compiles the library from src/. Each
run first generates the workload's inputs from the seed (the instance,
written as a v2 snapshot directory), then serves and measures them in a
fresh process. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

--workload all runs every workload in turn (the correctness gate): it
prints every metric of each with its name and unit and exits non-zero if
any check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["hot-batch", "cold-solo", "ingest-mixed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir, env):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "s3perf", "-j3"],
        check=True, stdout=sys.stderr, env=env)
    return os.path.join(cmake_dir, "s3perf")


def run_workload(binary, build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    tag = "%s-seed%d-pid%d" % (workload, seed, os.getpid())
    data = os.path.join(build_dir, "data", tag)
    work = os.path.join(build_dir, "work", tag)
    traces = os.path.join(build_dir, "traces")
    os.makedirs(os.path.dirname(work), exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    try:
        subprocess.run(
            [binary, "prepare", "--workload", workload, "--dir", data],
            check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--dir", data, "--work", work]
        if trace:
            cmd += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout.splitlines()
    finally:
        shutil.rmtree(data, ignore_errors=True)
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        binary = build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed: %s" % err)
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    status = 0
    for name in names:
        try:
            code, lines = run_workload(binary, build_dir, name, args.seed,
                                       args.seconds, args.trace)
        except (OSError, subprocess.SubprocessError) as err:
            log("%s: run failed: %s" % (name, err))
            return 3
        if not lines:
            log("%s: no output (exit %d)" % (name, code))
            return 3
        try:
            result = json.loads(lines[-1])
        except ValueError:
            log("%s: last line is not JSON (exit %d)" % (name, code))
            return 3
        if len(names) == 1:
            print("\n".join(lines), flush=True)
            return code
        for line in lines[:-1]:
            print("[%s] %s" % (name, line))
        results[name] = result
        if code != 0 or not result["correct"]:
            status = 1

    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s/%s" % (w, m): v for w, r in results.items()
                    for m, v in r["metrics"].items()},
    }
    print(json.dumps(combined), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
