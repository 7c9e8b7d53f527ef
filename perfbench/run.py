#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep|contend|track|analyze|all \
        --seed N --seconds S --trace 0|1

The first run configures and builds the library sources and the
`ccap_bench` binary into .bench_build/perfbench (CMake, optimized
RelWithDebInfo, the repository's default build type); later runs only
re-check the build. The binary's stdout is passed through; its last line is
one JSON object {"correct", "attempted", "failed", "metrics"}.

`--workload all` runs the four workloads one after another and ends with
one JSON line whose metric names are prefixed with the workload name (with
`--trace 1` it runs the traced profile once: that covers every workload).

Exits non-zero without printing a result when the library sources are
missing, the build fails, or the binary fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD, "ccap_bench")
WORKLOADS = ["sweep", "contend", "track", "analyze"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_revision():
    """Git revision when the checkout is a repository, plus a digest of the
    library and benchmark sources (a checkout need not be a repository)."""
    rev = "unknown"
    if shutil.which("git"):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                rev = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"{rev}+src.{digest.hexdigest()[:12]}"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout is reserved for the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run_bench(workload, args, rev):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--workdir", WORKDIR, "--rev", rev]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: ccap_bench exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        fail(f"{workload}: ccap_bench exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: ccap_bench output does not end in a JSON result")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    rev = source_revision()
    if args.workload != "all" or args.trace:
        # The traced profile covers every workload whichever one is named.
        workload = "sweep" if args.workload == "all" else args.workload
        human, result = run_bench(workload, args, rev)
        print("\n".join(human))
        print(json.dumps(result))
        return

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        human, result = run_bench(workload, args, rev)
        print("\n".join(human), flush=True)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
