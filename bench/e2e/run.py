#!/usr/bin/env python3
"""Build and run perf_e2e, the repository benchmark (see README.md).

    python3 bench/e2e/run.py --workload warm_batch --seed 1 --seconds 10 --trace 0

Builds this directory's CMake package (perf_e2e plus the solver library it
links from the repository root) into .bench_build/perf_e2e, runs one
workload and passes its output through: the last stdout line is the result
JSON. --trace 1 runs the traced variant, which reports the per-layer metrics
and writes .bench_build/perf_e2e/traces/trace_<workload>.json.
--record FILE also appends the run to a results ledger (created with the
host facts on first use). Standard library only.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "perf_e2e")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perf_e2e"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            key, sep, value = line.strip().partition("=")
            if sep and not line.startswith(("#", "//")):
                cache[key.split(":")[0]] = value
    return cache


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout
    except OSError:
        return "unknown"
    return out.splitlines()[0].strip() if out.strip() else "unknown"


def host_facts():
    cache = cmake_cache()
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    openmp = bool(cache.get("OpenMP_CXX_FLAGS"))
    native = cache.get("MPQLS_NATIVE_ARCH") == "ON" and cache.get("MPQLS_HAS_MARCH_X86_64_V3") == "1"
    return {
        "nproc": nproc,
        "cpu_model": cpu_model,
        "openmp": openmp,
        "omp_threads": int(os.environ.get("OMP_NUM_THREADS", nproc)) if openmp else 1,
        "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"]),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "march": "x86-64-v3" if native else "default",
        "git_sha": first_line(["git", "rev-parse", "HEAD"]),
    }


def record(path, args, result):
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            ledger = json.load(f)
    else:
        ledger = {"host": host_facts(), "runs": []}
    ledger["runs"].append({"workload": args.workload, "seed": args.seed,
                           "seconds": args.seconds, "trace": args.trace, **result})
    with open(path, "w", encoding="utf-8") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE")
    args = parser.parse_args()

    build()
    cmd = [os.path.join(BUILD, "perf_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if args.record and lines and lines[-1].startswith("{"):
        record(args.record, args, json.loads(lines[-1]))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
