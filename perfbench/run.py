#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs a workload.

    python3 perfbench/run.py --workload fb-replay --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Run from the repository root (or any checkout of it). `--workload all`
runs the three workloads one after another. The first run
configures and compiles the library and the harness in Release mode under
.bench_build/; later runs reuse that build. The harness's report goes to
stdout and its last line is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the run also
writes a Chrome trace of its spans to .bench_build/perfbench-out/.

Exits non-zero, without a result line, when the build fails (for example
outside a full checkout) and when an output check fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("fb-replay", "churn-10k", "serve-open")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the harness; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            sys.exit(1)
    return os.path.join(BUILD, "perfbench")


def revision():
    """The git commit when the checkout is a repository, else a digest of
    the library and harness sources."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return "git:" + proc.stdout.strip()
    except OSError:
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
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    os.makedirs(OUT, exist_ok=True)
    # glibc raises its mmap threshold on the first free of a large block
    # and trims the heap top past a moving limit. Whether the per-event
    # Allocation buffers then reuse heap memory or fault in fresh pages
    # depends on heap layout, and the churn-10k ncdrf cell ran at either
    # ~250 or ~400 events/s from one run to the next. Fixed thresholds keep
    # large buffers in reused heap memory in every run.
    env = dict(os.environ, PERFBENCH_REVISION=revision(),
               MALLOC_MMAP_THRESHOLD_=str(32 << 20),
               MALLOC_TRIM_THRESHOLD_=str(1 << 30))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        cmd = [binary, "--workload", workload,
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--out-dir", OUT]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        try:
            proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.stderr.write("perfbench: %s exceeded %d s\n"
                             % (workload, RUN_TIMEOUT_S))
            sys.exit(1)
        status = status or proc.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
