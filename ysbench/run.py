#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 ysbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The driver and the simulator libraries are
built with CMake (Release) into $CARGO_TARGET_DIR/ysbench, or
.bench_build/ysbench when that variable is unset; later runs rebuild only
what changed. Build output goes to stderr. The driver's stdout is passed
through, so the last stdout line is the result JSON. Exits non-zero, without
a result, when the sources or the build are missing.
"""
import argparse
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet-converged", "fleet-chaos-cold", "table4-grid")
# Stay inside the 180 s budget of a run; the first run also builds.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 850


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "ysbench"


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print("ysbench: timed out: %s" % " ".join(cmd), file=sys.stderr)
        return False
    return proc.returncode == 0


def build(out, deadline):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("ysbench: simulator sources not found under %s" % ROOT,
              file=sys.stderr)
        return None
    if not (out / "CMakeCache.txt").is_file():
        if not run_logged(["cmake", "-S", str(HERE), "-B", str(out),
                           "-DCMAKE_BUILD_TYPE=Release"],
                          deadline - time.monotonic()):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", str(out), "--target",
                       "ysbench_driver", "-j", jobs],
                      deadline - time.monotonic()):
        return None
    exe = out / "ysbench_driver"
    return exe if exe.is_file() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    out = build_dir()
    exe = build(out, start + BUILD_LIMIT_S)
    if exe is None:
        print("ysbench: build failed", file=sys.stderr)
        return 3

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The driver prints its result last; it gets whatever time the build
    # left of the run budget (the first build may use the longer budget).
    budget = max(RUN_LIMIT_S - (time.monotonic() - start), 60)
    proc = subprocess.Popen(cmd, cwd=str(ROOT))
    try:
        return proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("ysbench: driver exceeded %.0f s" % budget, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
