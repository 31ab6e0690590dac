#!/usr/bin/env python3
"""Builds and runs the repository benchmark (one workload per call).

Run from the repository root:

    python3 rcbench/run.py --workload client_read --seed 1 --seconds 10 --trace 0

The first call configures and builds a Release tree of the library sources
and the benchmark in .bench_build/rcbench (the repository's own build files
are not used or touched); later calls rebuild incrementally. The benchmark
binary prints a host stamp, its figures and output checks, and as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}.

Extra flags after the four standard ones are passed to the binary:
--quick (small inputs, same checks), --perturb CHECK (the named check's
expected value is perturbed, so the run must fail it).
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "rcbench"
BINARY = BUILD_DIR / "rcbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def source_hash():
    """Content hash of the library and benchmark sources (the checkout may
    not be a git repository, so the git sha can be unknown)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR / "cpp"):
        for path in sorted(top.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "rcbench", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            return False
    return BINARY.exists()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["client_read", "net_push", "sched_month"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print(f"rcbench: no library sources under {ROOT / 'src'}; nothing to build",
              file=sys.stderr)
        return 2
    if not build():
        print("rcbench: build failed", file=sys.stderr)
        return 2

    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(BUILD_DIR / "out"), "--source-hash", source_hash()] + extra
    sys.stdout.flush()
    with subprocess.Popen(command, cwd=ROOT) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"rcbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
