#!/usr/bin/env python3
"""Builds the metabench driver (Release) and runs one workload.

    python3 metabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to .bench_build/ (incremental
after the first run); the driver writes per-run results and traced spans to
.bench_build/results/. The last line of stdout is the run's JSON result;
build or check failures exit non-zero.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
WORKLOADS = ("paper_room", "aoi_million", "session_storm")


def build():
    """Configures and builds the driver; returns its path or None."""
    configure = ["cmake", "-S", "metabench", "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD_DIR, "-j", jobs,
                "--target", "metabench"]
    for cmd in (configure, compile_):
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(cmd)} failed: {err}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            print(f"run.py: {' '.join(cmd)} exited {proc.returncode}",
                  file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "metabench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
