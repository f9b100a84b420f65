#!/usr/bin/env python3
"""Builds and runs the PIP end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload paper_queries --seed 1 \
        --seconds 35 --trace 0

Configures and builds perfbench/ (the engine libraries, pip-server and
the pipbench program) under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs pipbench. pipbench prints one JSON
result object as the last line of standard output; build logs go to
standard error. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper_queries", "sql_analyze_cold", "sql_point_mixed")
# pipbench itself stops its clients at --seconds and must exit well
# within 180 s including set-up, checks and the traced layer ladder.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(here)
    if not os.path.isfile(os.path.join(repo, "src", "CMakeLists.txt")):
        print("perfbench: PIP sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2

    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(target_root, "perfbench"))
    os.makedirs(build, exist_ok=True)
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", here, "-B", build,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build, "-j", "4",
                    "--target", "pipbench", "pip-server"],
                   check=True, stdout=sys.stderr)

    cmd = [os.path.join(build, "pipbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--server-bin", os.path.join(build, "pip-server"),
           "--trace-dir", build]
    sys.stdout.flush()
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
    except subprocess.TimeoutExpired:
        print("perfbench: pipbench did not finish in time", file=sys.stderr)
        sys.exit(1)
