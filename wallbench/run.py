#!/usr/bin/env python3
"""Builds the wall-clock benchmark from this checkout and runs one workload.

    python3 wallbench/run.py --workload yago_dual --seed 1 --seconds 10 --trace 0

The first call configures and builds `wallbench` (the library sources plus
this directory) in Release mode under `.bench_build/` at the checkout root;
later calls only rebuild what changed. Build output goes to stderr. The
benchmark's own output goes to stdout; its last line is the JSON result.
Stores, WAL segments and traced-run span files are kept under
`.bench_build/runs/`; each run removes its stores when it ends.
"""

import argparse
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "wallbench"
WORK_DIR = ROOT / ".bench_build" / "runs"
WORKLOADS = ("yago_dual", "yago_rel", "yago_ingest")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"wallbench: no library sources (CMakeLists.txt, src/) in {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "wallbench",
         "-j", "4"],
        check=True, stdout=sys.stderr)
    return BUILD_DIR / "wallbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    sys.stdout.flush()
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", str(WORK_DIR)])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
