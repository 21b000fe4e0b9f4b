#!/usr/bin/env python3
"""Checks the verdict line of one wallbench run.

Usage: check_wallbench_verdict.py OUTPUT.txt [--require-positive NAME]...

OUTPUT.txt is the stdout of `python3 wallbench/run.py ...`. Its last
non-empty line is the benchmark's JSON result. wallbench exits 0 even when
its oracle finds wrong answers, so this check is what fails the job: the
line must parse as JSON with "correct": true and "failed": 0.

Timings are not compared. `--require-positive NAME` (repeatable) only
asks that metric NAME is present and above 0: wallbench reads a histogram
nothing recorded as 0, so a layer that silently stopped being timed shows
up as a missing or zero metric. Per-layer metrics exist only in a traced
run (`--trace 1`).
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Checks the verdict line of one wallbench run.")
    parser.add_argument("output", help="stdout of wallbench/run.py")
    parser.add_argument("--require-positive", action="append", default=[],
                        metavar="NAME",
                        help="fail unless metric NAME is present and > 0")
    args = parser.parse_args()
    with open(args.output) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        print(f"FAIL: {args.output} is empty")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        print(f"FAIL: last line of {args.output} is not JSON ({e}): "
              f"{lines[-1]}")
        return 1
    if not isinstance(result, dict):
        print(f"FAIL: last line of {args.output} is not a JSON object")
        return 1
    correct = result.get("correct")
    failed = result.get("failed")
    if correct is not True or failed != 0:
        print(f"FAIL: correct={correct!r} failed={failed!r} "
              f"attempted={result.get('attempted')!r}")
        return 1
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        metrics = {}
    bad = []
    for name in args.require_positive:
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            bad.append(f"{name} is missing")
        elif not value > 0:
            bad.append(f"{name} = {value!r}, not > 0")
    if bad:
        print("FAIL: " + "; ".join(bad))
        return 1
    print(f"OK: {result.get('attempted')} answers checked, none failed")
    for name in args.require_positive:
        print(f"OK: {name} = {metrics[name]['value']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
